"""Landmark-sharded labellings: restriction, reassembly, shard queries.

The paper's per-landmark independence (§4: every insertion/deletion
repair is a union of per-landmark jobs) does not only parallelise
maintenance — it *partitions* the labelling itself.  Split the landmark
list ``R`` into disjoint owned subsets ``R_s``; each shard keeps only

- the label entries ``(v, r, d)`` with ``r`` in ``R_s``, and
- the highway cells ``δ(r1, r2)`` with at least one endpoint in ``R_s``
  (the full landmark *list* is retained so positions, highway symmetry
  and serialization stay globally consistent),

plus the full graph (edges are tiny next to labels at scale).  Because a
query is a min over landmarks, a shard can answer *exactly for its own
landmarks* and a scatter-gather min over shards equals the unsharded
answer:

    d(u, v) = min( min_s m_s ,  sparsified_bfs(u, v, bound=m_o) )

where ``m_s = min_{r in R_s} d(r, u) + d(r, v)`` from the shard's dense
distance rows, and the sparsified BFS skips *every* landmark in ``R``
(interior vertices only — endpoints are always admitted, matching
:func:`~repro.graph.traversal.bidirectional_bfs`).  The search runs on
one shard only, the pair's *owner* ``o``: the shard holding landmark
``landmarks[(u + v) % |R|]`` (:func:`pair_owners`).  Every other shard
answers its bound ``m_s``.  The bound is strict: the search reports a
landmark-free distance only when it is ``< m_o`` (∞ otherwise).  Any
shortest path through some landmark ``r`` is covered by ``m_s`` of the
shard owning ``r``.  A landmark-free path either beats every bound, and
then it beats ``m_o`` and the owner finds it, or it does not, and then
some bound already equals it.

Restriction and reassembly are exact inverses: the union of per-shard
label files reproduces the unsharded :func:`save_labelling` output
byte-for-byte (canonical row and highway-cell order), which is how the
cluster tier proves a sharded deployment maintains the same labelling
as a single process.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.highway import Highway
from repro.core.labelling import HighwayCoverLabelling
from repro.core.labels import LabelStore
from repro.exceptions import ReproError, VertexNotFoundError
from repro.graph.dyncsr import UNREACH
from repro.graph.traversal import INF, bfs_with_parents, bidirectional_bfs

__all__ = [
    "restrict_labelling",
    "reassemble_labellings",
    "pair_owners",
    "shard_min_distance",
    "shard_query_distance",
    "shard_query_distances_many",
    "bfs_shortest_path",
]


def restrict_labelling(
    labelling: HighwayCoverLabelling, owned: Iterable[int]
) -> HighwayCoverLabelling:
    """The shard-local view of ``labelling`` for owned landmarks ``owned``.

    Keeps the *full* landmark list (so highway symmetry, serialization
    order, and ``landmark_set`` semantics are identical to the unsharded
    labelling) but drops every label entry whose landmark is not owned
    and every highway cell with no owned endpoint.  Idempotent: applying
    the same restriction twice is a no-op.
    """
    owned_set = frozenset(owned)
    unknown = owned_set - labelling.landmark_set
    if unknown:
        raise ReproError(f"owned landmarks not in labelling: {sorted(unknown)}")
    highway = Highway(labelling.landmarks)
    for r, row in labelling.highway.as_dict().items():
        for r2, d in row.items():
            if r < r2 and (r in owned_set or r2 in owned_set):
                highway.set_distance(r, r2, d)
    # r < r2 misses nothing: set_distance writes both rows, and the
    # diagonal is seeded by the Highway constructor.
    labels = LabelStore()
    for v, label in labelling.labels.items():
        for r, d in label.items():
            if r in owned_set:
                labels.set_entry(v, r, d)
    return HighwayCoverLabelling(highway, labels)


def reassemble_labellings(
    parts: Sequence[HighwayCoverLabelling],
) -> HighwayCoverLabelling:
    """Union per-shard restricted labellings back into one labelling.

    Inverse of :func:`restrict_labelling` over a disjoint landmark
    partition.  Highway cells with endpoints on two different shards are
    stored by both owners; the union checks they agree — a mismatch
    means the shards diverged and is an error, not something to paper
    over with a min.
    """
    if not parts:
        raise ReproError("reassemble_labellings: no parts")
    landmarks = parts[0].landmarks
    for part in parts[1:]:
        if part.landmarks != landmarks:
            raise ReproError(
                "reassemble_labellings: parts disagree on the landmark list"
            )
    highway = Highway(landmarks)
    for part in parts:
        for r, row in part.highway.as_dict().items():
            for r2, d in row.items():
                if r >= r2:
                    continue
                existing = highway.distance(r, r2)
                if existing != INF and existing != d:
                    raise ReproError(
                        f"reassemble_labellings: shards disagree on "
                        f"highway cell ({r}, {r2}): {existing} != {d}"
                    )
                highway.set_distance(r, r2, d)
    labels = LabelStore()
    for part in parts:
        for v, label in part.labels.items():
            for r, d in label.items():
                existing = labels.entry(v, r)
                if existing is not None and existing != d:
                    raise ReproError(
                        f"reassemble_labellings: shards disagree on "
                        f"label ({v}, {r}): {existing} != {d}"
                    )
                labels.set_entry(v, r, d)
    return HighwayCoverLabelling(highway, labels)


def shard_min_distance(
    dist: np.ndarray, index_of: dict[int, int], u: int, v: int
) -> float:
    """``min_k dist[k][u] + dist[k][v]`` over the shard's dense landmark
    rows — the shard's exact upper bound through its owned landmarks.

    ``dist`` is the engine's ``(num_owned, num_vertices)`` int32 matrix
    (``UNREACH`` for unreachable); ``index_of`` maps vertex ids to its
    columns and may also hold ids registered after the rows were frozen
    (columns ``>= num_vertices``).  Vertices without a column contribute
    ``INF``.  Sums are taken in int64, so any sum with an ``UNREACH``
    term stays ``>= UNREACH``.
    """
    iu = index_of.get(u)
    iv = index_of.get(v)
    if iu is None or iv is None or max(iu, iv) >= dist.shape[1] or not len(dist):
        return INF
    best = int((dist[:, iu].astype(np.int64) + dist[:, iv]).min())
    return INF if best >= UNREACH else best


def pair_owners(
    landmarks: Sequence[int], row_landmarks: Iterable[int]
) -> tuple[bool, ...]:
    """The owner rule as a lookup table: ``owners[(u + v) % len(owners)]``
    is true when the shard holding the rows of ``row_landmarks`` owns the
    pair ``(u, v)``, that is, holds landmark ``landmarks[(u + v) % |R|]``.

    The rule is symmetric in ``u`` and ``v`` and names exactly one shard
    of any partition of ``landmarks``; holding every row (unsharded)
    owns every pair, and so does an oracle without landmarks.
    """
    held = frozenset(row_landmarks)
    return tuple(r in held for r in landmarks) or (True,)


def shard_query_distance(
    graph,
    landmark_set: frozenset[int],
    dist: np.ndarray,
    index_of: dict[int, int],
    u: int,
    v: int,
    search: bool,
) -> float:
    """``Q(u, v, Γ)`` on dense rows: exact through the landmarks whose
    rows ``dist`` holds, exact for landmark-free paths when ``search``,
    an overestimate otherwise — so exact with every landmark's row
    (unsharded), and the min over a partition's shards is exact when the
    pair's owner searches (module docstring).  ``landmark_set`` must be
    the FULL landmark set: every shard sparsifies identically.  Without
    ``search`` (a pair another shard owns) the answer is the bound.  An
    endpoint whose own row is held makes the bound exact, so no search
    runs; otherwise the search looks only for a landmark-free path
    strictly shorter than the bound.
    """
    if not graph.has_vertex(u):
        raise VertexNotFoundError(u)
    if not graph.has_vertex(v):
        raise VertexNotFoundError(v)
    if u == v:
        return 0
    bound = shard_min_distance(dist, index_of, u, v)
    if not search:
        return bound
    for r in (u, v):
        if r in landmark_set and not dist[:, index_of[r]].all():
            return bound  # d(r, r) = 0: r's own row is held
    sparsified = bidirectional_bfs(graph, u, v, bound=bound, skip=landmark_set)
    return sparsified if sparsified < bound else bound


def shard_query_distances_many(
    graph,
    landmark_set: frozenset[int],
    dist: np.ndarray,
    index_of: dict[int, int],
    pairs: Iterable[tuple[int, int]],
    owners: Sequence[bool],
) -> list[float]:
    """Batched :func:`shard_query_distance` (one row lookup per pair);
    only the pairs ``owners`` (from :func:`pair_owners`) assigns to this
    shard are searched."""
    n = len(owners)
    return [
        shard_query_distance(
            graph, landmark_set, dist, index_of, u, v, owners[(u + v) % n]
        )
        for u, v in pairs
    ]


def bfs_shortest_path(graph, u: int, v: int) -> list[int] | None:
    """One exact shortest path by plain BFS on the full graph.

    Shards keep the whole graph but only a slice of the labels, so the
    greedy label-walk of :func:`repro.core.paths.shortest_path` is not
    available to them; path queries fall back to this direct search.
    """
    if not graph.has_vertex(u) or not graph.has_vertex(v):
        return None
    if u == v:
        return [u]
    dist, parents = bfs_with_parents(graph, u)
    if v not in dist:
        return None
    path = [v]
    node = v
    while node != u:
        node = parents[node][0]
        path.append(node)
    path.reverse()
    return path
