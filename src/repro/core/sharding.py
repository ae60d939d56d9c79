"""Landmark-sharded labellings: the owner rule and shard queries.

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

A shard's rows are the unsharded rows of its owned landmarks, so the
union of the shards' labellings is the unsharded labelling; the tests
check exactly that after every replayed batch, which is how the cluster
tier proves a sharded deployment maintains the same labelling as a
single process.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import VertexNotFoundError
from repro.graph.dyncsr import UNREACH
from repro.graph.traversal import INF, bfs_with_parents, bidirectional_bfs

__all__ = [
    "pair_owners",
    "shard_min_distance",
    "shard_query_distance",
    "shard_query_distances_many",
    "bfs_shortest_path",
]


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
    best = int(np.minimum.reduce(np.add(dist[:, iu], dist[:, iv], dtype=np.int64)))
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
