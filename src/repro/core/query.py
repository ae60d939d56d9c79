"""Exact distance queries over a highway cover labelling (Section 3).

``Q(u, v, Γ)`` combines two ingredients:

1. the upper bound ``d⊤`` of Eq. (2): join ``L(u)`` and ``L(v)`` through the
   highway;
2. a distance-bounded bidirectional BFS over the sparsified graph
   ``G[V \\ R]`` — every shortest path either meets a landmark (case covered
   exactly by ``d⊤``, via the cover property) or avoids all landmarks (found
   by the sparsified search).

Queries where an endpoint *is* a landmark are answered from the labelling
alone: Definition 3.2 makes ``min{δ_L(r_i, v) + δ_H(r, r_i)}`` exact.

These dict kernels are reference oracles for tests, the fuzzer, the
validators and the baselines, like :mod:`repro.core.inchl`; every read of
an oracle or snapshot takes the one dense-row kernel,
:func:`repro.core.sharding.shard_query_distance` (docs/DESIGN.md §4.2).
"""

from __future__ import annotations

from repro.core.labelling import HighwayCoverLabelling
from repro.exceptions import VertexNotFoundError
from repro.graph.traversal import INF, bidirectional_bfs

__all__ = [
    "landmark_distance",
    "upper_bound",
    "query_distance",
    "query_distances_many",
]


def landmark_distance(labelling: HighwayCoverLabelling, r: int, v: int) -> float:
    """Exact ``d_G(r, v)`` for landmark ``r`` — Eq. (1), no graph search.

    This is the ``Q(r, ·, Γ)`` used throughout Algorithms 2–3.
    """
    if v == r:
        return 0
    highway = labelling.highway
    if v in highway.landmark_set:
        return highway.distance(r, v)
    row = highway.row(r)
    best = INF
    for ri, delta in labelling.labels.label(v).items():
        via = row.get(ri)
        if via is not None:
            candidate = via + delta
            if candidate < best:
                best = candidate
    return best


def upper_bound(labelling: HighwayCoverLabelling, u: int, v: int) -> float:
    """``d⊤_uv`` of Eq. (2): best landmark-passing path length.

    Exact for every vertex pair whose shortest path meets a landmark;
    an upper bound otherwise.  ``u`` and ``v`` must be non-landmarks
    (landmark endpoints short-circuit in :func:`query_distance`).
    """
    labels = labelling.labels
    highway = labelling.highway
    label_u = labels.label(u)
    label_v = labels.label(v)
    if not label_u or not label_v:
        return INF
    best = INF
    for ri, du in label_u.items():
        row = highway.row(ri)
        for rj, dv in label_v.items():
            via = row.get(rj)
            if via is not None:
                candidate = du + via + dv
                if candidate < best:
                    best = candidate
    return best


def query_distance(graph, labelling: HighwayCoverLabelling, u: int, v: int) -> float:
    """``Q(u, v, Γ)`` — the exact distance ``d_G(u, v)`` (inf if disconnected).

    >>> from repro.graph.generators import grid_graph
    >>> from repro.core.construction import build_hcl
    >>> g = grid_graph(3, 3)
    >>> gamma = build_hcl(g, [4])
    >>> query_distance(g, gamma, 0, 8)
    4
    """
    if not graph.has_vertex(u):
        raise VertexNotFoundError(u)
    if not graph.has_vertex(v):
        raise VertexNotFoundError(v)
    if u == v:
        return 0
    landmark_set = labelling.landmark_set
    if u in landmark_set:
        return landmark_distance(labelling, u, v)
    if v in landmark_set:
        return landmark_distance(labelling, v, u)
    bound = upper_bound(labelling, u, v)
    sparsified = bidirectional_bfs(graph, u, v, bound=bound, skip=landmark_set)
    return sparsified if sparsified < bound else bound


def query_distances_many(
    graph, labelling: HighwayCoverLabelling, pairs
) -> list[float]:
    """``Q(u, v, Γ)`` for a whole batch of pairs, answers in input order.

    >>> from repro.graph.generators import grid_graph
    >>> from repro.core.construction import build_hcl
    >>> g = grid_graph(3, 3)
    >>> gamma = build_hcl(g, [4])
    >>> query_distances_many(g, gamma, [(0, 8), (0, 0), (3, 5)])
    [4, 0, 2]
    """
    return [query_distance(graph, labelling, u, v) for u, v in pairs]
