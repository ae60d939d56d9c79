"""Shortest-path *extraction* on top of the distance oracle.

The paper's oracle answers distance values only; many of the motivating
applications (context-aware search, network management — Section 1) need
the actual path.  This module recovers one shortest path using nothing
but distance queries, so it stays exact under IncHL+/DecHL maintenance
and needs no extra index state:

starting from ``u``, greedily step to any neighbour ``w`` with
``Q(w, v) = Q(u, v) − 1`` — such a neighbour always exists on a shortest
path, and each step costs one neighbourhood of distance queries.

Cost: ``O(d(u,v) · avg_deg · query)``.  For a cheaper but inexact
alternative, :func:`approximate_path_via_landmarks` concatenates the two
label-optimal landmark legs of Eq. (2), whose length equals the upper
bound ``d⊤`` (exact whenever some shortest path meets a landmark).

Both take a dict labelling.  A served snapshot has only dense rows; it
takes the length from its own exact distance and walks one path of that
length with :func:`bfs_leg`, one BFS bounded by the distance
(:meth:`repro.serving.snapshot.OracleSnapshot.shortest_path`).
"""

from __future__ import annotations

from repro.core.labelling import HighwayCoverLabelling
from repro.core.query import landmark_distance, query_distance, upper_bound
from repro.exceptions import InvariantViolationError
from repro.graph.traversal import INF, bfs_distances_bounded

__all__ = ["shortest_path", "approximate_path_via_landmarks", "bfs_leg"]


def shortest_path(
    graph, labelling: HighwayCoverLabelling, u: int, v: int
) -> list[int] | None:
    """One exact shortest path from ``u`` to ``v``; ``None`` if disconnected.

    >>> from repro.graph.generators import grid_graph
    >>> from repro.core.construction import build_hcl
    >>> g = grid_graph(3, 3)
    >>> gamma = build_hcl(g, [4])
    >>> path = shortest_path(g, gamma, 0, 8)
    >>> len(path) - 1 == query_distance(g, gamma, 0, 8)
    True
    >>> path[0], path[-1]
    (0, 8)
    """
    total = query_distance(graph, labelling, u, v)
    if total == INF:
        return None
    path = [u]
    current = u
    remaining = int(total)
    while remaining > 0:
        for w in graph.neighbors(current):
            if w == v:
                step_found = True
                next_vertex = w
                break
            if query_distance(graph, labelling, w, v) == remaining - 1:
                step_found = True
                next_vertex = w
                break
        else:
            step_found = False
        if not step_found:
            raise InvariantViolationError(
                f"no neighbour of {current} advances towards {v} "
                f"(remaining={remaining}) — labelling out of sync with graph"
            )
        path.append(next_vertex)
        current = next_vertex
        remaining -= 1
    return path


def approximate_path_via_landmarks(
    graph, labelling: HighwayCoverLabelling, u: int, v: int
) -> list[int] | None:
    """A walk of length ``d⊤`` (Eq. 2) through the best label pair.

    Exact (and a simple path) whenever some shortest ``u``–``v`` path
    meets a landmark — the highway-cover case; otherwise an upper-bound
    *witness walk* that may revisit vertices where the three legs
    overlap.  Returns ``None`` when the labels give no finite bound
    (e.g. different components with no common landmark).

    The witness is assembled from three legs — ``u`` to its label
    landmark ``r_i``, the highway leg ``r_i`` to ``r_j``, and ``r_j`` down
    to ``v`` — each recovered by a bounded BFS between consecutive
    endpoints.
    """
    landmark_set = labelling.landmark_set
    if u == v:
        return [u]
    if u in landmark_set or v in landmark_set:
        # Degenerate legs: landmark endpoints make Eq. (1) exact already.
        total = (
            landmark_distance(labelling, u, v)
            if u in landmark_set
            else landmark_distance(labelling, v, u)
        )
        if total == INF:
            return None
        return bfs_leg(graph, u, v, int(total))

    best: tuple[float, int, int] | None = None
    labels = labelling.labels
    highway = labelling.highway
    for ri, du in labels.label(u).items():
        row = highway.row(ri)
        for rj, dv in labels.label(v).items():
            via = row.get(rj)
            if via is None:
                continue
            candidate = du + via + dv
            if best is None or candidate < best[0]:
                best = (candidate, ri, rj)
    if best is None:
        return None
    bound, ri, rj = best
    if bound != upper_bound(labelling, u, v):  # pragma: no cover - sanity
        raise InvariantViolationError("label join disagrees with upper_bound")

    first = bfs_leg(graph, u, ri, labels.label(u)[ri])
    middle = bfs_leg(graph, ri, rj, int(highway.distance(ri, rj)))
    last = bfs_leg(graph, rj, v, labels.label(v)[rj])
    return first + middle[1:] + last[1:]


def bfs_leg(graph, start: int, goal: int, length: int) -> list[int]:
    """A path of exactly ``length`` edges from ``start`` to ``goal``, where
    ``length`` must be ``d(start, goal)``: one BFS from ``goal`` bounded
    by ``length``, then a walk that steps one level closer each time.

    >>> from repro.graph.generators import grid_graph
    >>> bfs_leg(grid_graph(3, 3), 0, 8, 4)
    [0, 1, 2, 5, 8]
    """
    if length == 0:
        return [start]
    dist = bfs_distances_bounded(graph, goal, bound=length)
    if dist.get(start) != length:
        raise InvariantViolationError(
            f"expected d({start}, {goal}) = {length}, labelling out of sync"
        )
    path = [start]
    current = start
    for remaining in range(length - 1, -1, -1):
        for w in graph.neighbors(current):
            if dist.get(w) == remaining:
                path.append(w)
                current = w
                break
    return path
