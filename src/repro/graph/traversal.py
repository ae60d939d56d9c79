"""Graph traversal primitives: BFS, bounded/bidirectional searches, Dijkstra.

Everything in this library is traversal-bound, so these functions use flat
``dict``-based distance maps and read neighbour lists straight from the raw
adjacency mapping of a :class:`~repro.graph.dynamic_graph.DynamicGraph`
(``graph.adjacency()``); a served oracle's read-only
:class:`~repro.serving.snapshot.FrozenGraph` keeps no adjacency dict and is
read through ``graph.neighbors``.  ``float("inf")`` (exported as
:data:`INF`) denotes unreachable, matching the paper's ``d_G(u, v) = ∞``
convention.

The bounded bidirectional searches implement the paper's query step: an exact
distance search over the *sparsified* graph ``G[V \\ R]`` (landmarks excluded
from path interiors) under the labelling-derived upper bound ``d⊤`` (Eq. 2).
On a ``FrozenGraph`` the search runs over the snapshot's delta-free rows of
``G[V \\ R]`` (:class:`~repro.graph.dyncsr.SparsifiedRows`).
"""

from __future__ import annotations

import heapq
import threading
from collections.abc import Collection

import numpy as np

from repro.exceptions import VertexNotFoundError
from repro.graph.csr import distinct_at_depth

INF = float("inf")

__all__ = [
    "INF",
    "bfs_distances",
    "bfs_distances_bounded",
    "bfs_with_parents",
    "bidirectional_bfs",
    "dijkstra_distances",
    "bidirectional_dijkstra",
    "bfs_distances_directed",
]

_EMPTY: frozenset[int] = frozenset()


def _neighbour_lookup(graph):
    """``v -> neighbours of v`` for ``graph``: its adjacency mapping's
    lookup when it has one, else its ``neighbors`` method."""
    adjacency = getattr(graph, "adjacency", None)
    return adjacency().__getitem__ if adjacency is not None else graph.neighbors


def bfs_distances(graph, source: int) -> dict[int, int]:
    """Exact BFS distances from ``source`` to every reachable vertex.

    Unreachable vertices are absent from the result.
    """
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    neighbours = _neighbour_lookup(graph)
    dist = {source: 0}
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for v in frontier:
            for w in neighbours(v):
                if w not in dist:
                    dist[w] = depth
                    next_frontier.append(w)
        frontier = next_frontier
    return dist


def bfs_distances_bounded(
    graph, source: int, bound: float, skip: Collection[int] = _EMPTY
) -> dict[int, int]:
    """BFS distances from ``source`` up to (and including) depth ``bound``.

    Vertices in ``skip`` are treated as deleted (never discovered nor
    expanded), except ``source`` itself, which is always seeded.
    """
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    neighbours = _neighbour_lookup(graph)
    dist = {source: 0}
    frontier = [source]
    depth = 0
    while frontier and depth < bound:
        depth += 1
        next_frontier = []
        for v in frontier:
            for w in neighbours(v):
                if w not in dist and w not in skip:
                    dist[w] = depth
                    next_frontier.append(w)
        frontier = next_frontier
    return dist


def bfs_with_parents(
    graph, source: int
) -> tuple[dict[int, int], dict[int, list[int]]]:
    """BFS distances plus the full shortest-path DAG.

    Returns ``(dist, parents)`` where ``parents[v]`` lists *every* neighbour
    ``u`` with ``dist[u] + 1 == dist[v]`` — i.e. the predecessors of ``v``
    across all shortest paths from ``source``.  Used by the validation module
    to reason about the set ``P_G(source, v)`` of all shortest paths.
    """
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    neighbours = _neighbour_lookup(graph)
    dist = {source: 0}
    parents: dict[int, list[int]] = {source: []}
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for v in frontier:
            for w in neighbours(v):
                if w not in dist:
                    dist[w] = depth
                    parents[w] = [v]
                    next_frontier.append(w)
                elif dist[w] == depth:
                    parents[w].append(v)
        frontier = next_frontier
    return dist, parents


def bidirectional_bfs(
    graph,
    source: int,
    target: int,
    bound: float = INF,
    skip: Collection[int] = _EMPTY,
) -> float:
    """Exact ``source``–``target`` distance if it is ``< bound``, else INF.

    Path *interiors* avoid every vertex in ``skip``; the endpoints themselves
    are always allowed (this realises the paper's search over ``G[V \\ R]``
    when ``skip`` is the landmark set — permitting endpoints in ``skip``
    keeps the primitive total).  The bound is strict because the query
    answers ``min(d⊤, d_{G[V\\R]}(u, v))``: a landmark-free path of length
    ``d⊤`` cannot change the answer, so it is never searched for.

    Levels are expanded smaller-frontier-first.  Before a level runs, the
    two search radii sum to ``k`` and no path of length ``<= k`` exists, so
    the first edge that reaches the other side closes a path of length
    exactly ``k + 1``: the search returns it at once.  It gives up once
    ``k + 1`` reaches ``bound``, and the level that would bring it there
    only checks for a meeting, recording nothing.  A dict graph is
    searched over its adjacency mapping.  A snapshot graph is searched
    over the delta-free rows of ``G[V \\ R]`` it hands out for its own
    landmark set (``graph.sparsified(skip)``, which raises for any other
    ``skip``); see :func:`_sparsified_search`.
    """
    sparsified = getattr(graph, "sparsified", None)
    if sparsified is not None:
        rows = sparsified(skip)
        s, t = graph.column(source), graph.column(target)
        if s == t:
            return 0 if bound > 0 else INF
        if bound <= 1:
            return INF
        first = []
        if source in skip or target in skip:
            first = [side for side, v in enumerate((source, target)) if v in skip]
            if len(first) == 2 and graph.has_edge(source, target):
                return 1  # no row holds the edge between two skipped endpoints
        return _sparsified_search(rows, s, t, bound, first)

    adj = graph.adjacency()
    if source not in adj:
        raise VertexNotFoundError(source)
    if target not in adj:
        raise VertexNotFoundError(target)
    if source == target:
        return 0 if bound > 0 else INF
    if bound <= 1:
        return INF

    seen_s = {source}
    seen_t = {target}
    frontier_s = [source]
    frontier_t = [target]
    radius = 0  # sum of the two search radii; radius + 1 < bound holds

    while frontier_s and frontier_t:
        if len(frontier_s) <= len(frontier_t):
            frontier, seen_own, seen_other = frontier_s, seen_s, seen_t
        else:
            frontier, seen_own, seen_other = frontier_t, seen_t, seen_s
        radius += 1
        # The last level: only a meeting can still beat ``bound``.
        last = radius + 1 >= bound
        next_frontier = []
        for v in frontier:
            row = adj[v]
            if last:
                if not seen_other.isdisjoint(row):
                    return radius
                continue
            for w in row:
                if w in seen_other:
                    return radius
                if w not in seen_own and w not in skip:
                    seen_own.add(w)
                    next_frontier.append(w)
        if last:
            return INF
        if seen_own is seen_s:
            frontier_s = next_frontier
        else:
            frontier_t = next_frontier

    return INF


#: Frontier size past which :func:`_sparsified_search` leaves its scalar
#: loop for numpy levels.
NUMPY_FRONTIER = 16


def _sparsified_search(rows, source: int, target: int, bound: float, first) -> float:
    """:func:`bidirectional_bfs` over ``rows``, a
    :class:`~repro.graph.dyncsr.SparsifiedRows`, between columns
    ``source != target`` with ``bound > 1``.

    ``first`` lists the sides (0 source, 1 target) whose endpoint is
    skipped.  No row holds a skipped endpoint, so its side expands before
    any other level: from then on every meeting is between columns that
    rows do hold, and the two sides see each other.  The scalar loop
    reads plain row slices, with no skip test; a frontier larger than
    :data:`NUMPY_FRONTIER` hands both sides to :func:`_numpy_levels`.
    """
    indptr, degree, indices = rows.views
    seen_s = {source}
    seen_t = {target}
    frontier_s = [source]
    frontier_t = [target]
    radius = 0  # sum of the two search radii; radius + 1 < bound holds
    while frontier_s and frontier_t:
        if first:
            own = first.pop()
        else:
            own = len(frontier_t) < len(frontier_s)
            if len(frontier_t if own else frontier_s) > NUMPY_FRONTIER:
                return _numpy_levels(
                    rows, bound, radius, [seen_s, seen_t], [frontier_s, frontier_t]
                )
        if own:
            frontier, seen_own, seen_other = frontier_t, seen_t, seen_s
        else:
            frontier, seen_own, seen_other = frontier_s, seen_s, seen_t
        radius += 1
        # The last level: only a meeting can still beat ``bound``.
        last = radius + 1 >= bound
        next_frontier = []
        for v in frontier:
            start = indptr[v]
            row = indices[start : start + degree[v]]
            if last:
                if not seen_other.isdisjoint(row):
                    return radius
                continue
            for w in row:
                if w in seen_other:
                    return radius
                if w not in seen_own:
                    seen_own.add(w)
                    next_frontier.append(w)
        if last:
            return INF
        if own:
            frontier_t = next_frontier
        else:
            frontier_s = next_frontier
    return INF


_per_thread = threading.local()


def _stamp_buffer(n: int) -> tuple[int, np.ndarray]:
    """This thread's ``(stamp, seen)`` over at least ``n`` columns.
    ``seen[i] == stamp + side`` marks column ``i`` visited by that side
    (0 source, 1 target) in this search: a fresh stamp replaces an O(n)
    clear, and per-thread buffers keep readers that share a snapshot
    apart."""
    buffers = _per_thread.__dict__
    if len(buffers.get("seen", ())) < n:
        buffers["seen"] = np.zeros(2 * n, np.int64)
    stamp = buffers["stamp"] = buffers.get("stamp", 0) + 2
    return stamp, buffers["seen"]


def _numpy_levels(rows, bound, radius, visited, frontiers) -> float:
    """The numpy phase of :func:`_sparsified_search`, from radius sum
    ``radius``; returns its answer.

    Takes over the scalar loop's per-side visited sets and frontiers of
    columns (source side first) and expands the side with the smaller
    degree sum, under the same stopping rule.  Each side's degree counts
    come from the level that produced its frontier, and one stamp array
    serves both sides: a gathered column is fresh when its stamp predates
    this search, and a scatter of positions dedupes the fresh ones.
    """
    degree = rows.degree
    stamp, seen = _stamp_buffer(degree.size)
    counts, totals = [], []
    for side in (0, 1):
        seen[np.fromiter(visited[side], np.int64, len(visited[side]))] = stamp + side
        frontiers[side] = frontier = np.array(frontiers[side], dtype=np.int64)
        counts.append(degree[frontier])
        totals.append(int(counts[side].sum()))
    while totals[0] and totals[1]:
        own = int(totals[1] < totals[0])
        neighbours = rows.gather(frontiers[own], counts[own], totals[own])
        radius += 1
        marks = seen[neighbours]
        if (marks == stamp + 1 - own).any():
            return radius
        if radius + 1 >= bound:
            break
        fresh = distinct_at_depth(seen, neighbours[marks < stamp], stamp + own)
        frontiers[own] = fresh
        counts[own] = degree[fresh]
        totals[own] = int(counts[own].sum())
    return INF


def dijkstra_distances(
    graph, source: int, bound: float = INF, skip: Collection[int] = _EMPTY
) -> dict[int, float]:
    """Dijkstra distances from ``source`` on a :class:`WeightedGraph`.

    Supports the paper's weighted extension.  Vertices in ``skip`` are never
    expanded nor discovered (except the seeded ``source``); distances beyond
    ``bound`` are not reported.
    """
    adj = graph.adjacency()
    if source not in adj:
        raise VertexNotFoundError(source)
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        if d > bound:
            break
        dist[v] = d
        for w, weight in adj[v]:
            if w not in dist and w not in skip:
                nd = d + weight
                if nd <= bound:
                    heapq.heappush(heap, (nd, w))
    return dist


def bidirectional_dijkstra(
    graph,
    source: int,
    target: int,
    bound: float = INF,
    skip: Collection[int] = _EMPTY,
) -> float:
    """Exact weighted ``source``–``target`` distance if ``<= bound``, else INF.

    Weighted counterpart of :func:`bidirectional_bfs`, with the same
    ``skip``-as-interior-exclusion semantics but an inclusive bound.
    Uses the classic two-heap scheme with the ``top_s + top_t >= best``
    stopping rule.
    """
    adj = graph.adjacency()
    if source not in adj:
        raise VertexNotFoundError(source)
    if target not in adj:
        raise VertexNotFoundError(target)
    if source == target:
        return 0.0

    dist_s: dict[int, float] = {}
    dist_t: dict[int, float] = {}
    heap_s: list[tuple[float, int]] = [(0.0, source)]
    heap_t: list[tuple[float, int]] = [(0.0, target)]
    seen_s: dict[int, float] = {source: 0.0}
    seen_t: dict[int, float] = {target: 0.0}
    best = INF

    while heap_s and heap_t:
        if heap_s[0][0] + heap_t[0][0] >= min(best, bound):
            break
        if heap_s[0][0] <= heap_t[0][0]:
            heap, dist_own, seen_own = heap_s, dist_s, seen_s
            seen_other = seen_t
        else:
            heap, dist_own, seen_own = heap_t, dist_t, seen_t
            seen_other = seen_s
        d, v = heapq.heappop(heap)
        if v in dist_own:
            continue
        dist_own[v] = d
        for w, weight in adj[v]:
            nd = d + weight
            other = seen_other.get(w)
            if other is not None:
                total = nd + other
                if total < best:
                    best = total
            if w in skip or w in dist_own:
                continue
            known = seen_own.get(w)
            if known is None or nd < known:
                seen_own[w] = nd
                heapq.heappush(heap, (nd, w))

    return best if best <= bound else INF


def bfs_distances_directed(
    digraph, source: int, forward: bool = True
) -> dict[int, int]:
    """BFS distances on a digraph, following out-edges (``forward=True``) or
    in-edges (``forward=False``).  Supports the directed extension."""
    adj = digraph.out_adjacency() if forward else digraph.in_adjacency()
    if source not in adj:
        raise VertexNotFoundError(source)
    dist = {source: 0}
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = depth
                    next_frontier.append(w)
        frontier = next_frontier
    return dist
