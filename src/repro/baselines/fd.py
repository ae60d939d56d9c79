"""IncFD — bit-parallel landmark SPTs + bounded search (Hayashi et al. 2016).

The fully-dynamic baseline of the paper: a small set ``R`` of high-degree
landmarks, one *bit-parallel* shortest-path tree (BP-SPT) per landmark, and
queries answered by a BP-refined upper bound followed by a bounded
bidirectional search on the landmark-sparsified graph.

Bit-parallel SPTs (the technique of Akiba et al., adopted by Hayashi et
al.) store, per vertex ``v`` and tree root ``r``:

* ``dist[v] = d(r, v)``;
* two bitmasks over ``<= 64`` *selected* root neighbours ``s``:
  ``S⁻(v) = {s : d(s, v) = dist[v] - 1}`` and
  ``S⁰(v) = {s : d(s, v) = dist[v]}``.

The masks tighten the landmark upper bound: via root ``r`` the distance is
at most ``d(r,u) + d(r,v)``, improved to ``-2`` when ``S⁻(u) ∩ S⁻(v) ≠ ∅``
and to ``-1`` when ``S⁻`` meets ``S⁰`` either way.

Update-cost consequence (this is what the paper's Table 1 measures): an
edge insertion must repair the masks *wherever any selected neighbour's
distance changed*, not merely where the root distance changed — so IncFD
cannot skip landmarks the way IncHL+'s Lemma 4.3 check does, and its
repaired region is a superset of IncHL+'s affected set, with heavier
per-vertex work.  Deletion support (parent/children surgery) is outside
the reproduction's incremental scope.

Size accounting: ``8`` bytes per (vertex, tree) pair — the packed
distance+parent record implied by the paper's reported IncFD sizes; the
transient mask words are query-acceleration state the paper's size column
evidently excludes.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from heapq import heappop, heappush

from repro.exceptions import GraphError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.traversal import INF, bidirectional_bfs
from repro.landmarks.selection import select_landmarks

__all__ = ["FullDynamicOracle", "BitParallelSPT"]

_MAX_SELECTED = 64


class BitParallelSPT:
    """One landmark's bit-parallel SPT: distances plus ``S⁻``/``S⁰`` masks."""

    __slots__ = ("root", "dist", "s_minus", "s_zero", "selected_bit")

    def __init__(self, graph: DynamicGraph, root: int) -> None:
        self.root = root
        # Selected root neighbours, highest degree first (Akiba's heuristic),
        # fixed at construction time.
        neighbors = sorted(
            graph.neighbors(root), key=lambda v: (-graph.degree(v), v)
        )
        self.selected_bit: dict[int, int] = {
            s: 1 << i for i, s in enumerate(neighbors[:_MAX_SELECTED])
        }
        self.dist: dict[int, int] = {}
        self.s_minus: dict[int, int] = {}
        self.s_zero: dict[int, int] = {}
        self._full_build(graph)

    # ------------------------------------------------------------------
    def _full_build(self, graph: DynamicGraph) -> None:
        adj = graph.adjacency()
        root = self.root
        dist = self.dist
        dist.clear()
        dist[root] = 0
        levels: list[list[int]] = [[root]]
        frontier = [root]
        depth = 0
        while frontier:
            depth += 1
            next_frontier: list[int] = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = depth
                        next_frontier.append(w)
            if next_frontier:
                levels.append(next_frontier)
            frontier = next_frontier
        self.s_minus = {root: 0}
        self.s_zero = {root: 0}
        for level_vertices in levels[1:]:
            self._recompute_level_masks(adj, level_vertices)

    def _recompute_level_masks(
        self, adj: dict[int, list[int]], level_vertices: list[int]
    ) -> None:
        """Two-sweep mask computation for one complete BFS level."""
        dist = self.dist
        s_minus = self.s_minus
        s_zero = self.s_zero
        selected_bit = self.selected_bit
        for v in level_vertices:
            d_parent = dist[v] - 1
            mask = selected_bit.get(v, 0) if dist[v] == 1 else 0
            for u in adj[v]:
                if dist.get(u) == d_parent:
                    mask |= s_minus[u]
            s_minus[v] = mask
        for v in level_vertices:
            d_v = dist[v]
            d_parent = d_v - 1
            mask = 0
            for u in adj[v]:
                du = dist.get(u)
                if du == d_parent:
                    mask |= s_zero[u]
                elif du == d_v:
                    mask |= s_minus[u]
            s_zero[v] = mask & ~s_minus[v]

    # ------------------------------------------------------------------
    def repair_insertion(self, graph: DynamicGraph, a: int, b: int) -> int:
        """Repair distances and masks after inserting edge ``(a, b)``.

        Returns the number of vertices whose record was recomputed — the
        work metric the update-time experiments charge.
        """
        adj = graph.adjacency()
        dist = self.dist

        # Step 1: plain improvement BFS on root distances.
        improved: list[int] = []
        da = dist.get(a, INF)
        db = dist.get(b, INF)
        seed = None
        if da + 1 < db:
            seed, seed_dist = b, da + 1
        elif db + 1 < da:
            seed, seed_dist = a, db + 1
        if seed is not None:
            dist[seed] = seed_dist
            improved.append(seed)
            frontier = [seed]
            depth = seed_dist
            while frontier:
                depth += 1
                next_frontier: list[int] = []
                for v in frontier:
                    for w in adj[v]:
                        if depth < dist.get(w, INF):
                            dist[w] = depth
                            next_frontier.append(w)
                            improved.append(w)
                frontier = next_frontier

        # Step 2: mask fixpoint.  Any vertex whose recurrence inputs changed
        # must be recomputed: the edge endpoints (new neighbour), improved
        # vertices (new level), and their neighbours (level reclassification).
        s_minus = self.s_minus
        s_zero = self.s_zero
        selected_bit = self.selected_bit
        heap: list[tuple[int, int]] = []
        queued: set[int] = set()

        def push(v: int) -> None:
            d = dist.get(v)
            if d is not None and v not in queued and v != self.root:
                queued.add(v)
                heappush(heap, (d, v))

        push(a)
        push(b)
        for v in improved:
            push(v)
            for w in adj[v]:
                push(w)

        recomputed = 0
        while heap:
            d, v = heappop(heap)
            queued.discard(v)
            if dist.get(v) != d:  # stale heap entry
                continue
            recomputed += 1
            d_parent = d - 1
            minus = selected_bit.get(v, 0) if d == 1 else 0
            zero = 0
            for u in adj[v]:
                du = dist.get(u)
                if du == d_parent:
                    minus |= s_minus.get(u, 0)
                    zero |= s_zero.get(u, 0)
                elif du == d:
                    zero |= s_minus.get(u, 0)
            zero &= ~minus
            if s_minus.get(v) != minus or s_zero.get(v) != zero:
                s_minus[v] = minus
                s_zero[v] = zero
                # Changed masks feed same-level (S⁰) and next-level inputs.
                for w in adj[v]:
                    dw = dist.get(w)
                    if dw is not None and dw >= d:
                        push(w)
        return recomputed

    # ------------------------------------------------------------------
    def bound_between(self, u: int, v: int) -> float:
        """BP-refined upper bound on ``d(u, v)`` via this tree."""
        du = self.dist.get(u)
        if du is None:
            return INF
        dv = self.dist.get(v)
        if dv is None:
            return INF
        if self.s_minus[u] & self.s_minus[v]:
            return du + dv - 2
        if (self.s_minus[u] & self.s_zero[v]) or (self.s_zero[u] & self.s_minus[v]):
            return du + dv - 1
        return du + dv

    def size_bytes(self, bytes_per_vertex: int = 8) -> int:
        """Packed (distance, parent) record per reachable vertex."""
        return len(self.dist) * bytes_per_vertex


class FullDynamicOracle:
    """The paper's ``IncFD`` baseline.

    >>> from repro.graph.generators import grid_graph
    >>> oracle = FullDynamicOracle(grid_graph(3, 3), num_landmarks=2)
    >>> oracle.query(0, 8)
    4
    """

    name = "IncFD"

    def __init__(
        self,
        graph: DynamicGraph,
        num_landmarks: int = 20,
        landmarks: Sequence[int] | None = None,
        rng: int | random.Random | None = None,
    ) -> None:
        self._graph = graph
        if landmarks is None:
            landmarks = select_landmarks(graph, num_landmarks, "degree", rng=rng)
        else:
            landmarks = list(landmarks)
            for r in landmarks:
                if not graph.has_vertex(r):
                    raise GraphError(f"landmark {r} is not a vertex")
        self._landmarks = landmarks
        self._landmark_set = frozenset(landmarks)
        self._trees = {r: BitParallelSPT(graph, r) for r in landmarks}

    # ------------------------------------------------------------------
    @property
    def graph(self) -> DynamicGraph:
        """The underlying graph."""
        return self._graph

    @property
    def landmarks(self) -> list[int]:
        """Landmark roots of the maintained SPTs."""
        return self._landmarks

    def tree(self, r: int) -> BitParallelSPT:
        """The maintained BP-SPT of landmark ``r``."""
        return self._trees[r]

    def size_bytes(self) -> int:
        """Total SPT footprint (Table 1 accounting)."""
        return sum(tree.size_bytes() for tree in self._trees.values())

    # ------------------------------------------------------------------
    def query(self, u: int, v: int) -> float:
        """Exact distance: BP upper bound + bounded sparsified search."""
        if u == v:
            return 0
        if u in self._landmark_set:
            return self._trees[u].dist.get(v, INF)
        if v in self._landmark_set:
            return self._trees[v].dist.get(u, INF)
        bound = INF
        for tree in self._trees.values():
            candidate = tree.bound_between(u, v)
            if candidate < bound:
                bound = candidate
        sparsified = bidirectional_bfs(
            self._graph, u, v, bound=bound, skip=self._landmark_set
        )
        return sparsified if sparsified < bound else bound

    # ------------------------------------------------------------------
    def insert_edge(self, a: int, b: int) -> int:
        """Insert ``(a, b)`` and repair every BP-SPT; returns total work."""
        self._graph.add_edge(a, b)
        return sum(
            tree.repair_insertion(self._graph, a, b)
            for tree in self._trees.values()
        )

    def insert_vertex(self, v: int, neighbors: Iterable[int]) -> int:
        """Vertex insertion decomposed into edge insertions."""
        neighbor_list = list(neighbors)
        self._graph.insert_vertex(v, [])
        work = 0
        for w in neighbor_list:
            work += self.insert_edge(v, w)
        return work

    def _invariant_rebuild_equal(self) -> bool:
        """Test hook: maintained trees equal freshly built ones."""
        for r, tree in self._trees.items():
            fresh = BitParallelSPT(self._graph, r)
            fresh.selected_bit = tree.selected_bit  # selection is build-time
            fresh._full_build(self._graph)
            if tree.dist != fresh.dist:
                return False
            if tree.s_minus != fresh.s_minus or tree.s_zero != fresh.s_zero:
                return False
        return True
