"""Stateful property testing: hypothesis drives a DynamicHCL oracle through
arbitrary interleavings of insertions (single and batch), deletions (edge
and vertex), landmark promotions/demotions and queries, checking exactness
and canonical minimality throughout."""

import random

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core.dynamic import DynamicHCL
from repro.core.validation import check_matches_rebuild
from repro.graph.generators import ensure_connected, erdos_renyi
from repro.graph.traversal import INF

from tests.conftest import reference_bfs


class DynamicOracleMachine(RuleBasedStateMachine):
    """The oracle must behave exactly like BFS on the evolving graph.

    ``self.graph`` is a reference dict graph that every rule mutates
    alongside the oracle, which keeps its own graph as a CSR.
    """

    @initialize(seed=st.integers(0, 10_000))
    def setup(self, seed):
        rng = random.Random(seed)
        n = rng.randint(6, 16)
        m = rng.randint(n - 1, 2 * n)
        self.graph = ensure_connected(
            erdos_renyi(n, min(m, n * (n - 1) // 2), rng=rng), rng=rng
        )
        self.rng = rng
        k = rng.randint(1, 3)
        self.oracle = DynamicHCL.build(self.graph.copy(), num_landmarks=k)
        self.next_vertex = n
        self.steps = 0

    def _non_edges(self):
        vs = sorted(self.graph.vertices())
        return [
            (u, v)
            for i, u in enumerate(vs)
            for v in vs[i + 1 :]
            if not self.graph.has_edge(u, v)
        ]

    @rule()
    def insert_random_edge(self):
        candidates = self._non_edges()
        if not candidates:
            return
        u, v = self.rng.choice(candidates)
        self.oracle.insert_edge(u, v)
        self.graph.add_edge(u, v)
        self.steps += 1

    @rule()
    def delete_random_edge(self):
        edges = list(self.graph.edges())
        if len(edges) <= 1:
            return
        u, v = self.rng.choice(edges)
        self.oracle.remove_edge(u, v)
        self.graph.remove_edge(u, v)
        self.steps += 1

    @rule(degree=st.integers(1, 3))
    def insert_vertex(self, degree):
        vs = list(self.graph.vertices())
        neighbors = self.rng.sample(vs, min(degree, len(vs)))
        self.oracle.insert_vertex(self.next_vertex, neighbors)
        self.graph.insert_vertex(self.next_vertex, neighbors)
        self.next_vertex += 1
        self.steps += 1

    @rule(count=st.integers(2, 4))
    def insert_edge_batch(self, count):
        candidates = self._non_edges()
        if len(candidates) < count:
            return
        batch = self.rng.sample(candidates, count)
        self.oracle.insert_edges_batch(batch)
        for u, v in batch:
            self.graph.add_edge(u, v)
        self.steps += 1

    @rule()
    def remove_random_vertex(self):
        candidates = [
            v
            for v in self.graph.vertices()
            if v not in self.oracle.labelling.landmark_set
        ]
        if len(candidates) <= 3:
            return
        v = self.rng.choice(candidates)
        self.oracle.remove_vertex(v)
        self.graph.remove_vertex(v)
        self.steps += 1

    @rule()
    def promote_landmark(self):
        candidates = [
            v
            for v in self.graph.vertices()
            if v not in self.oracle.labelling.landmark_set
        ]
        if not candidates or len(self.oracle.landmarks) >= 5:
            return
        self.oracle.add_landmark(self.rng.choice(candidates))
        self.steps += 1

    @rule()
    def demote_landmark(self):
        if len(self.oracle.landmarks) <= 1:
            return
        self.oracle.remove_landmark(self.rng.choice(self.oracle.landmarks))
        self.steps += 1

    @rule()
    def query_random_pair(self):
        vs = list(self.graph.vertices())
        u = self.rng.choice(vs)
        v = self.rng.choice(vs)
        expected = reference_bfs(self.graph, u).get(v, INF)
        assert self.oracle.query(u, v) == expected

    @rule()
    def extract_random_path(self):
        vs = list(self.graph.vertices())
        u = self.rng.choice(vs)
        v = self.rng.choice(vs)
        expected = reference_bfs(self.graph, u).get(v, INF)
        path = self.oracle.shortest_path(u, v)
        if expected == INF:
            assert path is None
        else:
            assert len(path) - 1 == expected
            assert path[0] == u and path[-1] == v
            for x, y in zip(path, path[1:]):
                assert self.graph.has_edge(x, y)

    @invariant()
    def labelling_is_canonical(self):
        if getattr(self, "steps", 0) > 0:
            assert sorted(self.oracle.graph.edges()) == sorted(self.graph.edges())
            assert self.oracle.graph.num_vertices == self.graph.num_vertices
            check_matches_rebuild(self.graph, self.oracle.labelling)
            self.steps = 0  # only re-verify after mutations


DynamicOracleMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)
TestDynamicOracleStateful = DynamicOracleMachine.TestCase
