"""Hypothesis-driven stateful streams over the engine/paper-kernel pair.

Hypothesis owns the op schedule (insert / batch-insert / delete /
landmark promotion) and shrinks any failing schedule to a minimal one;
the invariants are re-checked after every op:

* the oracle's labelling == a labelling maintained by calling the
  paper's kernels directly (byte-identity);
* label-store entry count bookkeeping stays consistent;
* sampled queries equal BFS ground truth.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.batch import apply_edge_insertions_batch, replay_events
from repro.core.construction import build_hcl
from repro.core.dynamic import DynamicHCL
from repro.landmarks.maintenance import add_landmark
from repro.graph.traversal import bfs_distances
from repro.landmarks.selection import top_degree_landmarks

from tests.proptest.strategies import (
    insertion_stream,
    mixed_event_stream,
    random_graph,
)

_SETTINGS = settings(
    max_examples=12,
    stateful_step_count=18,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**20), length=st.integers(1, 25))
def test_fast_stream_matches_sequential(seed, length):
    """Pure insertion streams under hypothesis-chosen seeds/lengths."""
    graph, rng = random_graph(seed)
    landmarks = top_degree_landmarks(graph, rng.randint(1, 5))
    fast = DynamicHCL.build(graph.copy(), landmarks=landmarks)
    g_seq = graph.copy()
    seq = build_hcl(g_seq, landmarks)
    for u, v in insertion_stream(graph, length, rng):
        fast.insert_edge(u, v)
        replay_events(g_seq, seq, [("insert", (u, v))])
        assert fast.labelling == seq


class FastSlowMachine(RuleBasedStateMachine):
    """Stateful fuzz: arbitrary op interleavings must keep engines equal."""

    @initialize(seed=st.integers(min_value=0, max_value=2**16))
    def setup(self, seed):
        graph, rng = random_graph(seed, n_min=10, n_max=28, connected=True)
        self.rng = rng
        landmarks = top_degree_landmarks(graph, rng.randint(2, 4))
        self.fast = DynamicHCL.build(graph.copy(), landmarks=landmarks)
        self.g_seq = graph.copy()
        self.seq = build_hcl(self.g_seq, landmarks)

    @rule(count=st.integers(1, 4))
    def insert_batch(self, count):
        stream = insertion_stream(self.fast.graph, count, self.rng)
        if not stream:
            return
        if len(stream) == 1:
            self.fast.insert_edge(*stream[0])
            replay_events(self.g_seq, self.seq, [("insert", stream[0])])
        else:
            self.fast.insert_edges_batch(stream)
            for u, v in stream:
                self.g_seq.add_edge(u, v)
            apply_edge_insertions_batch(self.g_seq, self.seq, stream)

    @rule()
    def insert_one(self):
        stream = insertion_stream(self.fast.graph, 1, self.rng)
        if not stream:
            return
        self.fast.insert_edge(*stream[0])
        replay_events(self.g_seq, self.seq, [("insert", stream[0])])

    @rule()
    def delete_one(self):
        graph = self.fast.graph
        if graph.num_edges <= graph.num_vertices:
            return  # keep the graph from thinning out to a forest
        edges = list(graph.edges())
        u, v = edges[self.rng.randrange(len(edges))]
        self.fast.remove_edge(u, v)
        replay_events(self.g_seq, self.seq, [("delete", (u, v))])

    @rule(count=st.integers(2, 5))
    def mixed_batch(self, count):
        """One mixed insert/delete batch through ``apply_events_batch``:
        the engine collapses it to a net BatchHL sweep, the reference
        replays it one event at a time — byte-identity must survive."""
        events = mixed_event_stream(self.fast.graph, count, self.rng)
        if not events:
            return
        self.fast.apply_events_batch(events)
        replay_events(self.g_seq, self.seq, events)

    @rule()
    def promote_landmark(self):
        graph = self.fast.graph
        candidates = sorted(set(graph.vertices()) - set(self.fast.landmarks))
        if not candidates or len(self.fast.landmarks) >= 6:
            return
        v = candidates[self.rng.randrange(len(candidates))]
        self.fast.add_landmark(v)
        add_landmark(self.g_seq, self.seq, v)

    @invariant()
    def labellings_equal(self):
        if not hasattr(self, "fast"):
            return
        assert self.fast.labelling == self.seq
        assert (
            self.fast.labelling.labels.total_entries
            == sum(len(lbl) for _, lbl in self.fast.labelling.labels.items())
        )

    @invariant()
    def sampled_queries_exact(self):
        if not hasattr(self, "fast"):
            return
        vertices = sorted(self.fast.graph.vertices())
        if len(vertices) < 2:
            return
        u, v = self.rng.sample(vertices, 2)
        expected = bfs_distances(self.fast.graph, u).get(v, float("inf"))
        assert self.fast.query(u, v) == expected


FastSlowMachine.TestCase.settings = _SETTINGS
TestFastSlowMachine = FastSlowMachine.TestCase
