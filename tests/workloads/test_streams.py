"""Tests for typed update streams and replay."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dynamic import DynamicHCL
from repro.core.validation import check_matches_rebuild
from repro.exceptions import WorkloadError
from repro.graph.dynamic_graph import DynamicGraph
from repro.workloads.streams import (
    UpdateEvent,
    densification_stream,
    insertion_stream,
    mixed_stream,
    replay,
    sliding_window_stream,
    split_events,
)

from tests.conftest import random_connected_graph


def replay_on_edge_set(graph, events):
    """Apply events to a plain edge-set mirror, asserting applicability."""
    edges = {tuple(sorted(e)) for e in graph.edges()}
    for event in events:
        key = tuple(sorted(event.edge))
        if event.is_insert:
            assert key not in edges, f"duplicate insert {key}"
            edges.add(key)
        else:
            assert key in edges, f"delete of absent edge {key}"
            edges.remove(key)
    return edges


class TestEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(WorkloadError):
            UpdateEvent("upsert", (0, 1))

    def test_is_insert(self):
        assert UpdateEvent("insert", (0, 1)).is_insert
        assert not UpdateEvent("delete", (0, 1)).is_insert


class TestInsertionStream:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_applicable_and_disjoint_from_graph(self, seed):
        graph = random_connected_graph(seed, n_min=10, n_max=20)
        events = insertion_stream(graph, 5, rng=seed)
        assert len(events) == 5
        assert all(e.is_insert for e in events)
        for event in events:
            assert not graph.has_edge(*event.edge)
        replay_on_edge_set(graph, events)

    def test_deterministic_under_seed(self):
        graph = random_connected_graph(1, n_min=10, n_max=20)
        assert insertion_stream(graph, 5, rng=9) == insertion_stream(
            graph, 5, rng=9
        )

    def test_dense_graph_rejected(self):
        graph = DynamicGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        with pytest.raises(WorkloadError):
            insertion_stream(graph, 5, rng=0)


class TestMixedStream:
    @given(seed=st.integers(0, 10**6), ratio=st.floats(0.2, 0.9))
    @settings(max_examples=15, deadline=None)
    def test_applicable_in_order(self, seed, ratio):
        graph = random_connected_graph(seed, n_min=10, n_max=20)
        events = mixed_stream(graph, 12, insert_ratio=ratio, rng=seed)
        assert len(events) == 12
        replay_on_edge_set(graph, events)

    def test_ratio_bounds_validated(self):
        graph = random_connected_graph(3)
        with pytest.raises(WorkloadError):
            mixed_stream(graph, 3, insert_ratio=1.5)

    def test_pure_deletion_stream(self):
        graph = random_connected_graph(17, n_min=10, n_max=15)
        events = mixed_stream(graph, 5, insert_ratio=0.0, rng=1)
        assert all(not e.is_insert for e in events)
        replay_on_edge_set(graph, events)

    def test_replays_exactly_on_oracle(self):
        graph = random_connected_graph(29, n_min=10, n_max=18)
        events = mixed_stream(graph, 8, insert_ratio=0.6, rng=4)
        oracle = DynamicHCL.build(graph, num_landmarks=2)
        records = replay(oracle, events)
        assert len(records) == 8
        assert all(r.seconds >= 0 for r in records)
        check_matches_rebuild(oracle.graph.copy(), oracle.labelling)


class TestDensificationStream:
    def test_applicable_and_degree_biased(self):
        # A star: the hub has degree n-1, leaves degree 1; degree-biased
        # endpoint choice should mostly produce leaf-leaf chords (the hub
        # is saturated), all valid non-edges.
        n = 12
        graph = DynamicGraph.from_edges([(0, i) for i in range(1, n)])
        events = densification_stream(graph, 6, rng=3)
        assert len(events) == 6
        replay_on_edge_set(graph, events)

    def test_deterministic_under_seed(self):
        graph = random_connected_graph(5, n_min=10, n_max=15)
        assert densification_stream(graph, 4, rng=2) == densification_stream(
            graph, 4, rng=2
        )


class TestSlidingWindow:
    def test_window_bounds_live_edges(self):
        graph = random_connected_graph(7, n_min=12, n_max=20)
        events = sliding_window_stream(graph, 10, window=3, rng=5)
        final = replay_on_edge_set(graph, events)
        original = {tuple(sorted(e)) for e in graph.edges()}
        assert len(final - original) <= 3

    def test_first_window_is_pure_inserts(self):
        graph = random_connected_graph(13, n_min=12, n_max=20)
        events = sliding_window_stream(graph, 8, window=4, rng=6)
        assert all(e.is_insert for e in events[:4])
        assert any(not e.is_insert for e in events)

    def test_invalid_window_rejected(self):
        graph = random_connected_graph(3)
        with pytest.raises(WorkloadError):
            sliding_window_stream(graph, 5, window=0)


class TestSplit:
    def test_split_partitions(self):
        events = [
            UpdateEvent("insert", (0, 1)),
            UpdateEvent("delete", (2, 3)),
            UpdateEvent("insert", (4, 5)),
        ]
        inserts, deletes = split_events(events)
        assert inserts == [(0, 1), (4, 5)]
        assert deletes == [(2, 3)]
