"""Tests for the vectorized update engine on insertions (fast path).

The contract under test is byte-identity: every insertion applied
through ``FastUpdateEngine.apply_mixed`` (directly, or through
``DynamicHCL``) must leave the labelling its rows describe exactly equal
to what the sequential Phase A/B/C implementation produces, including
the update statistics.
"""

import random

import pytest

from repro.core.batch import apply_edge_insertions_batch
from repro.core.construction import build_hcl
from repro.core.dynamic import DynamicHCL
from repro.core.inchl import apply_edge_insertion
from repro.core.inchl_fast import FastUpdateEngine
from repro.core.validation import check_matches_rebuild, check_query_exactness
from repro.exceptions import InvariantViolationError
from repro.graph.generators import grid_graph, ring_of_cliques
from repro.landmarks.maintenance import add_landmark
from repro.landmarks.selection import top_degree_landmarks

from tests.conftest import engine_labelling, non_edges, random_connected_graph


def stats_tuple(stats):
    return (
        stats.affected_per_landmark,
        stats.affected_union,
        stats.entries_added,
        stats.entries_modified,
        stats.entries_removed,
        stats.highway_updates,
    )


class TestEngineDirect:
    def test_single_insertion_matches_sequential(self):
        for seed in (0, 1, 2):
            g_fast = random_connected_graph(seed, n_min=15, n_max=22)
            g_ref = g_fast.copy()
            landmarks = top_degree_landmarks(g_fast, 4)
            hcl_ref = build_hcl(g_ref, landmarks)
            engine = FastUpdateEngine(g_fast, landmarks, labels=hcl_ref.labels)
            for edge in non_edges(g_fast)[:8]:
                g_fast.add_edge(*edge)
                g_ref.add_edge(*edge)
                fast_stats = engine.apply_mixed([edge], [])
                ref_stats = apply_edge_insertion(g_ref, hcl_ref, *edge)
                assert engine_labelling(engine) == hcl_ref
                assert stats_tuple(fast_stats) == stats_tuple(ref_stats)

    def test_batch_insertion_matches_batch_reference(self):
        g_fast = random_connected_graph(5, n_min=14, n_max=20)
        g_ref = g_fast.copy()
        landmarks = top_degree_landmarks(g_fast, 4)
        hcl_ref = build_hcl(g_ref, landmarks)
        engine = FastUpdateEngine(g_fast, landmarks, labels=hcl_ref.labels)
        batch = non_edges(g_fast)[:7]
        for edge in batch:
            g_fast.add_edge(*edge)
            g_ref.add_edge(*edge)
        fast_stats = engine.apply_mixed(batch, [])
        ref_stats = apply_edge_insertions_batch(g_ref, hcl_ref, batch)
        assert engine_labelling(engine) == hcl_ref
        assert stats_tuple(fast_stats) == stats_tuple(ref_stats)
        assert fast_stats.batch_size == len(batch)

    def test_empty_batch_rejected(self):
        graph = grid_graph(3, 3)
        hcl = build_hcl(graph, [0, 8])
        engine = FastUpdateEngine(graph, hcl.landmarks, labels=hcl.labels)
        with pytest.raises(InvariantViolationError):
            engine.apply_mixed([], [])

    def test_old_distance_exposes_dense_rows(self):
        graph = grid_graph(3, 3)
        hcl = build_hcl(graph, [0])
        engine = FastUpdateEngine(graph, [0], labels=hcl.labels)
        assert engine.old_distance(0, 8) == 4
        assert engine.old_distance(0, 0) == 0

    def test_disconnected_components_merge(self):
        graph = ring_of_cliques(2, 4)
        graph.add_vertex(50)
        graph.add_vertex(51)
        graph.add_edge(50, 51)
        g_ref = graph.copy()
        landmarks = top_degree_landmarks(graph, 2)
        hcl_ref = build_hcl(g_ref, landmarks)
        engine = FastUpdateEngine(graph, landmarks, labels=hcl_ref.labels)
        assert engine.old_distance(landmarks[0], 50) == float("inf")
        graph.add_edge(0, 50)
        g_ref.add_edge(0, 50)
        engine.apply_mixed([(0, 50)], [])
        apply_edge_insertion(g_ref, hcl_ref, 0, 50)
        hcl_fast = engine_labelling(engine)
        assert hcl_fast == hcl_ref
        check_query_exactness(graph, hcl_fast)

    def test_pre_registered_isolated_vertex_is_picked_up(self):
        # The serving writer registers endpoints with add_vertex before
        # the batch; the overlay learns them on their first edge.
        graph = random_connected_graph(10, n_min=8, n_max=12)
        g_ref = graph.copy()
        hcl_ref = build_hcl(g_ref, [0, 1])
        engine = FastUpdateEngine(graph, [0, 1], labels=hcl_ref.labels)
        graph.add_vertex(999)
        g_ref.add_vertex(999)
        graph.add_edge(0, 999)
        g_ref.add_edge(0, 999)
        fast_stats = engine.apply_mixed([(0, 999)], [])
        ref_stats = apply_edge_insertion(g_ref, hcl_ref, 0, 999)
        assert engine_labelling(engine) == hcl_ref
        assert stats_tuple(fast_stats) == stats_tuple(ref_stats)

    def test_seeding_labelling_is_not_kept(self):
        graph = grid_graph(3, 3)
        hcl = build_hcl(graph, [0, 8])
        engine = FastUpdateEngine(graph, hcl.landmarks, labels=hcl.labels)
        before = engine_labelling(engine)
        hcl.labels.clear_landmark(0)
        assert engine_labelling(engine) == before != hcl


class TestOracleKnob:
    def test_engine_cached_and_rebuilt_after_invalidation(self):
        graph = random_connected_graph(7, n_min=10, n_max=14)
        oracle = DynamicHCL.build(graph, num_landmarks=3)
        edges = non_edges(graph)[:4]
        oracle.insert_edge(*edges[0])
        first = oracle._engine
        assert first is not None
        oracle.insert_edge(*edges[1])
        assert oracle._engine is first  # reused
        u, v = edges[0]
        oracle.remove_edge(u, v)
        assert oracle._engine is first  # deletions stay on the engine
        new_vertex = max(graph.vertices()) + 1
        oracle.insert_vertex(new_vertex, [u, v])
        assert oracle._engine is first  # vertex insertion too
        promoted = sorted(set(graph.vertices()) - set(oracle.landmarks))[0]
        oracle.add_landmark(promoted)
        second = oracle._engine  # landmark maintenance seeds a new engine
        assert second is not first
        assert second.landmarks == oracle.landmarks
        oracle.insert_edge(*edges[2])
        assert oracle._engine is second
        oracle.remove_vertex(new_vertex)
        third = oracle._engine  # so does vertex removal
        assert third is not second
        oracle.insert_edge(*edges[3])
        assert oracle._engine is third
        check_matches_rebuild(oracle.graph.copy(), oracle.labelling)

    def test_fast_after_landmark_maintenance(self):
        graph = random_connected_graph(4, n_min=12, n_max=16)
        g_ref = graph.copy()
        landmarks = top_degree_landmarks(graph, 3)
        fast = DynamicHCL.build(graph, landmarks=landmarks)
        hcl_ref = build_hcl(g_ref, landmarks)
        edges = non_edges(graph)[:4]
        fast.insert_edge(*edges[0])
        g_ref.add_edge(*edges[0])
        apply_edge_insertion(g_ref, hcl_ref, *edges[0])
        promoted = sorted(set(graph.vertices()) - set(fast.landmarks))[0]
        fast.add_landmark(promoted)
        add_landmark(g_ref, hcl_ref, promoted)
        fast.insert_edge(*edges[1])
        g_ref.add_edge(*edges[1])
        apply_edge_insertion(g_ref, hcl_ref, *edges[1])
        assert fast.labelling == hcl_ref
        check_query_exactness(g_ref, fast.labelling)

    def test_insert_vertex_then_fast_insert(self):
        graph = random_connected_graph(8, n_min=9, n_max=12)
        g_ref = graph.copy()
        landmarks = top_degree_landmarks(graph, 3)
        fast = DynamicHCL.build(graph, landmarks=landmarks)
        hcl_ref = build_hcl(g_ref, landmarks)
        edges = non_edges(graph)[:2]
        fast.insert_edge(*edges[0])
        g_ref.add_edge(*edges[0])
        apply_edge_insertion(g_ref, hcl_ref, *edges[0])
        new_vertex = max(graph.vertices()) + 1
        version = fast.version
        stats = fast.insert_vertex(new_vertex, [0, 1])
        assert fast.version == version + 3  # the vertex, then one per edge
        g_ref.insert_vertex(new_vertex, [])
        for w, step in zip([0, 1], stats):
            g_ref.add_edge(new_vertex, w)
            ref_step = apply_edge_insertion(g_ref, hcl_ref, new_vertex, w)
            assert stats_tuple(step) == stats_tuple(ref_step)
        fast.insert_edge(*edges[1])
        g_ref.add_edge(*edges[1])
        apply_edge_insertion(g_ref, hcl_ref, *edges[1])
        assert fast.labelling == hcl_ref

    def test_long_random_stream_byte_identical(self):
        rng = random.Random(123)
        g_fast = random_connected_graph(21, n_min=18, n_max=26)
        g_ref = g_fast.copy()
        landmarks = top_degree_landmarks(g_fast, 5)
        fast = DynamicHCL.build(g_fast, landmarks=landmarks)
        hcl_ref = build_hcl(g_ref, landmarks)
        for _ in range(40):
            candidates = non_edges(g_ref)
            if not candidates:
                break
            if rng.random() < 0.3:
                batch = rng.sample(candidates, min(4, len(candidates)))
                fast.insert_edges_batch(batch)
                for edge in batch:
                    g_ref.add_edge(*edge)
                apply_edge_insertions_batch(g_ref, hcl_ref, batch)
            else:
                edge = rng.choice(candidates)
                fast.insert_edge(*edge)
                g_ref.add_edge(*edge)
                apply_edge_insertion(g_ref, hcl_ref, *edge)
            assert fast.labelling == hcl_ref
        check_matches_rebuild(g_ref, fast.labelling)
        check_query_exactness(g_ref, fast.labelling)
