"""Tests for the DynamicHCL user-facing oracle."""

import pytest

from repro.core.dynamic import DynamicHCL
from repro.core.validation import check_matches_rebuild, check_query_exactness
from repro.exceptions import EdgeExistsError, GraphError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import grid_graph
from repro.graph.traversal import INF

from tests.conftest import random_connected_graph


class TestBuild:
    def test_build_with_count(self):
        oracle = DynamicHCL.build(grid_graph(4, 4), num_landmarks=3)
        assert len(oracle.landmarks) == 3

    def test_build_with_explicit_landmarks(self):
        oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[0, 8])
        assert oracle.landmarks == [0, 8]

    def test_build_with_strategy(self):
        g = grid_graph(4, 4)
        oracle = DynamicHCL.build(g, num_landmarks=4, strategy="random", rng=3)
        assert len(oracle.landmarks) == 4

    def test_build_unknown_strategy(self):
        with pytest.raises(GraphError):
            DynamicHCL.build(grid_graph(2, 2), num_landmarks=1, strategy="nope")

    def test_build_input_graph_is_not_mutated(self):
        """The oracle's graph is its engine's CSR: updates leave the
        graph passed to ``build`` as it was, ``oracle.graph`` is a
        read-only view at the current version, and its ``copy()`` is a
        detached dict graph."""
        g = grid_graph(3, 3)
        oracle = DynamicHCL.build(g, num_landmarks=1)
        oracle.insert_edge(0, 8)
        oracle.remove_edge(0, 1)
        assert g.has_edge(0, 1) and not g.has_edge(0, 8)
        view = oracle.graph
        assert view.has_edge(0, 8) and not view.has_edge(0, 1)
        assert not hasattr(view, "add_edge")
        detached = view.copy()
        assert isinstance(detached, DynamicGraph)
        assert sorted(detached.edges()) == sorted(view.edges())
        detached.add_edge(0, 1)
        assert not oracle.graph.has_edge(0, 1)


class TestQueries:
    def test_query_and_bound(self):
        oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
        assert oracle.query(0, 8) == 4
        assert oracle.distance_bound(0, 8) >= oracle.query(0, 8)

    def test_bound_trivial_cases(self):
        oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
        assert oracle.distance_bound(3, 3) == 0
        assert oracle.distance_bound(4, 0) == 2  # landmark endpoint is exact

    def test_disconnected_query(self):
        g = DynamicGraph.from_edges([(0, 1)], num_vertices=3)
        oracle = DynamicHCL.build(g, landmarks=[0])
        assert oracle.query(0, 2) == INF


class TestUpdates:
    def test_insert_edge_updates_labels_and_queries(self):
        oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
        assert oracle.query(0, 8) == 4
        stats = oracle.insert_edge(0, 8)
        assert oracle.query(0, 8) == 1
        assert stats.edge == (0, 8)

    def test_duplicate_insert_rejected(self):
        oracle = DynamicHCL.build(grid_graph(2, 2), landmarks=[0])
        with pytest.raises(EdgeExistsError):
            oracle.insert_edge(0, 1)

    def test_insert_vertex(self):
        oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
        stats_list = oracle.insert_vertex(100, [0, 8])
        assert len(stats_list) == 2
        assert oracle.query(100, 4) == 3  # 100-0-1-4 (or 100-8-5-4)
        check_matches_rebuild(oracle.graph.copy(), oracle.labelling)

    def test_insert_isolated_vertex(self):
        oracle = DynamicHCL.build(grid_graph(2, 2), landmarks=[0])
        oracle.insert_vertex(50, [])
        assert oracle.query(50, 0) == INF
        check_matches_rebuild(oracle.graph.copy(), oracle.labelling)

    @pytest.mark.parametrize("neighbors", [[1, 1], [1, 99], [100]])
    def test_bad_vertex_insertion_is_atomic(self, neighbors):
        """A bad neighbour list raises what the graph layer raises for it
        and leaves the graph, the labelling and the version untouched."""
        with pytest.raises(Exception) as graph_error:
            grid_graph(4, 4).insert_vertex(100, neighbors)
        oracle = DynamicHCL.build(grid_graph(4, 4), landmarks=[0, 15])
        edges = sorted(oracle.graph.edges())
        vertices = sorted(oracle.graph.vertices())
        labelling = oracle.labelling.copy()
        with pytest.raises(graph_error.type):
            oracle.insert_vertex(100, neighbors)
        assert sorted(oracle.graph.edges()) == edges
        assert sorted(oracle.graph.vertices()) == vertices
        assert oracle.labelling == labelling
        assert oracle.version == 0

    def test_remove_edge_roundtrip(self):
        oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[0, 8])
        d_before = oracle.query(2, 6)
        oracle.insert_edge(2, 6)
        assert oracle.query(2, 6) == 1
        oracle.remove_edge(2, 6)
        assert oracle.query(2, 6) == d_before
        check_matches_rebuild(oracle.graph.copy(), oracle.labelling)

    def test_size_accounting_stable_under_updates(self):
        """IncHL+ keeps sizes minimal: after random updates, size equals
        that of a fresh build (the paper's 'labelling sizes remain stable'
        observation in its strongest form)."""
        import random

        rng = random.Random(5)
        g = random_connected_graph(77, n_max=20)
        oracle = DynamicHCL.build(g.copy(), num_landmarks=3)
        for _ in range(10):
            candidates = [
                (u, v)
                for u in g.vertices()
                for v in g.vertices()
                if u < v and not g.has_edge(u, v)
            ]
            if not candidates:
                break
            u, v = rng.choice(candidates)
            oracle.insert_edge(u, v)
            g.add_edge(u, v)
        from repro.core.construction import build_hcl

        fresh = build_hcl(g, oracle.landmarks)
        assert oracle.label_entries == fresh.labels.total_entries
        assert oracle.size_bytes() == fresh.labels.size_bytes() + fresh.highway.size_bytes()

    def test_queries_exact_after_mixed_updates(self):
        import random

        rng = random.Random(17)
        g = random_connected_graph(123, n_max=18)
        oracle = DynamicHCL.build(g.copy(), num_landmarks=2)
        for step in range(12):
            if step % 3 == 2 and g.num_edges > 1:
                u, v = rng.choice(list(g.edges()))
                oracle.remove_edge(u, v)
                g.remove_edge(u, v)
            else:
                candidates = [
                    (u, v)
                    for u in g.vertices()
                    for v in g.vertices()
                    if u < v and not g.has_edge(u, v)
                ]
                if not candidates:
                    continue
                u, v = rng.choice(candidates)
                oracle.insert_edge(u, v)
                g.add_edge(u, v)
        check_query_exactness(g, oracle.labelling, num_pairs=60, rng=rng)
