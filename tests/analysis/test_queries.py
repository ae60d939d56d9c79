"""Tests for query-cost decomposition."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.queries import query_cost_profile, query_distance_probed
from repro.core.construction import build_hcl
from repro.core.query import query_distance
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import grid_graph

from tests.conftest import random_connected_graph


class TestQueryProbe:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_probe_distance_matches_plain_query(self, seed):
        graph = random_connected_graph(seed)
        vertices = sorted(graph.vertices())
        labelling = build_hcl(graph, vertices[:2])
        for u in vertices[:4]:
            for v in vertices[-4:]:
                probe = query_distance_probed(graph, labelling, u, v)
                assert probe.distance == query_distance(graph, labelling, u, v)
                assert probe.distance <= probe.bound

    def test_same_vertex(self):
        graph = grid_graph(2, 2)
        labelling = build_hcl(graph, [0])
        probe = query_distance_probed(graph, labelling, 3, 3)
        assert probe.distance == 0
        assert probe.label_join_ops == 0

    def test_landmark_endpoint_flagged(self):
        graph = grid_graph(3, 3)
        labelling = build_hcl(graph, [4])
        probe = query_distance_probed(graph, labelling, 4, 8)
        assert probe.landmark_endpoint
        assert probe.bound_was_exact

    def test_bound_exact_through_landmark(self):
        """Corner-to-corner in the 3x3 grid passes the centre landmark."""
        graph = grid_graph(3, 3)
        labelling = build_hcl(graph, [4])
        probe = query_distance_probed(graph, labelling, 0, 8)
        assert probe.bound_was_exact
        assert not probe.search_won

    def test_search_wins_off_landmark(self):
        """Adjacent vertices far from the landmark: the sparsified search
        must beat the bound through the landmark."""
        graph = grid_graph(3, 3)
        labelling = build_hcl(graph, [4])
        probe = query_distance_probed(graph, labelling, 0, 1)
        assert probe.distance == 1
        assert probe.search_won
        assert probe.bound > 1


class TestProfile:
    def test_counts_add_up(self):
        graph = random_connected_graph(12, n_min=15, n_max=25)
        vertices = sorted(graph.vertices())
        labelling = build_hcl(graph, vertices[:3])
        pairs = [(u, v) for u in vertices[:5] for v in vertices[-5:]]
        profile = query_cost_profile(graph, labelling, pairs)
        assert profile.num_queries == len(pairs)
        assert 0 <= profile.bound_exact_fraction <= 1
        assert 0 <= profile.search_won_fraction <= 1
        assert (
            profile.bound_exact_queries + profile.search_won_queries
            == profile.num_queries
        )
        assert profile.mean_label_join_ops > 0

    def test_unreachable_pairs_are_not_bound_exact(self):
        """``inf == inf`` is no bound hit: three of the four pairs are
        disconnected, so only (0, 2) — through landmark 1 — is exact."""
        graph = DynamicGraph.from_edges([(0, 1), (1, 2), (3, 4)])
        labelling = build_hcl(graph, [1])
        pairs = [(0, 3), (0, 4), (2, 4), (0, 2)]
        profile = query_cost_profile(graph, labelling, pairs)
        assert profile.unreachable_queries == 3
        assert profile.bound_exact_queries == 1
        assert profile.bound_exact_fraction == 0.25
        assert not query_distance_probed(graph, labelling, 0, 3).bound_was_exact
        assert (
            profile.bound_exact_queries
            + profile.search_won_queries
            + profile.unreachable_queries
            == profile.num_queries
        )

    def test_unreachable_counted(self):
        graph = DynamicGraph.from_edges([(0, 1), (2, 3)])
        labelling = build_hcl(graph, [0])
        profile = query_cost_profile(graph, labelling, [(1, 2), (0, 1)])
        assert profile.unreachable_queries == 1

    def test_empty_workload(self):
        graph = grid_graph(2, 2)
        labelling = build_hcl(graph, [0])
        profile = query_cost_profile(graph, labelling, [])
        assert profile.num_queries == 0
        assert profile.bound_exact_fraction == 0.0
        assert profile.search_won_fraction == 0.0
