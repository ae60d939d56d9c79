"""Tests for the CSR snapshot and its vectorized BFS fast path."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError, VertexNotFoundError
from repro.graph.csr import CSRGraph, _gather_neighbors
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.dyncsr import UNREACH, DynCSR
from repro.graph.generators import erdos_renyi, grid_graph, ring_of_cliques
from repro.graph.traversal import bfs_distances

from tests.conftest import random_connected_graph, reference_bfs
from tests.proptest.strategies import GRAPH_FAMILIES, mixed_event_stream, random_graph


class TestConstruction:
    def test_from_graph_counts(self):
        csr = CSRGraph.from_graph(grid_graph(3, 4))
        assert csr.num_vertices == 12
        assert csr.num_edges == 17
        assert len(csr) == 12

    def test_degree_array_matches_graph(self):
        graph = ring_of_cliques(3, 4)
        csr = CSRGraph.from_graph(graph)
        for v in graph.vertices():
            assert csr.degree_array()[csr.index(v)] == graph.degree(v)

    def test_degree_array_sums_to_twice_edges(self):
        csr = CSRGraph.from_graph(random_connected_graph(7))
        assert int(csr.degree_array().sum()) == 2 * csr.num_edges

    def test_neighbors_match_graph(self):
        graph = random_connected_graph(11)
        csr = CSRGraph.from_graph(graph)
        for v in graph.vertices():
            compact = {csr.vertex(int(i)) for i in csr.neighbors(csr.index(v))}
            assert compact == set(graph.neighbors(v))

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_graph(DynamicGraph())

    def test_non_contiguous_ids(self):
        graph = DynamicGraph.from_edges([(5, 100), (100, 7), (7, 5)])
        csr = CSRGraph.from_graph(graph)
        assert csr.num_vertices == 3
        assert sorted(int(v) for v in csr.ids) == [5, 7, 100]
        assert csr.vertex(csr.index(100)) == 100
        dist = csr.bfs(5)
        assert dist[csr.index(100)] == 1

    def test_isolated_vertices_survive(self):
        graph = DynamicGraph([0, 1, 2])
        graph.add_edge(0, 1)
        csr = CSRGraph.from_graph(graph)
        dist = csr.bfs(2)
        assert dist[csr.index(2)] == 0
        assert dist[csr.index(0)] == -1
        assert dist[csr.index(1)] == -1

    def test_from_edges(self):
        csr = CSRGraph.from_edges([(0, 1), (1, 2)], num_vertices=4)
        assert csr.num_vertices == 4
        assert csr.num_edges == 2
        assert csr.bfs(0)[csr.index(3)] == -1

    def test_from_edges_empty_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges([])

    def test_from_edges_isolated_only(self):
        csr = CSRGraph.from_edges([], num_vertices=3)
        assert csr.num_vertices == 3
        assert csr.num_edges == 0
        assert list(csr.bfs(1)) == [-1, 0, -1]

    def test_unknown_vertex_raises(self):
        csr = CSRGraph.from_graph(grid_graph(2, 2))
        with pytest.raises(VertexNotFoundError):
            csr.index(99)
        with pytest.raises(VertexNotFoundError):
            csr.bfs(99)

    def test_contains(self):
        csr = CSRGraph.from_graph(grid_graph(2, 2))
        assert 0 in csr
        assert 99 not in csr


class TestGather:
    def test_gather_empty_frontier_vertex(self):
        graph = DynamicGraph([0, 1])
        graph.add_edge(0, 1)
        csr = CSRGraph.from_graph(graph)
        sources, neighbours = _gather_neighbors(
            csr.indptr, csr.indices, np.array([csr.index(0)], dtype=np.int64)
        )
        assert list(sources) == [csr.index(0)]
        assert list(neighbours) == [csr.index(1)]

    def test_gather_all_isolated(self):
        graph = DynamicGraph([0, 1, 2])
        csr = CSRGraph.from_graph(graph)
        sources, neighbours = _gather_neighbors(
            csr.indptr, csr.indices, np.arange(3, dtype=np.int64)
        )
        assert sources.size == 0
        assert neighbours.size == 0

    def test_gather_sources_align_with_neighbours(self):
        graph = random_connected_graph(3)
        csr = CSRGraph.from_graph(graph)
        frontier = np.arange(csr.num_vertices, dtype=np.int64)
        sources, neighbours = _gather_neighbors(csr.indptr, csr.indices, frontier)
        for s, t in zip(sources, neighbours):
            assert graph.has_edge(csr.vertex(int(s)), csr.vertex(int(t)))
        assert sources.size == 2 * csr.num_edges


class TestBFS:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_bfs_matches_reference_connected(self, seed):
        graph = random_connected_graph(seed)
        csr = CSRGraph.from_graph(graph)
        source = next(iter(graph.vertices()))
        expected = reference_bfs(graph, source)
        dist = csr.bfs(source)
        for v in graph.vertices():
            got = int(dist[csr.index(v)])
            assert got == expected.get(v, -1)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_bfs_matches_reference_disconnected(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(6, 25)
        graph = erdos_renyi(n, max(1, n // 2), rng=rng)
        csr = CSRGraph.from_graph(graph)
        source = rng.randrange(n)
        expected = reference_bfs(graph, source)
        dist = csr.bfs(source)
        for v in graph.vertices():
            got = int(dist[csr.index(v)])
            assert got == expected.get(v, -1)

    def test_bfs_many_stacks_rows(self):
        graph = grid_graph(3, 3)
        csr = CSRGraph.from_graph(graph)
        stacked = csr.bfs_many([0, 8])
        assert stacked.shape == (2, 9)
        assert (stacked[0] == csr.bfs(0)).all()
        assert (stacked[1] == csr.bfs(8)).all()

    def test_bfs_many_empty(self):
        csr = CSRGraph.from_graph(grid_graph(2, 2))
        assert csr.bfs_many([]).shape == (0, 4)

    def test_multi_source_is_min_over_rows(self):
        graph = random_connected_graph(13)
        csr = CSRGraph.from_graph(graph)
        sources = sorted(graph.vertices())[:3]
        combined = csr.multi_source_bfs(sources)
        rows = csr.bfs_many(sources)
        for i in range(csr.num_vertices):
            finite = [int(r[i]) for r in rows if r[i] >= 0]
            assert int(combined[i]) == (min(finite) if finite else -1)

    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_distance_rows_on_the_test_families(self, family):
        """The scatter dedupe per level (``distinct_at_depth``) leaves the
        distance rows of every BFS here exactly as a plain BFS has them:
        the CSR's single- and multi-source rows, and the overlay's rows
        after mixed updates."""
        graph, rng = random_graph(5, family=family, n_min=20, n_max=60)
        csr = CSRGraph.from_graph(graph)
        sources = rng.sample(sorted(graph.vertices()), 3)
        rows = [reference_bfs(graph, s) for s in sources]
        for source, expected in zip(sources, rows):
            dist = csr.bfs(source)
            assert {v: int(dist[csr.index(v)]) for v in graph.vertices()} == {
                v: expected.get(v, -1) for v in graph.vertices()
            }
        combined = csr.multi_source_bfs(sources + sources[:1])
        for v in graph.vertices():
            finite = [row[v] for row in rows if v in row]
            assert int(combined[csr.index(v)]) == (min(finite) if finite else -1)
        dyn = DynCSR.from_graph(graph)
        for kind, (u, v) in mixed_event_stream(graph, 30, rng):
            (graph.add_edge if kind == "insert" else graph.remove_edge)(u, v)
            (dyn.insert_edge if kind == "insert" else dyn.remove_edge)(u, v)
        for source in sources:
            expected = reference_bfs(graph, source)
            dist = dyn.bfs_compact(dyn.index(source))
            assert {v: int(dist[dyn.index(v)]) for v in graph.vertices()} == {
                v: expected.get(v, int(UNREACH)) for v in graph.vertices()
            }

    def test_multi_source_requires_sources(self):
        csr = CSRGraph.from_graph(grid_graph(2, 2))
        with pytest.raises(GraphError):
            csr.multi_source_bfs([])

    def test_distances_from_matches_traversal(self):
        graph = random_connected_graph(17)
        csr = CSRGraph.from_graph(graph)
        source = next(iter(graph.vertices()))
        assert csr.distances_from(source) == bfs_distances(graph, source)

    def test_eccentricity(self):
        csr = CSRGraph.from_graph(grid_graph(3, 3))
        assert csr.eccentricity(0) == 4
        assert csr.eccentricity(4) == 2
