"""Tests for the DynCSR incremental CSR overlay."""

import random

import numpy as np
import pytest

from repro.exceptions import GraphError, VertexNotFoundError
from repro.graph.csr import CSRGraph
from repro.graph.dyncsr import UNREACH, DynCSR
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi, grid_graph

from tests.conftest import reference_bfs, non_edges, random_connected_graph


def assert_bfs_matches(graph: DynamicGraph, dyn: DynCSR, sources=None):
    """Every BFS over the overlay must equal the dict reference."""
    vertices = sorted(graph.vertices())
    for s in sources if sources is not None else vertices[:5]:
        ref = reference_bfs(graph, s)
        got = dyn.bfs_compact(dyn.index(s))
        for i in range(dyn.num_vertices):
            vid = dyn.vertex(i)
            expected = ref.get(vid)
            if expected is None:
                assert got[i] == UNREACH
            else:
                assert got[i] == expected


class TestSnapshot:
    def test_layout_matches_csrgraph(self):
        graph = random_connected_graph(7)
        dyn = DynCSR.from_graph(graph)
        csr = CSRGraph.from_graph(graph)
        assert np.array_equal(dyn.ids, csr.ids)
        for v in graph.vertices():
            assert dyn.index(v) == csr.index(v)
            assert sorted(dyn.neighbors_compact(dyn.index(v)).tolist()) == sorted(
                csr.neighbors(csr.index(v)).tolist()
            )
        assert dyn.num_edges == graph.num_edges
        assert dyn.num_delta_edges == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            DynCSR.from_graph(DynamicGraph())

    def test_membership_and_mapping(self):
        graph = grid_graph(3, 3)
        dyn = DynCSR.from_graph(graph)
        assert 4 in dyn
        assert 99 not in dyn
        assert len(dyn) == 9
        assert dyn.vertex(dyn.index(7)) == 7
        with pytest.raises(VertexNotFoundError):
            dyn.index(1234)


class TestInsertions:
    def test_bfs_stays_exact_across_insertions_and_compactions(self):
        rng = random.Random(11)
        graph = erdos_renyi(50, 100, rng=rng)
        dyn = DynCSR.from_graph(graph)
        vertices = sorted(graph.vertices())
        added = 0
        while added < 300:
            u, v = rng.sample(vertices, 2)
            if graph.has_edge(u, v):
                continue
            graph.add_edge(u, v)
            dyn.insert_edge(u, v)
            added += 1
            if added % 60 == 0:
                assert_bfs_matches(graph, dyn, sources=vertices[:3])
        # the 300 insertions must have crossed the compaction threshold
        assert dyn.num_edges == graph.num_edges
        assert_bfs_matches(graph, dyn)

    def test_batch_insert_equals_one_at_a_time(self):
        graph_a = random_connected_graph(9)
        graph_b = graph_a.copy()
        dyn_a = DynCSR.from_graph(graph_a)
        dyn_b = DynCSR.from_graph(graph_b)
        batch = non_edges(graph_a)[:6]
        dyn_a.insert_edges_batch(batch)
        for u, v in batch:
            dyn_b.insert_edge(u, v)
        for graph in (graph_a, graph_b):
            for u, v in batch:
                graph.add_edge(u, v)
        assert_bfs_matches(graph_a, dyn_a)
        assert_bfs_matches(graph_b, dyn_b)

    def test_new_vertices_register_lazily(self):
        graph = grid_graph(2, 3)
        dyn = DynCSR.from_graph(graph)
        graph.add_vertex(100)
        graph.add_vertex(101)
        graph.add_edge(100, 101)
        dyn.insert_edge(100, 101)
        graph.add_edge(0, 100)
        dyn.insert_edge(0, 100)
        assert 101 in dyn
        assert dyn.num_vertices == graph.num_vertices
        assert_bfs_matches(graph, dyn)
        dyn.compact()
        assert dyn.num_delta_edges == 0
        assert_bfs_matches(graph, dyn)

    def test_ensure_vertex_rejects_bad_ids(self):
        dyn = DynCSR.from_graph(grid_graph(2, 2))
        with pytest.raises(GraphError):
            dyn.ensure_vertex(-1)
        with pytest.raises(GraphError):
            dyn.ensure_vertex(True)

    def test_explicit_compaction_is_idempotent(self):
        graph = random_connected_graph(8)
        dyn = DynCSR.from_graph(graph)
        extra = non_edges(graph)[:3]
        for u, v in extra:
            graph.add_edge(u, v)
            dyn.insert_edge(u, v)
        dyn.compact()
        before = dyn.neighbors_compact(0).tolist()
        dyn.compact()
        assert dyn.neighbors_compact(0).tolist() == before
        assert dyn.num_delta_edges == 0


class TestDeletions:
    def test_remove_base_edge(self):
        graph = grid_graph(3, 3)
        dyn = DynCSR.from_graph(graph)
        graph.remove_edge(0, 1)
        dyn.remove_edge(0, 1)
        assert dyn.num_edges == graph.num_edges
        assert 1 not in dyn.neighbors_compact(dyn.index(0)).tolist()
        assert_bfs_matches(graph, dyn)

    def test_remove_delta_edge(self):
        graph = grid_graph(3, 3)
        dyn = DynCSR.from_graph(graph)
        graph.add_edge(0, 8)
        dyn.insert_edge(0, 8)
        assert dyn.num_delta_edges == 1
        graph.remove_edge(0, 8)
        dyn.remove_edge(0, 8)
        # The delta-resident edge is gone without ever touching the base.
        assert dyn.num_delta_edges == 0
        assert dyn.num_edges == graph.num_edges
        assert_bfs_matches(graph, dyn)

    def test_remove_absent_edge_raises(self):
        dyn = DynCSR.from_graph(grid_graph(3, 3))
        with pytest.raises(GraphError):
            dyn.remove_edge(0, 8)

    def test_reinsert_after_delete(self):
        graph = grid_graph(3, 3)
        dyn = DynCSR.from_graph(graph)
        for _ in range(3):  # delete/re-insert cycles must be stable
            graph.remove_edge(0, 1)
            dyn.remove_edge(0, 1)
            assert_bfs_matches(graph, dyn, sources=[0])
            graph.add_edge(0, 1)
            dyn.insert_edge(0, 1)
            assert_bfs_matches(graph, dyn, sources=[0])
        assert dyn.num_edges == graph.num_edges

    def test_compact_after_deletions_drops_dead_slots(self):
        rng = random.Random(23)
        graph = erdos_renyi(40, 90, rng=rng)
        dyn = DynCSR.from_graph(graph)
        edges = sorted(graph.edges())
        for u, v in rng.sample(edges, 25):
            graph.remove_edge(u, v)
            dyn.remove_edge(u, v)
        for u, v in non_edges(graph)[:10]:
            graph.add_edge(u, v)
            dyn.insert_edge(u, v)
        dyn.compact()
        assert dyn.num_delta_edges == 0
        assert dyn.num_edges == graph.num_edges
        # Post-compaction adjacency holds exactly the live edges.
        for v in sorted(graph.vertices()):
            assert sorted(
                dyn.vertex(w) for w in dyn.neighbors_compact(dyn.index(v)).tolist()
            ) == sorted(graph.neighbors(v))
        assert_bfs_matches(graph, dyn)

    def test_batch_removal_equals_one_at_a_time(self):
        graph_a = random_connected_graph(31, n_min=12, n_max=20, density=2.5)
        graph_b = graph_a.copy()
        dyn_a = DynCSR.from_graph(graph_a)
        dyn_b = DynCSR.from_graph(graph_b)
        rng = random.Random(31)
        batch = rng.sample(sorted(graph_a.edges()), 6)
        dyn_a.remove_edges_batch(batch)
        for u, v in batch:
            dyn_b.remove_edge(u, v)
        for graph in (graph_a, graph_b):
            for u, v in batch:
                graph.remove_edge(u, v)
        assert_bfs_matches(graph_a, dyn_a)
        assert_bfs_matches(graph_b, dyn_b)
        assert dyn_a.num_edges == dyn_b.num_edges == graph_a.num_edges

    def test_random_mixed_churn_stays_exact(self):
        rng = random.Random(77)
        graph = erdos_renyi(30, 70, rng=rng)
        dyn = DynCSR.from_graph(graph)
        for step in range(200):
            if rng.random() < 0.5 and graph.num_edges > 5:
                u, v = rng.choice(sorted(graph.edges()))
                graph.remove_edge(u, v)
                dyn.remove_edge(u, v)
            else:
                candidates = non_edges(graph)
                if not candidates:
                    continue
                u, v = rng.choice(candidates)
                graph.add_edge(u, v)
                dyn.insert_edge(u, v)
            if step % 40 == 0:
                assert dyn.num_edges == graph.num_edges
                assert_bfs_matches(graph, dyn, sources=sorted(graph.vertices())[:2])
        dyn.compact()
        assert_bfs_matches(graph, dyn)


class TestGather:
    def test_gather_variants_agree(self):
        rng = random.Random(5)
        graph = erdos_renyi(30, 70, rng=rng)
        dyn = DynCSR.from_graph(graph)
        for u, v in non_edges(graph)[:5]:
            graph.add_edge(u, v)
            dyn.insert_edge(u, v)
        frontier = np.array(
            sorted(rng.sample(range(dyn.num_vertices), 10)), dtype=np.int64
        )
        sources, nbrs = dyn.gather(frontier)
        positions, nbrs_p = dyn.gather_with_positions(frontier)
        assert sorted(nbrs.tolist()) == sorted(nbrs_p.tolist())
        assert np.array_equal(frontier[positions], sources)
        # pair multiset equals the true adjacency of the frontier
        expected = sorted(
            (int(s), w)
            for s in frontier.tolist()
            for w in dyn.neighbors_compact(s).tolist()
        )
        assert sorted(zip(sources.tolist(), nbrs.tolist())) == expected

    def test_scalar_views_cache_invalidation(self):
        graph = random_connected_graph(6)
        dyn = DynCSR.from_graph(graph)
        views1 = dyn.scalar_views()
        assert dyn.scalar_views() is views1
        u, v = non_edges(graph)[0]
        graph.add_edge(u, v)
        dyn.insert_edge(u, v)
        views2 = dyn.scalar_views()
        assert views2 is not views1
        # views reflect the delta through delta_count
        assert views2[4][dyn.index(u)] >= 1


class TestSparsified:
    """``DynCSR.sparsified``: the rows of ``G[V \\ R]`` per column."""

    @staticmethod
    def _overlay(seed: int):
        """A frozen overlay with delta lists, swap-removed base rows and
        new vertices, its reference graph and a skip set."""
        rng = random.Random(seed)
        graph = erdos_renyi(60, 150, rng=rng)
        dyn = DynCSR.from_graph(graph)
        edges = sorted(graph.edges())
        for u, v in rng.sample(edges, 20):
            graph.remove_edge(u, v)
            dyn.remove_edge(u, v)
        for u, v in rng.sample(non_edges(graph), 25) + [(60, 3), (61, 60)]:
            for w in (u, v):
                if not graph.has_vertex(w):
                    graph.add_vertex(w)
            graph.add_edge(u, v)
            dyn.insert_edge(u, v)
        skip = set(rng.sample(range(60), 6))
        return dyn.freeze(), graph, skip

    @pytest.mark.parametrize("chunk", [3, 1 << 14])
    def test_rows_are_the_neighbours_outside_skip(self, monkeypatch, chunk):
        import repro.graph.dyncsr as dyncsr

        monkeypatch.setattr(dyncsr, "_REWRITE_CHUNK", chunk)
        frozen, graph, skip = self._overlay(7)
        assert frozen.num_delta_edges and frozen.num_vertices == 62
        mask = np.zeros(frozen.num_vertices, dtype=bool)
        mask[frozen.indices(sorted(skip))] = True
        rows = frozen.sparsified(mask)
        for v in graph.vertices():
            c = frozen.index(v)
            row = rows.indices[rows.indptr[c] : rows.indptr[c] + rows.degree[c]]
            assert sorted(frozen.ids[row].tolist()) == sorted(
                w for w in graph.neighbors(v) if w not in skip
            )
