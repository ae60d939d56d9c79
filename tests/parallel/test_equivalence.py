"""Parallel/serial equivalence — the engine's correctness contract.

For every operation the engine accelerates (construction on both kernels,
batch insertion, decremental rebuild) and ``workers in {1, 2, 4}``:

* the labelling must be **byte-identical** to the serial canonical minimal
  labelling (compared through the canonical serialization, which is
  sensitive to entry *order*, not just content);
* queries against it must match brute-force BFS ground truth exactly.

Graph coverage follows the issue spec: structured grids plus seeded random
connected graphs.
"""

import pytest

from repro.core.batch import apply_edge_insertions_batch
from repro.core.construction import build_hcl
from repro.core.construction_fast import build_hcl_fast
from repro.core.decremental import apply_edge_deletion
from repro.core.query import query_distance
from repro.core.validation import check_matches_rebuild, check_query_exactness
from repro.graph.generators import grid_graph
from repro.landmarks.selection import top_degree_landmarks
from repro.utils.serialization import save_labelling

from tests.conftest import all_pairs_distances, non_edges, random_connected_graph

WORKER_COUNTS = (1, 2, 4)

INF = float("inf")


def canonical_bytes(labelling, tmp_path, tag):
    """Serialize through the canonical on-disk format and return the bytes."""
    path = tmp_path / f"{tag}.json"
    save_labelling(labelling, path)
    return path.read_bytes()


def assert_ground_truth(graph, labelling):
    """Every pairwise query must equal brute-force BFS distance."""
    truth = all_pairs_distances(graph)
    vertices = sorted(graph.vertices())
    for u in vertices:
        for v in vertices:
            expected = truth[u].get(v, INF)
            assert query_distance(graph, labelling, u, v) == expected, (u, v)


class TestConstructionEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_grid_python_byte_identical(self, workers, tmp_path):
        graph = grid_graph(5, 5)
        landmarks = [0, 12, 24]
        serial = build_hcl(graph, landmarks)
        parallel = build_hcl(graph, landmarks, workers=workers)
        assert parallel == serial
        assert canonical_bytes(parallel, tmp_path, "par") == canonical_bytes(
            serial, tmp_path, "ser"
        )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_python_byte_identical(self, workers, seed, tmp_path):
        graph = random_connected_graph(seed)
        landmarks = top_degree_landmarks(graph, 4)
        serial = build_hcl(graph, landmarks)
        parallel = build_hcl(graph, landmarks, workers=workers)
        assert parallel == serial
        assert canonical_bytes(parallel, tmp_path, "par") == canonical_bytes(
            serial, tmp_path, "ser"
        )
        assert_ground_truth(graph, parallel)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_grid_csr_matches_reference(self, workers):
        graph = grid_graph(4, 6)
        landmarks = [0, 23, 10]
        reference = build_hcl(graph, landmarks)
        parallel = build_hcl_fast(graph, landmarks, workers=workers)
        assert parallel == reference
        assert_ground_truth(graph, parallel)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_random_csr_matches_reference(self, workers, tmp_path):
        graph = random_connected_graph(29)
        landmarks = top_degree_landmarks(graph, 3)
        serial = build_hcl_fast(graph, landmarks)
        parallel = build_hcl_fast(graph, landmarks, workers=workers)
        assert parallel == serial
        assert canonical_bytes(parallel, tmp_path, "par") == canonical_bytes(
            serial, tmp_path, "ser"
        )

    def test_workers_zero_resolves_to_all_cpus(self):
        graph = grid_graph(3, 3)
        assert build_hcl(graph, [0, 8], workers=0) == build_hcl(graph, [0, 8])


class TestBatchInsertionEquivalence:
    def run_batch(self, graph, landmarks, batch, workers):
        g = graph.copy()
        labelling = build_hcl(g, landmarks)
        for u, v in batch:
            g.add_edge(u, v)
        apply_edge_insertions_batch(g, labelling, batch, workers=workers)
        return g, labelling

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_grid_batch(self, workers, tmp_path):
        graph = grid_graph(4, 5)
        landmarks = [0, 19]
        batch = [(u, v) for u, v in non_edges(graph) if u + v > 15][:3]
        _, serial = self.run_batch(graph, landmarks, batch, workers=None)
        g, parallel = self.run_batch(graph, landmarks, batch, workers=workers)
        assert parallel == serial
        assert canonical_bytes(parallel, tmp_path, "par") == canonical_bytes(
            serial, tmp_path, "ser"
        )
        assert_ground_truth(g, parallel)
        check_matches_rebuild(g, parallel)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("seed", [5, 17])
    def test_random_batch(self, workers, seed, tmp_path):
        graph = random_connected_graph(seed)
        candidates = non_edges(graph)
        if not candidates:
            pytest.skip("random graph is complete")
        batch = candidates[: min(4, len(candidates))]
        landmarks = top_degree_landmarks(graph, 3)
        _, serial = self.run_batch(graph, landmarks, batch, workers=None)
        g, parallel = self.run_batch(graph, landmarks, batch, workers=workers)
        assert parallel == serial
        assert canonical_bytes(parallel, tmp_path, "par") == canonical_bytes(
            serial, tmp_path, "ser"
        )
        assert_ground_truth(g, parallel)


class TestDecrementalEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_delete_matches_serial_and_ground_truth(self, workers, tmp_path):
        graph = grid_graph(4, 4)
        landmarks = [0, 15]
        # Insert a shortcut then delete it again, both via the oracle paths.
        g_serial = graph.copy()
        serial = build_hcl(g_serial, landmarks)
        g_serial.add_edge(0, 15)
        apply_edge_insertions_batch(g_serial, serial, [(0, 15)])
        g_parallel = g_serial.copy()
        parallel = serial.copy()

        relevant_serial = apply_edge_deletion(g_serial, serial, 0, 15)
        relevant_parallel = apply_edge_deletion(
            g_parallel, parallel, 0, 15, workers=workers
        )
        assert relevant_parallel == relevant_serial
        assert parallel == serial
        assert canonical_bytes(parallel, tmp_path, "par") == canonical_bytes(
            serial, tmp_path, "ser"
        )
        assert_ground_truth(g_parallel, parallel)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_random_delete(self, workers):
        graph = random_connected_graph(23)
        landmarks = top_degree_landmarks(graph, 3)
        edge = non_edges(graph)[0]
        g = graph.copy()
        labelling = build_hcl(g, landmarks)
        g.add_edge(*edge)
        apply_edge_insertions_batch(g, labelling, [edge])
        apply_edge_deletion(g, labelling, *edge, workers=workers)
        check_matches_rebuild(g, labelling)
        assert_ground_truth(g, labelling)


class TestOracleWorkersKnob:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_facade_routes_workers(self, workers):
        from repro.core.dynamic import DynamicHCL

        graph = grid_graph(4, 4)
        oracle = DynamicHCL.build(
            graph.copy(), landmarks=[0, 15], workers=workers
        )
        g_ref = graph.copy()
        reference = build_hcl(g_ref, [0, 15])
        assert oracle.labelling == reference
        assert oracle.workers == workers

        oracle.insert_edges_batch([(0, 15), (3, 12)])
        g_ref.add_edge(0, 15)
        g_ref.add_edge(3, 12)
        apply_edge_insertions_batch(g_ref, reference, [(0, 15), (3, 12)])
        assert oracle.labelling == reference

        oracle.remove_edge(0, 15)
        apply_edge_deletion(g_ref, reference, 0, 15)
        assert oracle.labelling == reference
        check_query_exactness(oracle.graph, oracle.labelling, num_pairs=40)
