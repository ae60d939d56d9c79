"""The hybrid bounded BFS and the one query kernel, over the replay matrix.

``bidirectional_bfs`` leaves its scalar dict loop for numpy over a frozen
CSR once a frontier outgrows ``NUMPY_FRONTIER``.  Here that constant is
patched to 0, so every search on a snapshot graph runs its numpy phase,
and each answer must equal the scalar loop's on the same epoch (the live
:class:`DynamicGraph` carries no CSR, so it always stays scalar).  Both
must keep the strict contract: the exact distance iff it is below the
bound.  The snapshots come from mixed insert/delete streams, so the
frozen CSR holds live delta lists (inserts below the compaction
threshold) and swap-removed base rows (deletions).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.graph.traversal as traversal
from repro.core.dynamic import DynamicHCL
from repro.core.query import query_distances_many
from repro.graph.traversal import INF, bidirectional_bfs
from repro.landmarks.selection import top_degree_landmarks

from tests.proptest.strategies import (
    GRAPH_FAMILIES,
    mixed_event_stream,
    random_batches,
    random_graph,
)

FAMILIES = sorted(GRAPH_FAMILIES)
SEEDS = [101, 202]


@pytest.fixture
def numpy_everywhere(monkeypatch):
    monkeypatch.setattr(traversal, "NUMPY_FRONTIER", 0)


def _replayed_oracle(family: str, seed: int):
    """An oracle after a mixed stream, plus the stream RNG."""
    graph, rng = random_graph(seed, family=family, n_min=12, n_max=40)
    landmarks = top_degree_landmarks(graph, rng.randint(1, 4))
    oracle = DynamicHCL.build(graph, landmarks=landmarks)
    events = mixed_event_stream(graph.copy(), 24, rng)
    for chunk in random_batches(events, rng, max_batch=6):
        oracle.apply_events_batch(chunk)
    return oracle, events, rng


def _pairs(oracle, rng, count: int = 40):
    """Sampled pairs, always including landmark endpoints."""
    vertices = sorted(oracle.graph.vertices())
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(count)]
    pairs += [(r, rng.choice(vertices)) for r in oracle.landmarks]
    return pairs


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_hybrid_equals_scalar_loop(family, seed, numpy_everywhere):
    oracle, events, rng = _replayed_oracle(family, seed)
    snap = oracle.snapshot()
    skip = snap.landmark_set
    for u, v in _pairs(oracle, rng):
        exact = bidirectional_bfs(oracle.graph, u, v, skip=skip)
        bounds = {0, 1, exact, exact + 1, INF}
        bounds |= {exact - 1} if exact < INF else set()
        for bound in bounds:
            expected = exact if exact < bound else INF
            scalar = bidirectional_bfs(oracle.graph, u, v, bound=bound, skip=skip)
            hybrid = bidirectional_bfs(snap.graph, u, v, bound=bound, skip=skip)
            assert hybrid == scalar == expected, (u, v, bound)


def test_matrix_reaches_delta_lists_swap_removal_and_disconnection():
    """The matrix above is only meaningful if its frozen CSRs carry live
    delta lists and swap-removed base rows, and its pairs include
    disconnected ones; check all three occur."""
    with_delta = with_removal = disconnected = 0
    for family in FAMILIES:
        for seed in SEEDS:
            oracle, _, rng = _replayed_oracle(family, seed)
            csr = oracle.snapshot().graph.csr
            n = csr.num_vertices
            with_delta += csr.num_delta_edges > 0
            # A swap-removal leaves a row's live length below its width.
            widths = np.diff(csr._indptr[: n + 1])
            with_removal += bool((csr._base_len[:n] < widths).any())
            disconnected += INF in oracle.query_many(_pairs(oracle, rng))
    assert with_delta >= len(FAMILIES)
    assert with_removal >= len(FAMILIES)
    assert disconnected >= 3


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_unsharded_snapshot_equals_reference_kernel(family, seed, numpy_everywhere):
    """The dense-row kernel answers exactly what the paper's dict kernels
    (label join + sparsified search) answer, after every batch."""
    graph, rng = random_graph(seed, family=family, n_min=12, n_max=40)
    landmarks = top_degree_landmarks(graph, rng.randint(1, 4))
    oracle = DynamicHCL.build(graph, landmarks=landmarks)
    events = mixed_event_stream(graph.copy(), 24, rng)
    for chunk in random_batches(events, rng, max_batch=6):
        oracle.apply_events_batch(chunk)
        pairs = _pairs(oracle, rng, count=20)
        assert oracle.snapshot().query_many(pairs) == query_distances_many(
            oracle.graph, oracle.labelling, pairs
        )
