"""The column search and the one query kernel, over the replay matrix.

On a snapshot graph ``bidirectional_bfs`` runs its scalar phase over the
columns of the frozen CSR and leaves it for numpy once a frontier
outgrows ``NUMPY_FRONTIER``.  Every matrix cell here runs twice: with
that constant at its default, so these small graphs stay in the column
loop, and patched to 0, so every search runs its numpy phase.  The
reference is a :class:`DynamicGraph` replayed independently from the same
events and searched by the adjacency loop; both must keep the strict contract:
the exact distance iff it is below the bound.  The snapshots come from
mixed insert/delete streams, so the frozen CSR holds live delta lists
(inserts below the compaction threshold) and swap-removed base rows
(deletions).
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


def _frontiers(monkeypatch):
    """Run the loop body with ``NUMPY_FRONTIER`` at 0, then its default."""
    for frontier in (0, traversal.NUMPY_FRONTIER):
        monkeypatch.setattr(traversal, "NUMPY_FRONTIER", frontier)
        yield frontier


def _replay(graph, events) -> None:
    for kind, edge in events:
        (graph.add_edge if kind == "insert" else graph.remove_edge)(*edge)


def _replayed_oracle(family: str, seed: int):
    """An oracle after a mixed stream, the reference graph replayed from
    the same events, and the stream RNG."""
    graph, rng = random_graph(seed, family=family, n_min=12, n_max=40)
    landmarks = top_degree_landmarks(graph, rng.randint(1, 4))
    oracle = DynamicHCL.build(graph.copy(), landmarks=landmarks)
    events = mixed_event_stream(graph.copy(), 24, rng)
    for chunk in random_batches(events, rng, max_batch=6):
        oracle.apply_events_batch(chunk)
    _replay(graph, events)
    return oracle, graph, rng


def _pairs(graph, landmarks, rng, count: int = 40):
    """Sampled pairs, always including landmark endpoints."""
    vertices = sorted(graph.vertices())
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(count)]
    pairs += [(r, rng.choice(vertices)) for r in landmarks]
    return pairs


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_hybrid_equals_scalar_loop(family, seed, monkeypatch):
    oracle, reference, rng = _replayed_oracle(family, seed)
    snap = oracle.snapshot()
    assert sorted(snap.graph.edges()) == sorted(reference.edges())
    skip = snap.landmark_set
    pairs = _pairs(reference, oracle.landmarks, rng)
    for frontier in _frontiers(monkeypatch):
        for u, v in pairs:
            exact = bidirectional_bfs(reference, u, v, skip=skip)
            bounds = {0, 1, exact, exact + 1, INF}
            bounds |= {exact - 1} if exact < INF else set()
            for bound in bounds:
                expected = exact if exact < bound else INF
                scalar = bidirectional_bfs(reference, u, v, bound=bound, skip=skip)
                column = bidirectional_bfs(
                    snap.graph, u, v, bound=bound, skip=skip
                )
                assert column == scalar == expected, (frontier, u, v, bound)


def test_matrix_reaches_delta_lists_swap_removal_and_disconnection():
    """The matrix above is only meaningful if its frozen CSRs carry live
    delta lists and swap-removed base rows, and its pairs include
    disconnected ones; check all three occur."""
    with_delta = with_removal = disconnected = 0
    for family in FAMILIES:
        for seed in SEEDS:
            oracle, reference, rng = _replayed_oracle(family, seed)
            csr = oracle.snapshot().graph.csr
            n = csr.num_vertices
            with_delta += csr.num_delta_edges > 0
            # A swap-removal leaves a row's live length below its width.
            widths = np.diff(csr._indptr[: n + 1])
            with_removal += bool((csr._base_len[:n] < widths).any())
            pairs = _pairs(reference, oracle.landmarks, rng)
            disconnected += INF in oracle.query_many(pairs)
    assert with_delta >= len(FAMILIES)
    assert with_removal >= len(FAMILIES)
    assert disconnected >= 3


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_unsharded_snapshot_equals_reference_kernel(family, seed, monkeypatch):
    """The dense-row kernel answers exactly what the paper's dict kernels
    (label join + sparsified search) answer on the reference graph, after
    every batch."""
    graph, rng = random_graph(seed, family=family, n_min=12, n_max=40)
    landmarks = top_degree_landmarks(graph, rng.randint(1, 4))
    oracle = DynamicHCL.build(graph.copy(), landmarks=landmarks)
    events = mixed_event_stream(graph.copy(), 24, rng)
    for chunk in random_batches(events, rng, max_batch=6):
        oracle.apply_events_batch(chunk)
        _replay(graph, chunk)
        pairs = _pairs(graph, oracle.landmarks, rng, count=20)
        expected = query_distances_many(graph, oracle.labelling, pairs)
        snap = oracle.snapshot()
        for frontier in _frontiers(monkeypatch):
            assert snap.query_many(pairs) == expected, frontier
