"""Snapshot isolation: frozen views never observe later writer activity.

The copy-on-write contract under test (docs/DESIGN.md §7): capturing a
snapshot is a pointer-level copy, every class of subsequent mutation
(IncHL+ insert, batch insert, DecHL partial delete, coarse rebuild
delete, vertex ops, landmark resizing) copies shared rows before touching
them, and a pinned snapshot keeps answering *exactly* as a deep copy of
the oracle at capture time would.
"""

from __future__ import annotations

import pytest

from repro.core.dechl import apply_edge_deletion_partial
from repro.core.decremental import apply_edge_deletion
from repro.core.dynamic import DynamicHCL
from repro.graph.generators import grid_graph
from repro.serving.snapshot import OracleSnapshot
from tests.conftest import all_pairs_distances, random_connected_graph

INF = float("inf")


def _build(seed: int = 1, num_landmarks: int = 3) -> DynamicHCL:
    graph = random_connected_graph(seed)
    k = min(num_landmarks, graph.num_vertices)
    return DynamicHCL.build(graph, num_landmarks=k)


def _assert_matches_reference(snap, reference_graph) -> None:
    """Every pair on the snapshot must equal BFS on the reference graph."""
    table = all_pairs_distances(reference_graph)
    for u in reference_graph.vertices():
        for v in reference_graph.vertices():
            assert snap.query(u, v) == table[u].get(v, INF), (u, v)


def test_snapshot_answers_equal_live_oracle():
    oracle = _build(seed=7)
    snap = oracle.snapshot()
    _assert_matches_reference(snap, oracle.graph)


def test_snapshot_epoch_tracks_version():
    oracle = _build(seed=8)
    assert oracle.version == 0
    snap0 = oracle.snapshot()
    assert snap0.epoch == 0
    edges = _non_edges(oracle.graph)
    oracle.insert_edge(*edges[0])
    assert oracle.version == 1
    assert oracle.snapshot().epoch == 1
    assert snap0.epoch == 0  # pinned


def test_snapshot_is_cached_between_updates():
    oracle = _build(seed=9)
    assert oracle.snapshot() is oracle.snapshot()
    oracle.insert_edge(*_non_edges(oracle.graph)[0])
    assert oracle.snapshot() is not None
    assert oracle.snapshot() is oracle.snapshot()


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_snapshot_pinned_across_single_insertions(seed):
    oracle = _build(seed=seed)
    frozen_copy = oracle.graph.copy()  # reference for the pinned epoch
    snap = oracle.snapshot()
    for u, v in _non_edges(oracle.graph)[:4]:
        oracle.insert_edge(u, v)
    _assert_matches_reference(snap, frozen_copy)
    _assert_matches_reference(oracle.snapshot(), oracle.graph)


def test_snapshot_pinned_across_batch_insert():
    oracle = _build(seed=13)
    frozen_copy = oracle.graph.copy()
    snap = oracle.snapshot()
    oracle.insert_edges_batch(_non_edges(oracle.graph)[:5])
    _assert_matches_reference(snap, frozen_copy)
    _assert_matches_reference(oracle.snapshot(), oracle.graph)


_DELETION_KERNELS = {
    "partial": apply_edge_deletion_partial,
    "rebuild": apply_edge_deletion,
}


@pytest.mark.parametrize("strategy", ["partial", "rebuild"])
def test_snapshot_pinned_across_deletion(strategy):
    """The oracle's own deletion, then the named deletion kernel (DecHL
    or the coarse rebuild) run directly on the oracle's labelling."""
    oracle = _build(seed=17)
    frozen_copy = oracle.graph.copy()
    snap = oracle.snapshot()
    edges = iter(sorted(oracle.graph.edges()))
    oracle.remove_edge(*next(edges))
    _assert_matches_reference(snap, frozen_copy)
    mid_copy = oracle.graph.copy()
    mid = oracle.snapshot()
    _assert_matches_reference(mid, mid_copy)
    _DELETION_KERNELS[strategy](oracle.graph, oracle.labelling, *next(edges))
    _assert_matches_reference(snap, frozen_copy)
    _assert_matches_reference(mid, mid_copy)
    # The kernel bypassed the oracle's epoch, so capture afresh.
    _assert_matches_reference(OracleSnapshot.capture(oracle), oracle.graph)


def test_snapshot_pinned_across_vertex_insertion():
    oracle = _build(seed=19)
    frozen_copy = oracle.graph.copy()
    snap = oracle.snapshot()
    fresh = oracle.graph.max_vertex_id() + 1
    oracle.insert_vertex(fresh, list(oracle.graph.vertices())[:2])
    assert not snap.graph.has_vertex(fresh)
    _assert_matches_reference(snap, frozen_copy)
    assert oracle.snapshot().query(fresh, next(iter(frozen_copy.vertices()))) < INF


def test_snapshot_pinned_across_landmark_resizing():
    oracle = _build(seed=23, num_landmarks=2)
    frozen_copy = oracle.graph.copy()
    snap = oracle.snapshot()
    landmarks_before = list(snap.labelling.landmarks)
    promoted = next(
        v for v in oracle.graph.vertices() if v not in oracle.labelling.landmark_set
    )
    oracle.add_landmark(promoted)
    oracle.remove_landmark(oracle.landmarks[0])
    assert snap.labelling.landmarks == landmarks_before
    _assert_matches_reference(snap, frozen_copy)
    _assert_matches_reference(oracle.snapshot(), oracle.graph)


def test_chained_snapshots_each_pin_their_epoch():
    oracle = _build(seed=31)
    references = [(oracle.snapshot(), oracle.graph.copy())]
    for u, v in _non_edges(oracle.graph)[:3]:
        oracle.insert_edge(u, v)
        references.append((oracle.snapshot(), oracle.graph.copy()))
    # Oldest to newest: every snapshot still answers for its own epoch.
    for snap, reference in references:
        _assert_matches_reference(snap, reference)
    epochs = [snap.epoch for snap, _ in references]
    assert epochs == sorted(set(epochs))


def test_snapshot_metadata_and_capture():
    oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[0, 8])
    snap = OracleSnapshot.capture(oracle)
    assert snap.num_vertices == 9
    assert snap.num_edges == oracle.graph.num_edges
    assert snap.label_entries == oracle.label_entries
    assert snap.labelling.landmark_set == frozenset([0, 8])
    assert sorted(snap.graph.vertices()) == sorted(oracle.graph.vertices())
    assert sorted(snap.graph.edges()) == sorted(oracle.graph.edges())


def test_snapshot_query_many_and_path_are_pinned():
    oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
    snap = oracle.snapshot()
    oracle.insert_edge(0, 8)
    assert snap.query_many([(0, 8), (0, 4), (8, 8)]) == [4, 2, 0]
    path = snap.shortest_path(0, 8)
    assert len(path) - 1 == 4
    assert oracle.snapshot().shortest_path(0, 8) == [0, 8]


def _non_edges(graph) -> list[tuple[int, int]]:
    from tests.conftest import non_edges

    return non_edges(graph)
