"""Snapshot isolation: frozen views never observe later writer activity.

The contract under test (docs/DESIGN.md §7): capturing a snapshot copies
the dense rows and label mask and freezes the graph copy-on-write, every
class of subsequent mutation (IncHL+ insert, batch insert, deletion,
vertex ops, landmark resizing) leaves the pinned arrays and graph rows
alone, and a pinned snapshot keeps answering *exactly* as a deep copy of
the oracle at capture time would.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

import repro.graph.traversal as traversal
from repro.core.dechl import apply_edge_deletion_partial
from repro.core.decremental import apply_edge_deletion
from repro.core.dynamic import DynamicHCL
from repro.graph.generators import barabasi_albert, grid_graph
from repro.serving.snapshot import OracleSnapshot
from repro.utils.serialization import save_oracle
from tests.conftest import all_pairs_distances, random_connected_graph, reference_bfs
from tests.proptest.strategies import mixed_event_stream

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
    """The oracle's own deletions leave pinned snapshots alone, and the
    named deletion kernel (DecHL or the coarse rebuild), run on a copy
    of the graph and labelling, reaches the oracle's labelling."""
    oracle = _build(seed=17)
    frozen_copy = oracle.graph.copy()
    snap = oracle.snapshot()
    edges = iter(sorted(oracle.graph.edges()))
    oracle.remove_edge(*next(edges))
    _assert_matches_reference(snap, frozen_copy)
    mid_copy = oracle.graph.copy()
    mid = oracle.snapshot()
    _assert_matches_reference(mid, mid_copy)
    edge = next(edges)
    graph, labelling = oracle.graph.copy(), oracle.labelling
    _DELETION_KERNELS[strategy](graph, labelling, *edge)
    oracle.remove_edge(*edge)
    assert oracle.labelling == labelling
    _assert_matches_reference(snap, frozen_copy)
    _assert_matches_reference(mid, mid_copy)
    _assert_matches_reference(OracleSnapshot.capture(oracle), oracle.graph)


def test_snapshot_pinned_across_vertex_insertion():
    oracle = _build(seed=19)
    frozen_copy = oracle.graph.copy()
    snap = oracle.snapshot()
    fresh = max(oracle.graph.vertices()) + 1
    oracle.insert_vertex(fresh, list(oracle.graph.vertices())[:2])
    assert not snap.graph.has_vertex(fresh)
    _assert_matches_reference(snap, frozen_copy)
    assert oracle.snapshot().query(fresh, next(iter(frozen_copy.vertices()))) < INF


def test_snapshot_pinned_across_landmark_resizing():
    oracle = _build(seed=23, num_landmarks=2)
    frozen_copy = oracle.graph.copy()
    snap = oracle.snapshot()
    landmarks_before = list(snap.landmarks)
    promoted = next(
        v for v in oracle.graph.vertices() if v not in set(oracle.landmarks)
    )
    oracle.add_landmark(promoted)
    oracle.remove_landmark(oracle.landmarks[0])
    assert snap.landmarks == landmarks_before
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
    assert snap.landmarks == [0, 8]
    assert snap.landmark_set == frozenset([0, 8])
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


def _csr_rows(csr) -> list[list[int]]:
    return [
        sorted(csr.neighbors_compact(i).tolist())
        for i in range(csr.num_vertices)
    ]


def test_later_batches_leave_pinned_rows_and_csr_unchanged(tmp_path):
    """Copy-on-write of the frozen CSR and the dense-row and mask copies:
    inserts into live delta lists, swap-removals from base rows, delta
    removals and a compaction after capture must not reach the pinned
    state, which still saves to the bytes of the oracle at that epoch."""
    oracle = DynamicHCL.build(random_connected_graph(41, 30, 40), num_landmarks=3)
    missing = _non_edges(oracle.graph)
    oracle.insert_edges_batch(missing[:6])  # live delta lists at capture
    snap = oracle.snapshot()
    dist, index_of = snap.shard_rows
    pinned_dist = dist.copy()
    pinned_entry = snap.entry.copy()
    pinned_entries = snap.label_entries
    pinned_rows = _csr_rows(snap.graph.csr)
    save_oracle(oracle, tmp_path / "epoch.bin")
    base_edges = [e for e in oracle.graph.edges() if e not in missing[:6]]
    oracle.apply_events_batch(
        [("insert", e) for e in missing[6:12]]
        + [("delete", e) for e in base_edges[:4] + missing[:2]]
    )
    oracle.insert_edges_batch(_non_edges(oracle.graph)[:300])  # compacts
    assert oracle.snapshot().graph.csr.num_delta_edges == 0
    assert (snap.shard_rows[0] == pinned_dist).all()
    assert _csr_rows(snap.graph.csr) == pinned_rows
    assert (snap.entry == pinned_entry).all()
    assert snap.label_entries == pinned_entries != oracle.label_entries
    save_oracle(snap, tmp_path / "snap.bin")
    assert (tmp_path / "snap.bin").read_bytes() == (
        tmp_path / "epoch.bin"
    ).read_bytes()


def test_concurrent_readers_share_a_snapshot_exactly(monkeypatch):
    """Several readers answer on one pinned snapshot while the writer
    applies batches; each search's visited state lives in per-thread
    stamp buffers, so every answer stays BFS-exact."""
    monkeypatch.setattr(traversal, "NUMPY_FRONTIER", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the readers' numpy phases
    try:
        oracle = DynamicHCL.build(barabasi_albert(300, 2, rng=5), num_landmarks=4)
        reference = oracle.graph.copy()
        snap = oracle.snapshot()
        rng = random.Random(7)
        vertices = sorted(reference.vertices())
        pairs = [tuple(rng.sample(vertices, 2)) for _ in range(60)]
        expected = [reference_bfs(reference, u).get(v, INF) for u, v in pairs]
        wrong: list = []

        def read() -> None:
            for _ in range(5):
                answers = snap.query_many(pairs)
                wrong.extend(p for p, a, e in zip(pairs, answers, expected) if a != e)

        readers = [threading.Thread(target=read) for _ in range(4)]
        for thread in readers:
            thread.start()
        events = mixed_event_stream(oracle.graph.copy(), 120, rng)
        for start in range(0, len(events), 8):
            oracle.apply_events_batch(events[start : start + 8])
        for thread in readers:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not wrong
    finally:
        sys.setswitchinterval(interval)


def _count_row_builds(monkeypatch) -> dict[str, int]:
    """Count full builds and derivations of sparsified rows."""
    from repro.graph.dyncsr import DynCSR, SparsifiedRows

    counts = {"build": 0, "derive": 0}
    for cls, name in ((DynCSR, "sparsified"), (SparsifiedRows, "derive")):
        method = getattr(cls, name)

        def counted(*args, _method=method, _kind=name, **kwargs):
            counts["build" if _kind == "sparsified" else "derive"] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return counts


def test_write_only_stream_builds_no_sparsified_rows(monkeypatch):
    """Publishing without reads never builds or derives search rows."""
    counts = _count_row_builds(monkeypatch)
    oracle = DynamicHCL.build(barabasi_albert(200, 2, rng=3), num_landmarks=4)
    rng = random.Random(5)
    events = mixed_event_stream(oracle.graph.copy(), 60, rng)
    for start in range(0, len(events), 6):
        oracle.apply_events_batch(events[start : start + 6])
        oracle.snapshot()
    assert counts == {"build": 0, "derive": 0}


def test_reads_between_publishes_build_once_then_derive(monkeypatch):
    """With a read after every publish, the first snapshot's rows are
    built in full and every later snapshot derives its own at capture."""
    counts = _count_row_builds(monkeypatch)
    oracle = DynamicHCL.build(barabasi_albert(200, 2, rng=3), num_landmarks=4)
    reference = oracle.graph.copy()
    rng = random.Random(5)
    vertices = sorted(reference.vertices())
    events = mixed_event_stream(reference.copy(), 60, rng)
    oracle.query(*rng.sample(vertices, 2))
    publishes = 0
    for start in range(0, len(events), 6):
        batch = events[start : start + 6]
        oracle.apply_events_batch(batch)
        for kind, edge in batch:
            (reference.add_edge if kind == "insert" else reference.remove_edge)(*edge)
        publishes += 1
        u, v = rng.sample(vertices, 2)
        assert oracle.query(u, v) == reference_bfs(reference, u).get(v, INF)
    assert counts == {"build": 1, "derive": publishes}


def test_snapshot_search_takes_only_its_landmark_set():
    """A snapshot graph searches ``G[V \\ R]`` for its own landmark set
    (equal sets too); any other ``skip`` raises a structured error, and
    a detached copy searches with any."""
    from repro.exceptions import SkipSetError
    from repro.graph.traversal import bidirectional_bfs

    oracle = DynamicHCL.build(grid_graph(4, 4), landmarks=[5, 10])
    snap = oracle.snapshot()
    graph = snap.graph
    equal = set(snap.landmark_set)
    assert bidirectional_bfs(graph, 0, 15, skip=equal) == 6
    for skip in (frozenset(), {5}, {5, 10, 6}):
        with pytest.raises(SkipSetError) as caught:
            bidirectional_bfs(graph, 0, 15, skip=skip)
        assert caught.value.skip == skip
        assert caught.value.landmarks == snap.landmark_set
    assert bidirectional_bfs(graph.copy(), 0, 15, skip={5, 6, 9, 10}) == 6


def test_readers_on_published_snapshots_while_captures_derive(monkeypatch):
    """Readers search the latest published snapshot while the writer
    keeps capturing: each capture derives its rows into the buffer the
    readers' snapshots share, past the end of their rows, so every answer
    stays BFS-exact for the snapshot it was read from."""
    monkeypatch.setattr(traversal, "NUMPY_FRONTIER", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        oracle = DynamicHCL.build(barabasi_albert(300, 2, rng=5), num_landmarks=4)
        reference = oracle.graph.copy()
        rng = random.Random(11)
        vertices = sorted(reference.vertices())
        pairs = [tuple(rng.sample(vertices, 2)) for _ in range(20)]

        def expected_answers():
            return [reference_bfs(reference, u).get(v, INF) for u, v in pairs]

        published = [(oracle.snapshot(), expected_answers())]
        oracle.snapshot().query_many(pairs)  # the one full build
        done = threading.Event()
        wrong: list = []

        def read() -> None:
            while not done.is_set():
                snap, expected = published[-1]
                answers = snap.query_many(pairs)
                wrong.extend(
                    (snap.epoch, p) for p, a, e in zip(pairs, answers, expected)
                    if a != e
                )

        readers = [threading.Thread(target=read) for _ in range(4)]
        for thread in readers:
            thread.start()
        events = mixed_event_stream(reference.copy(), 120, rng)
        for start in range(0, len(events), 8):
            batch = events[start : start + 8]
            oracle.apply_events_batch(batch)
            for kind, edge in batch:
                (reference.add_edge if kind == "insert" else reference.remove_edge)(*edge)
            published.append((oracle.snapshot(), expected_answers()))
        done.set()
        for thread in readers:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not wrong
        assert all(snap.graph._sparsified is not None for snap, _ in published)
    finally:
        sys.setswitchinterval(interval)
