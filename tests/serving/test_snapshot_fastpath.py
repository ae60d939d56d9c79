"""Snapshot isolation under fast-path (vectorized) writes.

The fast update engine repairs its dense rows and label mask in place,
scalar and vectorized, and mutates the graph and its CSR overlay — so
these tests pin down that a snapshot captured at epoch ``e`` answers
exactly as the graph stood at ``e``, no matter how many vectorized
updates (or a concurrent writer thread) land after — or *while* — it is
being read.
"""

import random
import threading

import pytest

from repro.core.batch import replay_events
from repro.core.construction import build_hcl
from repro.core.dynamic import DynamicHCL
from repro.graph.traversal import bfs_distances
from repro.landmarks.selection import top_degree_landmarks
from repro.serving.service import OracleService
from repro.workloads.streams import UpdateEvent

from tests.conftest import all_pairs_distances, non_edges, random_connected_graph
from tests.proptest.strategies import insertion_stream


def frozen_answers(snap, pairs):
    return [snap.query(u, v) for u, v in pairs]


class TestSnapshotVsFastWrites:
    def test_snapshot_pinned_across_fast_single_inserts(self):
        graph = random_connected_graph(41, n_min=12, n_max=18)
        oracle = DynamicHCL.build(graph, num_landmarks=3)
        expected = all_pairs_distances(graph)
        vertices = sorted(graph.vertices())
        pairs = [(u, v) for u in vertices[:6] for v in vertices[6:10]]
        snap = oracle.snapshot()
        before = frozen_answers(snap, pairs)
        for edge in non_edges(graph)[:10]:
            oracle.insert_edge(*edge)
        # the pinned snapshot still answers with pre-insertion distances
        assert frozen_answers(snap, pairs) == before
        for (u, v), answer in zip(pairs, before):
            assert answer == expected[u].get(v, float("inf"))
        # while the live oracle reflects the new edges
        fresh = oracle.snapshot()
        assert fresh.epoch > snap.epoch
        live = bfs_distances(oracle.graph, pairs[0][0])
        assert fresh.query(*pairs[0]) == live.get(pairs[0][1], float("inf"))

    def test_snapshot_pinned_across_fast_batch(self):
        graph = random_connected_graph(42, n_min=14, n_max=20)
        oracle = DynamicHCL.build(graph, num_landmarks=4)
        vertices = sorted(graph.vertices())
        pairs = [(vertices[i], vertices[-1 - i]) for i in range(5)]
        snap = oracle.snapshot()
        before = frozen_answers(snap, pairs)
        batch = non_edges(graph)[:12]
        oracle.insert_edges_batch(batch)
        assert frozen_answers(snap, pairs) == before
        # label-store totals on the snapshot stayed at capture time values
        assert snap.label_entries != oracle.label_entries or before == frozen_answers(
            oracle.snapshot(), pairs
        )

    def test_snapshot_between_engine_attach_and_batch(self):
        """Capturing *after* some updates but before a batch: the
        engine's in-place repairs must not reach the pinned copies."""
        graph = random_connected_graph(43, n_min=12, n_max=18)
        oracle = DynamicHCL.build(graph, num_landmarks=3)
        oracle.insert_edge(*non_edges(graph)[0])
        vertices = sorted(graph.vertices())
        pairs = [(vertices[0], v) for v in vertices[1:8]]
        snap = oracle.snapshot()
        before = frozen_answers(snap, pairs)
        oracle.insert_edges_batch(non_edges(oracle.graph)[:8])
        assert frozen_answers(snap, pairs) == before

    def test_multiple_epochs_stay_independent(self):
        graph = random_connected_graph(44, n_min=10, n_max=14)
        oracle = DynamicHCL.build(graph, num_landmarks=2)
        vertices = sorted(graph.vertices())
        pairs = [(vertices[0], v) for v in vertices[1:6]]
        snapshots = [(oracle.snapshot(), frozen_answers(oracle.snapshot(), pairs))]
        for edge in non_edges(graph)[:9]:
            oracle.insert_edge(*edge)
            snap = oracle.snapshot()
            snapshots.append((snap, frozen_answers(snap, pairs)))
        # every historical epoch still answers its own pinned values
        for snap, answers in snapshots:
            assert frozen_answers(snap, pairs) == answers
        epochs = [snap.epoch for snap, _ in snapshots]
        assert epochs == sorted(epochs)


class TestWriterInterleaving:
    def test_mid_batch_snapshot_never_observes_half_applied_state(self):
        """Readers pinning snapshots while the writer applies coalesced
        fast batches must only ever see fully-applied epochs: for the
        snapshot's own graph, labelling answers equal BFS answers."""
        graph = random_connected_graph(45, n_min=16, n_max=24)
        oracle = DynamicHCL.build(graph, num_landmarks=3)
        rng = random.Random(777)
        stream = insertion_stream(graph, 160, rng)
        errors: list[str] = []
        stop = threading.Event()

        def reader():
            check_rng = random.Random(999)
            while not stop.is_set():
                snap = service.snapshot  # pin one epoch
                verts = sorted(snap.graph.vertices())
                for _ in range(4):
                    u, v = check_rng.sample(verts, 2)
                    got = snap.query(u, v)
                    expected = bfs_distances(snap.graph, u).get(v, float("inf"))
                    if got != expected:
                        errors.append(
                            f"epoch {snap.epoch}: query({u},{v})={got} "
                            f"!= BFS {expected}"
                        )
                        stop.set()
                        return

        service = OracleService(oracle, max_batch=32)
        with service:
            threads = [threading.Thread(target=reader) for _ in range(3)]
            for t in threads:
                t.start()
            for u, v in stream:
                service.submit(UpdateEvent("insert", (u, v)))
            service.flush()
            stop.set()
            for t in threads:
                t.join()
        assert not errors, errors[:3]
        assert service.metrics.stats()["batches"] >= 1
        # final state is exact too
        final = oracle.snapshot()
        verts = sorted(graph.vertices())
        u = verts[0]
        ref = bfs_distances(oracle.graph, u)
        for v in verts[1:10]:
            assert final.query(u, v) == ref.get(v, float("inf"))

    def test_fast_and_slow_writer_runs_publish_identical_labellings(self):
        """The served (vectorized) writer run publishes exactly the
        labelling the reference kernels reach on the same stream."""
        graph_fast = random_connected_graph(46, n_min=12, n_max=18)
        graph_slow = graph_fast.copy()
        landmarks = top_degree_landmarks(graph_fast, 3)
        stream = insertion_stream(graph_fast, 40, random.Random(4242))
        events = [UpdateEvent("insert", e) for e in stream]

        oracle_fast = DynamicHCL.build(graph_fast, landmarks=landmarks)
        with OracleService(oracle_fast) as service:
            service.submit_many(events)
            service.flush()
        labelling_slow = build_hcl(graph_slow, landmarks)
        replay_events(graph_slow, labelling_slow, events)
        assert oracle_fast.labelling == labelling_slow
        assert service.snapshot.epoch == len(events)
