"""Cluster semantics for delete events and mixed insert/delete batches.

The fully-dynamic engine lifted the serving layer's insert-only batch
restriction, so the cluster path — WAL records, router fan-out, replica
apply, checkpoint + compaction — must now carry deletions with the same
byte-identical convergence contract:

* WAL round-trips delete and churn (delete → re-insert) record runs;
* a replica that crashes mid-mixed-batch and restarts from checkpoint +
  WAL replay ends byte-identical to the sequential one-at-a-time replay;
* compaction may checkpoint *between* a delete and its re-insert: the
  checkpointed state lacks the edge, the replayed suffix restores it.
"""

from __future__ import annotations

import random

from repro.cluster import (
    ClusterRouter,
    ReplicaSpec,
    UpdateLog,
    build_replica,
    scan_wal,
    write_checkpoint,
)
from repro.core.dynamic import DynamicHCL
from repro.graph.generators import ring_of_cliques
from repro.serving.client import ServingClient
from repro.utils.serialization import save_labelling
from repro.workloads.streams import UpdateEvent

from tests.cluster.conftest import make_replica


def labelling_bytes(labelling, tmp_path, name: str) -> bytes:
    path = tmp_path / f"{name}.labels.json"
    save_labelling(labelling, path)
    return path.read_bytes()


def sequential_replay(graph, landmarks, events) -> DynamicHCL:
    oracle = DynamicHCL.build(graph.copy(), landmarks=list(landmarks))
    for event in events:
        u, v = event.edge
        if event.is_insert:
            oracle.insert_edge(u, v)
        else:
            oracle.remove_edge(u, v)
    return oracle


def churn_events(graph, count: int, seed: int) -> list[UpdateEvent]:
    """Delete-heavy event stream with explicit delete → re-insert pairs,
    sequentially valid against the evolving graph."""
    rng = random.Random(seed)
    sim = graph.copy()
    vertices = sorted(sim.vertices())
    events: list[UpdateEvent] = []
    removed: list[tuple[int, int]] = []
    while len(events) < count:
        roll = rng.random()
        if roll < 0.25 and removed:
            u, v = removed.pop(rng.randrange(len(removed)))
            if sim.has_edge(u, v):
                continue
            sim.add_edge(u, v)
            events.append(UpdateEvent("insert", (u, v)))
        elif roll < 0.6 and sim.num_edges > sim.num_vertices // 2:
            u, v = rng.choice(sorted(sim.edges()))
            sim.remove_edge(u, v)
            removed.append((u, v))
            events.append(UpdateEvent("delete", (u, v)))
        else:
            u, v = rng.sample(vertices, 2)
            if sim.has_edge(u, v):
                continue
            sim.add_edge(u, v)
            events.append(UpdateEvent("insert", (u, v)))
    return events


def test_wal_roundtrips_mixed_churn_records(tmp_path):
    """Delete and re-insert records survive the disk round-trip in order,
    across segment rotations."""
    graph = ring_of_cliques(4, 4)
    events = churn_events(graph, 20, seed=3)
    wal = tmp_path / "wal"
    log = UpdateLog(wal, segment_records=6)
    log.append_events([(e.kind, *e.edge) for e in events])
    log.close()
    records = scan_wal(wal)
    assert [r.seq for r in records] == list(range(1, len(events) + 1))
    assert [(r.event.kind, r.event.edge) for r in records] == [
        (e.kind, e.edge) for e in events
    ]
    # The stream really exercised churn: some edge was deleted and later
    # re-inserted at a higher seq.
    deleted_at = {}
    churned = 0
    for i, e in enumerate(events):
        key = tuple(sorted(e.edge))
        if not e.is_insert:
            deleted_at[key] = i
        elif key in deleted_at:
            churned += 1
    assert churned > 0


def test_replica_applies_mixed_batch_as_one_coalesced_run(small_oracle):
    """Fan-out of a batch with deletes mid-run must coalesce on the
    replica (one mixed apply, no per-event slow path) and still land on
    the sequential labelling."""
    server = make_replica(small_oracle, "r0")
    router = ClusterRouter(UpdateLog(), port=0)
    host, port = router.start_in_thread()
    events = [
        ("insert", 0, 15),
        ("delete", 5, 6),
        ("insert", 1, 14),
        ("delete", 1, 14),   # churn: delete the run's own insert
        ("insert", 2, 13),
    ]
    try:
        router.add_replica_from_thread("r0", *server.address)
        with ServingClient(host, port) as client:
            client.updates(events)
            assert client.snapshot()["ok"]
    finally:
        router.stop_thread()
        server.stop_thread()
    reference = sequential_replay(
        small_oracle.graph, small_oracle.landmarks,
        [UpdateEvent(k, (u, v)) for k, u, v in events],
    )
    assert server.service.oracle.labelling == reference.labelling
    assert server.service.metrics.batches >= 1


def test_crash_mid_mixed_batch_then_restart_converges(tmp_path):
    """The crash/restart contract under a delete-heavy churn stream: the
    restarted replica replays delete and re-insert records from the WAL
    and ends byte-identical to the sequential replay."""
    graph = ring_of_cliques(6, 5)
    landmarks = [0, 5, 10]
    events = churn_events(graph, 36, seed=17)
    oracle = DynamicHCL.build(graph.copy(), landmarks=landmarks)
    checkpoint = tmp_path / "checkpoint.json.gz"
    write_checkpoint(oracle, checkpoint, log_seq=0)

    wal_dir = tmp_path / "wal"
    log = UpdateLog(wal_dir)
    survivor = make_replica(oracle, "steady")
    victim = make_replica(oracle, "crashy")
    router = ClusterRouter(log, port=0)
    host, port = router.start_in_thread()
    restarted = None
    try:
        router.add_replica_from_thread("steady", *survivor.address)
        router.add_replica_from_thread("crashy", *victim.address)
        half = len(events) // 2
        with ServingClient(host, port) as client:
            # Bursts sized so every chunk mixes inserts and deletes.
            for base in range(0, half, 6):
                chunk = events[base : base + 6]
                client.updates([(e.kind, *e.edge) for e in chunk])
            assert client.snapshot()["ok"]
            victim.stop_thread()  # crash mid-stream, state discarded
            for base in range(half, len(events), 6):
                chunk = events[base : base + 6]
                client.updates([(e.kind, *e.edge) for e in chunk])
            restarted = build_replica(
                ReplicaSpec(name="crashy", checkpoint_path=str(checkpoint),
                            wal_dir=str(wal_dir))
            )
            restarted.start_in_thread()
            router.set_replica_address_from_thread("crashy", *restarted.address)
            drained = client.snapshot()
            assert drained["ok"]
            assert drained["replicas"]["crashy"] == len(events)
    finally:
        router.stop_thread()
        survivor.stop_thread()
        if restarted is not None:
            restarted.stop_thread()

    reference = sequential_replay(graph, landmarks, events)
    expected = labelling_bytes(reference.labelling, tmp_path, "sequential")
    assert labelling_bytes(
        restarted.service.oracle.labelling, tmp_path, "restarted"
    ) == expected
    assert labelling_bytes(
        survivor.service.oracle.labelling, tmp_path, "survivor"
    ) == expected


def test_compaction_checkpoint_between_delete_and_reinsert(tmp_path):
    """Compaction may land a checkpoint in the window where an edge is
    deleted but not yet re-inserted: the checkpointed oracle must lack
    the edge, the WAL suffix must restore it, and the rebooted replica
    must match the sequential replay byte for byte."""
    graph = ring_of_cliques(4, 4)
    landmarks = [0, 4]
    edge = sorted(graph.edges())[0]
    u, v = edge
    events = [
        UpdateEvent("insert", (0, 8)),
        UpdateEvent("delete", (u, v)),      # seq 2: edge leaves
        UpdateEvent("insert", (1, 9)),      # seq 3 <-- checkpoint here
        UpdateEvent("insert", (u, v)),      # seq 4: edge returns
        UpdateEvent("delete", (0, 8)),
    ]
    wal_dir = tmp_path / "wal"
    log = UpdateLog(wal_dir, segment_records=1)  # one record per segment
    log.append_events([(e.kind, *e.edge) for e in events])

    # State at seq 3, produced through the replica apply path.
    mid = DynamicHCL.build(graph.copy(), landmarks=landmarks)
    from repro.serving.service import OracleService

    with OracleService(mid) as service:
        service.submit_many(events[:3])
        service.flush()
    assert not mid.graph.has_edge(u, v)  # inside the delete/re-insert window
    checkpoint = tmp_path / "mid.json.gz"
    write_checkpoint(mid, checkpoint, log_seq=3)
    dropped = log.compact(3)
    assert dropped == 3  # the delete record itself is compacted away
    log.close()

    replica = build_replica(
        ReplicaSpec(name="r", checkpoint_path=str(checkpoint),
                    wal_dir=str(wal_dir))
    )
    replica.service.stop()
    assert replica.applied_seq == len(events)
    assert replica.service.oracle.graph.has_edge(u, v)  # re-insert replayed
    assert not replica.service.oracle.graph.has_edge(0, 8)

    reference = sequential_replay(graph, landmarks, events)
    assert labelling_bytes(
        replica.service.oracle.labelling, tmp_path, "replica"
    ) == labelling_bytes(reference.labelling, tmp_path, "sequential")
