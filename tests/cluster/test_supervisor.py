"""ClusterSupervisor: real spawned replica processes, crash recovery.

These are the only cluster tests paying a ``multiprocessing`` spawn —
everything protocol-level is covered in-process elsewhere.
"""

from __future__ import annotations

from time import perf_counter, sleep

import pytest

from repro.cluster import ClusterSupervisor
from repro.core.dynamic import DynamicHCL
from repro.exceptions import ClusterError
from repro.graph.generators import grid_graph
from repro.serving.client import ServingClient
from repro.utils.serialization import save_oracle


@pytest.fixture(scope="module")
def oracle_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster") / "oracle.json.gz"
    oracle = DynamicHCL.build(grid_graph(4, 4), landmarks=[0, 15])
    save_oracle(oracle, path)
    return path


def _wait_until(predicate, timeout=15.0, interval=0.1):
    deadline = perf_counter() + timeout
    while perf_counter() < deadline:
        if predicate():
            return True
        sleep(interval)
    return False


def test_cluster_end_to_end_with_crash_recovery(oracle_file, tmp_path):
    supervisor = ClusterSupervisor(
        oracle_file,
        cluster_dir=tmp_path / "cluster",
        replicas=2,
        port=0,
        compact_every=None,
        health_interval=0.2,
    )
    host, port = supervisor.start_in_thread()
    try:
        with ServingClient(host, port) as client:
            assert client.ping()
            assert client.query(0, 15) == 6

            response = client.updates([("insert", 0, 15), ("insert", 1, 14)])
            assert response["ok"] and response["epoch"] == 2
            assert client.query(0, 15, min_epoch=2) == 1
            assert client.snapshot()["replicas"] == {"r0": 2, "r1": 2}

            # Hard-kill one replica (SIGKILL: no drain, state gone).
            victim = supervisor.worker("r0")
            victim.process.kill()
            assert _wait_until(lambda: supervisor.worker("r0").restarts == 1)
            assert _wait_until(
                lambda: client.stats()["replicas"]["r0"]["healthy"]
            )
            # The restarted process warm-started from the seed oracle and
            # replayed the WAL: it must serve the pre-crash writes.
            after = client.update("insert", 2, 13)
            assert client.query(2, 13, min_epoch=after["epoch"]) == 1
            drained = client.snapshot()
            assert drained["ok"] and drained["replicas"]["r0"] == 3
    finally:
        supervisor.stop_thread()
    # Clean shutdown: SIGTERM drained both replicas to exit code 0.
    for name, worker in supervisor.workers_by_name.items():
        assert worker.exitcode == 0, (name, worker.exitcode)


def test_wal_survives_full_cluster_restart(oracle_file, tmp_path):
    cluster_dir = tmp_path / "cluster"
    supervisor = ClusterSupervisor(
        oracle_file, cluster_dir=cluster_dir, replicas=1, port=0,
        compact_every=None, fsync="always",
    )
    host, port = supervisor.start_in_thread()
    try:
        with ServingClient(host, port) as client:
            client.updates([("insert", 0, 15), ("insert", 1, 14)])
            assert client.snapshot()["ok"]
    finally:
        supervisor.stop_thread()

    # A brand-new supervisor over the same directory replays the WAL.
    reborn = ClusterSupervisor(
        oracle_file, cluster_dir=cluster_dir, replicas=1, port=0,
        compact_every=None,
    )
    host, port = reborn.start_in_thread()
    try:
        with ServingClient(host, port) as client:
            stats = client.stats()
            assert stats["log_head"] == 2
            assert client.query(0, 15, min_epoch=2) == 1
            # And the log keeps extending where it left off.
            response = client.update("delete", 0, 15)
            assert response["epoch"] == 3
            assert client.query(0, 15, min_epoch=3) == 3  # via 1-14 shortcut
    finally:
        reborn.stop_thread()


def test_compaction_writes_checkpoint_and_trims_wal(oracle_file, tmp_path):
    cluster_dir = tmp_path / "cluster"
    supervisor = ClusterSupervisor(
        oracle_file, cluster_dir=cluster_dir, replicas=1, port=0,
        compact_every=4, health_interval=0.2,
        router_kwargs={"fanout_batch": 4},
    )
    host, port = supervisor.start_in_thread()
    try:
        with ServingClient(host, port) as client:
            events = [("insert", 0, 15), ("insert", 1, 14), ("insert", 2, 13),
                      ("insert", 3, 12), ("insert", 0, 10), ("insert", 5, 15)]
            client.updates(events)
            assert client.snapshot()["ok"]
            assert _wait_until(lambda: (cluster_dir / "checkpoint.json.gz").exists())
            assert _wait_until(
                lambda: client.stats()["log_base"] >= 4, timeout=10.0
            )
    finally:
        supervisor.stop_thread()

    from repro.cluster import restore_checkpoint

    restored, seq = restore_checkpoint(cluster_dir / "checkpoint.json.gz")
    assert seq >= 4
    assert restored.query(0, 15) == 1


def test_boot_failure_exits_nonzero(tmp_path):
    """A replica that cannot boot must exit 1 (a Process discards its
    target's return value — the SystemExit wrapper carries the code)."""
    import multiprocessing

    from repro.cluster.replica import ReplicaSpec, replica_process_entry

    ctx = multiprocessing.get_context("spawn")
    spec = ReplicaSpec(name="x", checkpoint_path=str(tmp_path / "missing.json"))
    process = ctx.Process(target=replica_process_entry, args=(spec, None))
    process.start()
    process.join(60)
    assert process.exitcode == 1


def test_missing_oracle_file_fails_fast(tmp_path):
    supervisor = ClusterSupervisor(
        tmp_path / "nope.json.gz", cluster_dir=tmp_path / "c", replicas=1, port=0
    )
    with pytest.raises(ClusterError):
        supervisor.start_in_thread()
