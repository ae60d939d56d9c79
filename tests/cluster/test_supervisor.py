"""ClusterSupervisor: real replica processes, crash recovery, boot
failures and the lean process tree.

These are the only cluster tests paying a process spawn — everything
protocol-level is covered in-process elsewhere.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
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


_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _src_env(**extra: str) -> dict[str, str]:
    """This environment plus ``extra``, with ``src`` first on PYTHONPATH."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return env


def _children(pid: int) -> set[int]:
    """Live (non-zombie) child pids of ``pid``, read from ``/proc``."""
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            found.add(int(entry))
    return found


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
    before = _children(os.getpid())
    host, port = supervisor.start_in_thread()
    try:
        # The process tree holds only what serves: no resource tracker or
        # other helper next to the replicas.
        pids = {w.process.pid for w in supervisor.workers_by_name.values()}
        assert _children(os.getpid()) - before == pids
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
    """A replica that cannot boot must exit 1 (the supervisor and the
    smoke checks tell a failed boot from a clean drain by it)."""
    spec = {"name": "x", "checkpoint_path": str(tmp_path / "missing.json")}
    process = subprocess.run(
        [sys.executable, "-m", "repro.cluster.replica"],
        env=_src_env(REPRO_REPLICA_SPEC=json.dumps(spec)), stdin=subprocess.DEVNULL, capture_output=True, timeout=60,
    )
    assert process.returncode == 1
    assert process.stdout == b""


def test_failed_shard_boot_leaks_no_replica(oracle_file, tmp_path):
    """Replicas boot concurrently; when one shard's boot file is corrupt,
    start() raises only after every spawn finished, and the replicas
    that did come up are terminated."""
    cluster_dir = tmp_path / "cluster"
    cluster_dir.mkdir()
    (cluster_dir / "checkpoint-s1.json.gz").write_bytes(b"not an oracle")
    supervisor = ClusterSupervisor(
        oracle_file, cluster_dir=cluster_dir, replicas=1, shards=2, port=0,
        compact_every=None,
    )
    before = _children(os.getpid())
    with pytest.raises(ClusterError, match="1 of 2 replicas failed to boot"):
        supervisor.start_in_thread()
    assert _children(os.getpid()) == before
    workers = supervisor.workers_by_name
    assert workers["s0r0"].last_exitcode == 0  # booted, then drained
    assert workers["s1r0"].last_exitcode == 1  # boot failed
    assert all(not worker.alive for worker in workers.values())


def test_boot_timeout_terminates_the_booting_replica(oracle_file, tmp_path):
    supervisor = ClusterSupervisor(
        oracle_file, cluster_dir=tmp_path / "cluster", replicas=1, port=0,
        compact_every=None, spawn_timeout=0.01,
    )
    before = _children(os.getpid())
    with pytest.raises(ClusterError, match="did not report its address"):
        supervisor.start_in_thread()
    assert _children(os.getpid()) == before
    assert not supervisor.worker("r0").alive


def test_replicas_boot_when_repro_is_found_only_through_sys_path(
    oracle_file, tmp_path
):
    """A parent that imports ``repro`` via ``sys.path`` with PYTHONPATH
    unset still launches replicas that can import it."""
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {_SRC!r})
        from repro.cluster import ClusterSupervisor
        from repro.serving.client import ServingClient

        supervisor = ClusterSupervisor(
            {str(oracle_file)!r}, cluster_dir={str(tmp_path / "cluster")!r},
            replicas=1, port=0, compact_every=None,
        )
        host, port = supervisor.start_in_thread()
        try:
            with ServingClient(host, port) as client:
                print(client.query(0, 15))
        finally:
            supervisor.stop_thread()
        print(supervisor.worker("r0").exitcode)
    """)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    process = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=tmp_path,
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120,
    )
    assert process.returncode == 0, process.stderr
    assert process.stdout.split() == ["6", "0"]


def test_router_process_never_imports_numpy(oracle_file):
    """The supervisor/router process imports no numpy (and no core
    kernel), reading checkpoint headers included; the package's lazy
    re-exports still resolve."""
    script = textwrap.dedent(f"""
        import sys
        import repro.cli, repro.cluster.supervisor, repro.cluster.router
        from repro.cluster.supervisor import read_oracle_meta
        assert read_oracle_meta({str(oracle_file)!r}) == {{}}
        leaked = sorted(
            m for m in sys.modules
            if m.split(".")[0] == "numpy" or m.startswith("repro.core")
        )
        assert not leaked, leaked
        from repro import DynamicHCL
        from repro.serving import OracleService
        assert DynamicHCL.__module__ == "repro.core.dynamic"
        assert OracleService.__module__ == "repro.serving.service"
    """)
    process = subprocess.run(
        [sys.executable, "-c", script], env=_src_env(), stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=60,
    )
    assert process.returncode == 0, process.stderr


def test_missing_oracle_file_fails_fast(tmp_path):
    supervisor = ClusterSupervisor(
        tmp_path / "nope.json.gz", cluster_dir=tmp_path / "c", replicas=1, port=0
    )
    with pytest.raises(ClusterError):
        supervisor.start_in_thread()
