"""C — cluster layer: aggregate read throughput vs. replica count.

A reproduction extra (the paper's numbers are single-process): for each
replica count, a full :class:`~repro.cluster.supervisor.ClusterSupervisor`
stack — WAL-backed router + N spawned replica processes — serves a
closed-loop `query_many` load from concurrent client threads, measured
against the *same* load on a plain single-process
:class:`~repro.serving.server.OracleServer` (the ``single`` row,
speedup 1.0x by definition).  Recorded per row:

* **qps** and **speedup vs. single** — the scaling claim.  Replication
  scales reads with *cores*: each replica is its own process with its own
  GIL, so expect near-linear gains up to the host's CPU count and none
  beyond it (``host_cpus`` is recorded precisely so a 1-core CI box's
  flat numbers are interpretable);
* **incorrect** — every ``verify_frames``-th response frame is decoded
  and each answer BFS-checked against the ground-truth graph.  MUST be 0;
* **propagation_ms** — median time for an update batch to reach *every*
  replica (ack at the router log to full drain), the replication-lag cost
  a reader pays for ``min_epoch`` read-your-writes.

The read phase runs against a static graph (so BFS verification is
exact), then the propagation probe appends insert batches and times the
drain.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

from repro.bench.experiments import ExperimentResult
from repro.bench.profile import bench_profile
from repro.bench.report import format_table
from repro.core.dynamic import DynamicHCL
from repro.exceptions import BenchmarkError
from repro.graph.traversal import INF, bfs_distances
from repro.serving.client import ServingClient
from repro.serving.server import OracleServer
from repro.utils.rng import ensure_rng
from repro.utils.serialization import save_oracle
from repro.workloads.datasets import DATASETS, build_dataset
from repro.workloads.streams import insertion_stream

__all__ = ["run"]

_DEFAULT_DATASETS = ["flickr-s"]


class _ReadLoop(threading.Thread):
    """Closed-loop reader cycling pre-encoded `query_many` frames.

    The hot loop is write-frame / read-line only; every ``verify_every``-th
    response is decoded and kept for the post-phase BFS check, so client
    CPU stays out of the throughput measurement's way.
    """

    def __init__(self, host, port, frames, deadline, verify_every):
        super().__init__(daemon=True)
        self.host, self.port = host, port
        self.frames = frames  # [(request_bytes, pairs), ...]
        self.deadline = deadline
        self.verify_every = verify_every
        self.count = 0
        self.sampled: list[tuple[int, list]] = []  # (frame_idx, distances)
        self.failed: str | None = None

    def run(self) -> None:
        try:
            sock = socket.create_connection((self.host, self.port), timeout=10.0)
            handle = sock.makefile("rwb")
        except OSError as exc:  # pragma: no cover - boot race
            self.failed = str(exc)
            return
        try:
            index = 0
            rounds = 0
            frames = self.frames
            while perf_counter() < self.deadline:
                request, pairs = frames[index]
                handle.write(request)
                handle.flush()
                line = handle.readline()
                if not line:
                    self.failed = "connection closed mid-load"
                    return
                rounds += 1
                if rounds % self.verify_every == 0:
                    response = json.loads(line)
                    if not response.get("ok"):
                        self.failed = response.get("error", "request failed")
                        return
                    self.sampled.append((index, response["distances"]))
                self.count += len(pairs)
                index = (index + 1) % len(frames)
        finally:
            handle.close()
            sock.close()


def _make_frames(vertices, rng, count, batch):
    frames = []
    for _ in range(count):
        pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(batch)]
        request = (
            json.dumps(
                {"op": "query_many", "pairs": [list(p) for p in pairs]},
                separators=(",", ":"),
            )
            + "\n"
        ).encode("utf-8")
        frames.append((request, pairs))
    return frames


def _read_phase(host, port, frames, prof, graph):
    deadline = perf_counter() + prof.cluster_duration_s
    # Each client decodes ~verify_frames distinct frame positions per
    # 64-frame cycle; dedup caps post-phase BFS work at 64 frames total.
    verify_every = max(1, len(frames) // max(1, prof.cluster_verify_frames))
    loops = [
        _ReadLoop(host, port, frames, deadline, verify_every)
        for _ in range(prof.cluster_clients)
    ]
    start = perf_counter()
    for loop in loops:
        loop.start()
    for loop in loops:
        loop.join()
    elapsed = perf_counter() - start
    failures = [loop.failed for loop in loops if loop.failed]
    if failures:
        raise BenchmarkError(f"read loop failed: {failures[0]}")

    # BFS-verify every sampled frame (dedup: the same frame re-sampled by
    # several clients must produce identical answers anyway).
    bfs_cache: dict[int, dict] = {}
    checked = incorrect = 0
    seen: set[int] = set()
    for loop in loops:
        for frame_idx, distances in loop.sampled:
            if frame_idx in seen:
                continue
            seen.add(frame_idx)
            _, pairs = frames[frame_idx]
            for (u, v), got in zip(pairs, distances):
                if u not in bfs_cache:
                    bfs_cache[u] = bfs_distances(graph, u)
                expected = bfs_cache[u].get(v, INF)
                got = INF if got is None else got
                checked += 1
                if got != expected:
                    incorrect += 1
    queries = sum(loop.count for loop in loops)
    return {
        "elapsed": elapsed,
        "queries": queries,
        "qps": queries / elapsed if elapsed > 0 else 0.0,
        "checked": checked,
        "incorrect": incorrect,
    }


def _lag_phase(host, port, events, prof):
    """Median ms from update-batch ack to every replica drained."""
    laps = []
    with ServingClient(host, port) as client:
        per = prof.cluster_lag_batch_size
        for base in range(0, len(events), per):
            chunk = events[base : base + per]
            if not chunk:
                break
            client.updates([(e.kind, *e.edge) for e in chunk])
            start = perf_counter()
            response = client.snapshot()
            if not response.get("ok"):
                raise BenchmarkError(f"cluster drain failed: {response}")
            laps.append((perf_counter() - start) * 1000.0)
    return median(laps) if laps else None


def _single_row(name, oracle_file, frames, prof, graph):
    server = OracleServer.from_file(oracle_file, port=0)
    host, port = server.start_in_thread()
    try:
        phase = _read_phase(host, port, frames, prof, graph)
    finally:
        server.stop_thread()
    return phase, None


def _cluster_row(name, oracle_file, frames, prof, graph, replicas, events, tmp):
    from repro.cluster import ClusterSupervisor

    supervisor = ClusterSupervisor(
        oracle_file,
        cluster_dir=Path(tmp) / f"cluster-{replicas}",
        replicas=replicas,
        port=0,
        compact_every=None,
    )
    host, port = supervisor.start_in_thread()
    try:
        phase = _read_phase(host, port, frames, prof, graph)
        propagation = _lag_phase(host, port, events, prof)
    finally:
        supervisor.stop_thread()
    unclean = [
        name_
        for name_, worker in supervisor.workers_by_name.items()
        if worker.exitcode != 0
    ]
    if unclean:
        raise BenchmarkError(f"replicas shut down uncleanly: {unclean}")
    return phase, propagation


def run(
    profile: str | None = None,
    datasets: list[str] | None = None,
    seed: int = 2021,
) -> ExperimentResult:
    """Aggregate read qps at 1..N replicas vs. single-process serving."""
    prof = bench_profile(profile)
    names = datasets if datasets is not None else list(_DEFAULT_DATASETS)
    unknown = [n for n in names if n not in DATASETS]
    if unknown:
        raise BenchmarkError(f"unknown datasets: {unknown}")

    host_cpus = os.cpu_count() or 1
    rows: list[dict] = []
    for name in names:
        spec, graph = build_dataset(name, profile=prof.name, seed=seed)
        oracle = DynamicHCL.build(graph, num_landmarks=spec.num_landmarks)
        vertices = sorted(graph.vertices())
        rng = ensure_rng(seed * 31 + 7)
        frames = _make_frames(vertices, rng, 64, prof.cluster_query_batch)
        lag_events = insertion_stream(
            graph, prof.cluster_lag_batches * prof.cluster_lag_batch_size,
            rng=ensure_rng(seed * 17 + 3),
        )
        with tempfile.TemporaryDirectory() as tmp:
            oracle_file = Path(tmp) / "oracle.json.gz"
            save_oracle(oracle, oracle_file)

            single, _ = _single_row(name, oracle_file, frames, prof, graph)
            rows.append(
                _row(name, "single", 1, prof, host_cpus, single, None, single)
            )
            for replicas in prof.cluster_replica_counts:
                phase, propagation = _cluster_row(
                    name, oracle_file, frames, prof, graph, replicas,
                    lag_events, tmp,
                )
                rows.append(
                    _row(name, "cluster", replicas, prof, host_cpus, phase,
                         propagation, single)
                )

    text = format_table(
        ["dataset", "mode", "replicas", "clients", "duration_s", "queries",
         "qps", "speedup_vs_single", "checked", "incorrect",
         "propagation_ms", "host_cpus"],
        rows,
        title="C — replicated cluster read throughput vs. single-process "
              "serving (speedup needs >= replicas CPU cores; incorrect "
              "MUST be 0)",
    )
    return ExperimentResult(name="cluster", rows=rows, text=text)


def _row(name, mode, replicas, prof, host_cpus, phase, propagation, single):
    base_qps = single["qps"]
    return {
        "experiment": "C-cluster",
        "dataset": name,
        "mode": mode,
        "replicas": replicas,
        "clients": prof.cluster_clients,
        "duration_s": round(phase["elapsed"], 3),
        "queries": phase["queries"],
        "qps": round(phase["qps"], 1),
        "speedup_vs_single": (
            round(phase["qps"] / base_qps, 3) if base_qps > 0 else None
        ),
        "checked": phase["checked"],
        "incorrect": phase["incorrect"],
        "propagation_ms": (
            round(propagation, 2) if propagation is not None else None
        ),
        "host_cpus": host_cpus,
    }
