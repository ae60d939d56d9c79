"""S — serving layer: closed-loop query load under a concurrent writer.

A reproduction extra (the paper's harness measures updates and queries in
isolation; a deployment serves both at once): for each reader count, N
reader threads run a closed query loop against the service's published
snapshots while the single writer absorbs a mixed update stream, batching
consecutive insertions.  Recorded per row: sustained qps, p50/p95/p99
read latency, how many updates were applied, and — the snapshot-isolation
contract — the number of *incorrect* answers, where every K-th query is
re-checked by a BFS on the very snapshot graph that answered it.  That
column must be 0: a torn read would show up here as a mismatch.
"""

from __future__ import annotations

import threading
import zlib
from time import perf_counter, sleep

import numpy as np

from repro.bench.experiments import ExperimentResult
from repro.bench.profile import bench_profile
from repro.bench.report import format_table
from repro.core.dynamic import DynamicHCL
from repro.exceptions import BenchmarkError
from repro.graph.traversal import INF, bfs_distances
from repro.serving.service import OracleService
from repro.utils.rng import ensure_rng
from repro.workloads.datasets import DATASETS, build_dataset
from repro.workloads.streams import mixed_stream

__all__ = ["run"]

_DEFAULT_DATASETS = ["flickr-s"]


class _Reader(threading.Thread):
    """One closed-loop reader: query as fast as answers come back."""

    def __init__(self, service, vertices, rng_seed, deadline, verify_every):
        super().__init__(daemon=True)
        self.service = service
        self.vertices = vertices
        self.rng = ensure_rng(rng_seed)
        self.deadline = deadline
        self.verify_every = verify_every
        self.latencies: list[float] = []
        self.incorrect = 0
        self.epochs_seen: set[int] = set()

    def run(self) -> None:
        choice = self.rng.choice
        count = 0
        while perf_counter() < self.deadline:
            u, v = choice(self.vertices), choice(self.vertices)
            snap = self.service.snapshot  # pin one epoch for this query
            start = perf_counter()
            distance = snap.query(u, v)
            self.latencies.append(perf_counter() - start)
            self.epochs_seen.add(snap.epoch)
            count += 1
            if count % self.verify_every == 0:
                # Ground truth on the same frozen epoch: a torn read (the
                # writer leaking into the snapshot) cannot agree with this.
                expected = bfs_distances(snap.graph, u).get(v, INF)
                if distance != expected:
                    self.incorrect += 1


def run(
    profile: str | None = None,
    datasets: list[str] | None = None,
    seed: int = 2021,
) -> ExperimentResult:
    """Closed-loop read throughput/latency per reader count, writer active."""
    prof = bench_profile(profile)
    names = datasets if datasets is not None else list(_DEFAULT_DATASETS)
    unknown = [n for n in names if n not in DATASETS]
    if unknown:
        raise BenchmarkError(f"unknown datasets: {unknown}")

    rows: list[dict] = []
    for name in names:
        spec, graph = build_dataset(name, profile=prof.name, seed=seed)
        events = mixed_stream(
            graph,
            prof.serving_updates,
            rng=ensure_rng(zlib.crc32(f"{seed}:{name}:serving".encode())),
        )
        for readers in prof.serving_reader_counts:
            oracle = DynamicHCL.build(
                graph.copy(), num_landmarks=spec.num_landmarks
            )
            rows.append(_run_one(name, oracle, events, readers, prof, seed))

    text = format_table(
        ["dataset", "readers", "duration_s", "queries", "qps", "p50_ms",
         "p95_ms", "p99_ms", "updates_applied", "update_qps",
         "epochs_served", "incorrect"],
        rows,
        title="S — snapshot-isolated serving under concurrent updates "
              "(closed-loop readers; incorrect MUST be 0)",
    )
    return ExperimentResult(name="serving", rows=rows, text=text)


def _percentile_ms(latencies: list[float], q: float) -> float | None:
    """Raw-sample ``q``-th percentile of ``latencies`` (seconds) in ms."""
    if not latencies:
        return None
    return round(float(np.percentile(latencies, q)) * 1000, 4)


def _run_one(name, oracle, events, readers, prof, seed) -> dict:
    vertices = sorted(oracle.graph.vertices())
    duration = prof.serving_duration_s
    service = OracleService(oracle)
    with service:
        deadline = perf_counter() + duration
        threads = [
            _Reader(service, vertices, seed * 1000 + readers * 100 + i,
                    deadline, prof.serving_verify_every)
            for i in range(readers)
        ]
        start = perf_counter()
        for t in threads:
            t.start()
        # Feed the writer across the window so updates overlap the reads.
        chunk = 4
        pause = duration / max(1, len(events) / chunk) * 0.5
        for base in range(0, len(events), chunk):
            if perf_counter() >= deadline:
                break
            service.submit_many(events[base : base + chunk])
            sleep(min(pause, max(0.0, deadline - perf_counter())))
        for t in threads:
            t.join()
        service.flush()
        elapsed = perf_counter() - start
        stats = service.stats()

    latencies = [x for t in threads for x in t.latencies]
    incorrect = sum(t.incorrect for t in threads)
    epochs = set().union(*(t.epochs_seen for t in threads))
    queries = len(latencies)
    return {
        "experiment": "S-serving",
        "dataset": name,
        "readers": readers,
        "duration_s": round(elapsed, 3),
        "queries": queries,
        "qps": round(queries / elapsed, 1) if elapsed > 0 else None,
        "p50_ms": _percentile_ms(latencies, 50),
        "p95_ms": _percentile_ms(latencies, 95),
        "p99_ms": _percentile_ms(latencies, 99),
        "updates_applied": stats["events_applied"],
        "update_qps": round(stats["events_applied"] / elapsed, 1)
        if elapsed > 0 else None,
        "epochs_served": len(epochs),
        "incorrect": incorrect,
    }
