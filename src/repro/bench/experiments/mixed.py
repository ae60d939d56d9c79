"""MX — fully-dynamic mixed insert/delete batches vs the fallback paths.

The paper's model is insert-only; the fully-dynamic extension must prove
its keep against what a deployment would otherwise do with deletions.
Each dataset replays one interleaved insert/delete stream (deletions may
disconnect the graph — intended) through three maintenance routes over
identical graph copies:

* **sequential** — the paper's kernels, one event at a time (IncHL+
  insertions, DecHL deletions) through
  :func:`repro.core.batch.replay_events`;
* **fallback** — the *pre-mixed-engine* fast path: insert runs use the
  vectorized batch engine but deletions drop to the DecHL kernel on a
  dict labelling materialized from the engine, so the next insert run
  pays a full re-attach (one CSR BFS per landmark).  This is what
  serving deployments did before the engine kept its dense rows valid
  across deletions;
* **mixed-fast** — the BatchHL-style mixed batch engine: each chunk is
  collapsed to its net edge sets and applied as one find/repair sweep
  per landmark through ``DynamicHCL.apply_events_batch``.

Every route's final labelling must equal the sequential reference
(byte-identity contract), and the mixed-fast oracle's answers are
spot-checked against BFS ground truth — the ``bfs_incorrect`` column
must read zero for the run to be trusted (CI asserts it).
"""

from __future__ import annotations

import zlib

from repro.bench.experiments import ExperimentResult
from repro.bench.profile import bench_profile
from repro.bench.report import format_table
from repro.core.batch import replay_events
from repro.core.construction_fast import build_hcl_fast
from repro.core.dechl import apply_edge_deletion_partial
from repro.core.dynamic import DynamicHCL
from repro.exceptions import BenchmarkError
from repro.graph.traversal import bfs_distances
from repro.landmarks.selection import top_degree_landmarks
from repro.utils.rng import ensure_rng
from repro.utils.timing import Stopwatch
from repro.workloads.datasets import DATASETS, build_dataset
from repro.workloads.streams import mixed_stream

__all__ = ["run", "replay_fallback"]

#: Same representative spread as the incremental-fast sweep.
_DEFAULT_DATASETS = ["flickr-s", "twitter-s", "uk-s"]

#: Deletion-heavy enough that the decremental path dominates the fallback.
_INSERT_RATIO = 0.6


def _chunks(events, size):
    for start in range(0, len(events), size):
        yield events[start : start + size]


def replay_fallback(oracle: DynamicHCL, events, batch: int):
    """Insert runs on the vectorized engine, deletions through the DecHL
    kernel on a dict labelling materialized from the engine, which the
    next insert run re-attaches a new oracle from — the pre-mixed-engine
    serving behaviour.  Returns ``(seconds, oracle)``: the time summed
    over the ``batch``-event chunks, and the oracle holding the result.
    """
    graph = oracle.graph.copy()  # the DecHL kernel's graph, kept in step
    pending = None  # the dict labelling deletions changed since the attach

    def insert_run(run):
        nonlocal oracle, pending
        if pending is not None:
            oracle, pending = DynamicHCL(graph, pending), None
        oracle.insert_edges_batch(run)
        for u, v in run:
            graph.add_edge(u, v)

    total = 0.0
    for chunk in _chunks(events, batch):
        with Stopwatch() as sw:
            run: list[tuple[int, int]] = []
            for event in chunk:
                if event.is_insert:
                    run.append(event.edge)
                    continue
                if run:
                    insert_run(run)
                    run = []
                if pending is None:
                    pending = oracle.labelling
                apply_edge_deletion_partial(graph, pending, *event.edge)
            if run:
                insert_run(run)
        total += sw.elapsed
    if pending is not None:
        oracle = DynamicHCL(graph, pending)
    return total, oracle


def _replay_mixed(oracle: DynamicHCL, events, batch: int):
    total = 0.0
    phase_s: dict[str, float] = {}
    affected: list[int] = []
    for chunk in _chunks(events, batch):
        with Stopwatch() as sw:
            stats = oracle.apply_events_batch(chunk)
        total += sw.elapsed
        for phase, seconds in stats.phases.items():
            phase_s[phase] = phase_s.get(phase, 0.0) + seconds
        affected.append(stats.affected_union)
    phases = {
        f"{phase}_ms": round(seconds * 1000.0, 3)
        for phase, seconds in sorted(phase_s.items())
    }
    if affected:
        ordered = sorted(affected)
        phases["aff"] = {
            "mean": round(sum(affected) / len(affected), 1),
            "p50": ordered[len(ordered) // 2],
            "max": ordered[-1],
        }
    return total, phases or None


def _bfs_spot_check(oracle: DynamicHCL, rng, samples: int) -> tuple[int, int]:
    vertices = sorted(oracle.graph.vertices())
    incorrect = 0
    for _ in range(samples):
        u = rng.choice(vertices)
        v = rng.choice(vertices)
        expected = bfs_distances(oracle.graph, u).get(v, float("inf"))
        if oracle.query(u, v) != expected:
            incorrect += 1
    return samples, incorrect


def _row(dataset, mode, events, deletes, total_s, speedup, identical,
         checked=None, incorrect=None, phases=None):
    return {
        "experiment": "MX-mixed-batch",
        "dataset": dataset,
        "mode": mode,
        "events": events,
        "deletes": deletes,
        "total_ms": round(total_s * 1000.0, 3),
        "per_event_us": round(total_s / events * 1e6, 3) if events else 0.0,
        "speedup_vs_fallback": round(speedup, 3) if speedup is not None else None,
        "identical": identical,
        "bfs_checked": checked,
        "bfs_incorrect": incorrect,
        "phases": phases,
    }


def run(
    profile: str | None = None,
    datasets: list[str] | None = None,
    seed: int = 2021,
) -> ExperimentResult:
    """Mixed insert/delete batch engine vs the decremental fallback."""
    prof = bench_profile(profile)
    names = datasets if datasets is not None else list(_DEFAULT_DATASETS)
    unknown = [n for n in names if n not in DATASETS]
    if unknown:
        raise BenchmarkError(f"unknown datasets: {unknown}")

    rows: list[dict] = []
    for name in names:
        spec, graph = build_dataset(name, profile=prof.name, seed=seed)
        rng = ensure_rng(zlib.crc32(f"{seed}:{name}:mixed".encode()))
        events = mixed_stream(
            graph, prof.figure4_total, insert_ratio=_INSERT_RATIO, rng=rng
        )
        deletes = sum(1 for e in events if not e.is_insert)
        landmarks = top_degree_landmarks(graph, spec.num_landmarks)

        seq_graph = graph.copy()
        seq_labelling = build_hcl_fast(seq_graph, landmarks)
        with Stopwatch() as seq:
            replay_events(seq_graph, seq_labelling, events)
        t_seq = seq.elapsed

        fb_oracle = DynamicHCL.build(
            graph.copy(), landmarks=landmarks, construction="csr"
        )
        t_fb, fb_oracle = replay_fallback(fb_oracle, events, prof.figure4_batch)
        identical_fb = fb_oracle.labelling == seq_labelling

        mx_oracle = DynamicHCL.build(
            graph.copy(), landmarks=landmarks, construction="csr"
        )
        t_mx, phases_mx = _replay_mixed(mx_oracle, events, prof.figure4_batch)
        identical_mx = mx_oracle.labelling == seq_labelling
        checked, incorrect = _bfs_spot_check(mx_oracle, rng, samples=30)

        count = len(events)
        rows.append(_row(name, "sequential", count, deletes, t_seq,
                         t_fb / t_seq if t_seq > 0 else None, True))
        rows.append(_row(name, "fallback", count, deletes, t_fb,
                         1.0, identical_fb))
        rows.append(_row(name, "mixed-fast", count, deletes, t_mx,
                         t_fb / t_mx if t_mx > 0 else None, identical_mx,
                         checked, incorrect, phases=phases_mx))

    text = format_table(
        ["dataset", "mode", "events", "deletes", "total_ms", "per_event_us",
         "speedup_vs_fallback", "identical", "bfs_checked", "bfs_incorrect"],
        rows,
        title=(f"MX — fully-dynamic mixed batches vs decremental fallback "
               f"({prof.figure4_total} events/dataset, "
               f"insert ratio {_INSERT_RATIO})"),
    )
    return ExperimentResult(name="mixed", rows=rows, text=text)
