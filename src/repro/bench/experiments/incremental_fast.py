"""IF — incremental fast path: vectorized vs pure-Python update latency.

Replays the Figure 4 insertion schedule (``figure4_total`` edges per
dataset, one at a time — the paper's strictly-online model) through two
oracles over identical graph copies:

* **python** — the paper's IncHL+ kernel of :mod:`repro.core.inchl`,
  called directly;
* **fast** — ``DynamicHCL.insert_edge``, i.e. the vectorized CSR engine
  of :mod:`repro.core.inchl_fast`
  (DynCSR overlay + dense old-distance rows + numpy level kernels);

plus a third **fast-batch** replay applying the same stream in Figure-4
batch chunks through one stacked kernel sweep per chunk.  Every replay's final
labelling is checked for equality against the python reference before
timings are accepted (the fast path's byte-identity contract), and the
per-update latency distribution (mean / p50 / p95) is recorded so tail
behaviour is visible next to the speedup.

The engine-attach cost from a dict labelling (one CSR BFS per landmark,
paid when an oracle wraps a labelling or after vertex removal and
landmark maintenance) is reported as its own column rather than buried
in the stream timing — on the paper's 10,000-update replay it amortizes
to noise.  Oracles built on the CSR path or loaded from a checkpoint
attach from their rows and never pay it.

A final **fast+profiler** row re-times the first dataset's fast replay
with the sampling profiler (:mod:`repro.obs.profile`) active and reports
``overhead_pct`` — the continuous-profiling tax, re-measured on every
bench run so the "cheap enough to leave on" claim stays checked.
"""

from __future__ import annotations

from repro.bench.experiments import ExperimentResult
from repro.bench.profile import bench_profile
from repro.bench.report import format_table
from repro.bench.runner import paper_insert
from repro.core.construction_fast import build_hcl_fast
from repro.core.dynamic import DynamicHCL
from repro.exceptions import BenchmarkError
from repro.landmarks.selection import top_degree_landmarks
from repro.utils.rng import ensure_rng
from repro.utils.timing import Stopwatch
from repro.workloads.datasets import DATASETS, build_dataset
from repro.workloads.updates import sample_edge_insertions

__all__ = ["run"]

import zlib

#: Representative default sweep: one social, one road-like/web pair —
#: small and large affected regions both appear in the aggregate.
_DEFAULT_DATASETS = ["flickr-s", "twitter-s", "uk-s"]


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _accumulate_phases(phase_s: dict, affected: list, stats) -> None:
    """Fold one update's ``UpdateStats`` into running phase totals."""
    for name, seconds in stats.phases.items():
        phase_s[name] = phase_s.get(name, 0.0) + seconds
    affected.append(stats.affected_union)


def _phases_block(phase_s: dict, affected: list) -> dict | None:
    """The per-row ``phases`` block of the BENCH_* JSON report: where the
    update time went (find vs repair sweeps, engine-attributed) and the
    |AFF| distribution the paper's complexity analysis charges."""
    if not phase_s:
        return None
    block = {
        f"{name}_ms": round(seconds * 1000.0, 3)
        for name, seconds in sorted(phase_s.items())
    }
    if affected:
        ordered = sorted(affected)
        block["aff"] = {
            "mean": round(sum(affected) / len(affected), 1),
            "p50": _percentile(ordered, 0.50),
            "p95": _percentile(ordered, 0.95),
            "max": ordered[-1],
        }
    return block


def _replay_single(insert, insertions):
    """One-at-a-time replay through ``insert(u, v)``; returns
    (total_s, latencies_s, phases)."""
    latencies = []
    phase_s: dict[str, float] = {}
    affected: list[int] = []
    for u, v in insertions:
        with Stopwatch() as sw:
            stats = insert(u, v)
        latencies.append(sw.elapsed)
        _accumulate_phases(phase_s, affected, stats)
    return sum(latencies), latencies, _phases_block(phase_s, affected)


def _replay_batched(oracle: DynamicHCL, insertions, batch_size: int):
    """Figure-4-style chunked replay on the fast path."""
    total = 0.0
    chunks = 0
    phase_s: dict[str, float] = {}
    affected: list[int] = []
    for start in range(0, len(insertions), batch_size):
        chunk = insertions[start : start + batch_size]
        with Stopwatch() as sw:
            stats = oracle.insert_edges_batch(chunk)
        total += sw.elapsed
        chunks += 1
        _accumulate_phases(phase_s, affected, stats)
    return total, chunks, _phases_block(phase_s, affected)


def _row(dataset, mode, updates, total_s, latencies, attach_ms, speedup,
         identical, phases=None):
    ordered = sorted(latencies) if latencies else []
    per_update = total_s / updates if updates else 0.0
    return {
        "experiment": "IF-incremental-fast",
        "dataset": dataset,
        "mode": mode,
        "updates": updates,
        "total_ms": round(total_s * 1000.0, 3),
        "per_update_us": round(per_update * 1e6, 3),
        "p50_us": round(_percentile(ordered, 0.50) * 1e6, 3) if ordered else None,
        "p95_us": round(_percentile(ordered, 0.95) * 1e6, 3) if ordered else None,
        "attach_ms": round(attach_ms, 3) if attach_ms is not None else None,
        "speedup": round(speedup, 3) if speedup is not None else None,
        "identical": identical,
        "phases": phases,
    }


def _profiler_overhead_row(graph, landmarks, insertions, dataset):
    """Measure the sampling profiler's drag on the fast single-update
    replay: min-of-2 timings with and without an active profiler, same
    stream, fresh oracles.  Ships in the bench JSON so the acceptance
    bound (overhead under a few percent) is re-verified on every run."""
    from repro.obs.profile import SamplingProfiler

    def _timed(profiled: bool) -> float:
        best = None
        for _ in range(2):
            oracle = DynamicHCL.build(
                graph.copy(), landmarks=landmarks, construction="csr"
            )
            profiler = SamplingProfiler() if profiled else None
            if profiler is not None:
                profiler.start()
            with Stopwatch() as sw:
                for u, v in insertions:
                    oracle.insert_edge(u, v)
            if profiler is not None:
                profiler.stop()
            best = sw.elapsed if best is None else min(best, sw.elapsed)
        return best

    base_s = _timed(False)
    profiled_s = _timed(True)
    overhead = (profiled_s - base_s) / base_s * 100.0 if base_s > 0 else 0.0
    row = _row(dataset, "fast+profiler", len(insertions), profiled_s, [],
               None, None, True)
    row["overhead_pct"] = round(overhead, 2)
    return row


def run(
    profile: str | None = None,
    datasets: list[str] | None = None,
    seed: int = 2021,
) -> ExperimentResult:
    """Per-update latency and speedup of the vectorized update engine."""
    prof = bench_profile(profile)
    names = datasets if datasets is not None else list(_DEFAULT_DATASETS)
    unknown = [n for n in names if n not in DATASETS]
    if unknown:
        raise BenchmarkError(f"unknown datasets: {unknown}")

    rows: list[dict] = []
    aggregate_python = 0.0
    aggregate_fast = 0.0
    overhead_inputs = None
    for name in names:
        spec, graph = build_dataset(name, profile=prof.name, seed=seed)
        rng = ensure_rng(zlib.crc32(f"{seed}:{name}:incremental_fast".encode()))
        insertions = sample_edge_insertions(graph, prof.figure4_total, rng=rng)
        landmarks = top_degree_landmarks(graph, spec.num_landmarks)
        if overhead_inputs is None:
            overhead_inputs = (graph, landmarks, insertions, name)

        python_oracle = DynamicHCL.build(
            graph.copy(), landmarks=landmarks, construction="csr"
        )
        python_insert = paper_insert(python_oracle)
        t_python, lat_python, _ = _replay_single(python_insert, insertions)
        reference = python_insert.labelling

        fast_graph = graph.copy()
        labelling = build_hcl_fast(fast_graph, landmarks)
        with Stopwatch() as attach:
            fast_oracle = DynamicHCL(fast_graph, labelling)
        t_fast, lat_fast, phases_fast = _replay_single(
            fast_oracle.insert_edge, insertions
        )
        identical_fast = fast_oracle.labelling == reference

        batch_oracle = DynamicHCL.build(
            graph.copy(), landmarks=landmarks, construction="csr"
        )
        t_batch, chunks, phases_batch = _replay_batched(
            batch_oracle, insertions, prof.figure4_batch
        )
        identical_batch = batch_oracle.labelling == reference

        aggregate_python += t_python
        aggregate_fast += t_fast
        count = len(insertions)
        rows.append(_row(name, "python", count, t_python, lat_python,
                         None, None, True))
        rows.append(_row(name, "fast", count, t_fast, lat_fast,
                         attach.elapsed * 1000.0,
                         t_python / t_fast if t_fast > 0 else None,
                         identical_fast, phases=phases_fast))
        rows.append(_row(
            name, f"fast-batch/{prof.figure4_batch}", count, t_batch, [],
            None, t_python / t_batch if t_batch > 0 else None, identical_batch,
            phases=phases_batch,
        ))

    if aggregate_fast > 0 and len(names) > 1:
        rows.append(_row(
            "ALL", "fast-aggregate",
            sum(r["updates"] for r in rows if r["mode"] == "python"),
            aggregate_fast, [], None,
            aggregate_python / aggregate_fast, all(r["identical"] for r in rows),
        ))

    if overhead_inputs is not None:
        graph, landmarks, insertions, name = overhead_inputs
        rows.append(_profiler_overhead_row(graph, landmarks, insertions, name))

    text = format_table(
        ["dataset", "mode", "updates", "total_ms", "per_update_us",
         "p50_us", "p95_us", "attach_ms", "speedup", "identical",
         "overhead_pct"],
        rows,
        title=(f"IF — vectorized CSR update engine vs pure-Python IncHL+ "
               f"(Figure 4 replay, {prof.figure4_total} insertions/dataset)"),
    )
    return ExperimentResult(name="incremental_fast", rows=rows, text=text)
