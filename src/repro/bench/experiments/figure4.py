"""Figure 4 — cumulative update time vs from-scratch construction.

The paper performs 500, 1000, …, 10,000 updates and plots IncHL+'s
cumulative update time against the (flat) cost of reconstructing the
labelling from scratch — showing maintenance stays well below rebuild on
almost all datasets.  The reproduction scales the schedule per profile
(default: batches of 100 up to 2,000) and measures the real rebuild cost of
:func:`repro.core.construction.build_hcl` on the final graph.
"""

from __future__ import annotations

from repro.bench.experiments import ExperimentResult
from repro.bench.profile import bench_profile
from repro.bench.report import render_series
from repro.bench.runner import paper_insert
from repro.core.construction import build_hcl
from repro.core.dynamic import DynamicHCL
from repro.exceptions import BenchmarkError
from repro.utils.rng import ensure_rng
from repro.utils.timing import Stopwatch
from repro.workloads.datasets import DATASETS, build_dataset
from repro.workloads.updates import sample_edge_insertions

__all__ = ["run"]


def run(
    profile: str | None = None,
    datasets: list[str] | None = None,
    seed: int = 2021,
) -> ExperimentResult:
    """Cumulative IncHL+ update time at each batch boundary, per dataset."""
    prof = bench_profile(profile)
    names = datasets if datasets is not None else list(DATASETS)
    unknown = [n for n in names if n not in DATASETS]
    if unknown:
        raise BenchmarkError(f"unknown datasets: {unknown}")

    rows = []
    all_series: dict[str, list[tuple[int, float]]] = {}
    for name in names:
        spec, graph = build_dataset(name, profile=prof.name, seed=seed)
        rng = ensure_rng(hash((seed, name, "figure4")) & 0x7FFFFFFF)
        insertions = sample_edge_insertions(graph, prof.figure4_total, rng=rng)

        with Stopwatch() as initial_build:
            oracle = DynamicHCL.build(graph, num_landmarks=spec.num_landmarks)

        insert = paper_insert(oracle)
        cumulative = 0.0
        points: list[tuple[int, float]] = []
        for start in range(0, len(insertions), prof.figure4_batch):
            batch = insertions[start : start + prof.figure4_batch]
            with Stopwatch() as sw:
                for u, v in batch:
                    insert(u, v)
            cumulative += sw.elapsed
            points.append((start + len(batch), cumulative))

        # Rebuild cost on the final (grown) graph — the paper's flat line.
        with Stopwatch() as rebuild:
            build_hcl(graph, oracle.landmarks)

        all_series[name] = points
        rows.append({
            "dataset": name,
            "num_updates": len(insertions),
            "cumulative_update_s": cumulative,
            "initial_construction_s": initial_build.elapsed,
            "reconstruction_s": rebuild.elapsed,
            "updates_per_rebuild": (
                len(insertions) * rebuild.elapsed / cumulative
                if cumulative > 0 else None
            ),
        })

    lines = [
        render_series(
            "Figure 4 — cumulative IncHL+ update time (s) vs construction",
            all_series,
            x_label="# updates",
            y_label="cumulative s",
        ),
        "",
        "Construction baselines (s):",
    ]
    for r in rows:
        lines.append(
            f"  {r['dataset']:15s} rebuild={r['reconstruction_s']:.2f}s  "
            f"cumulative={r['cumulative_update_s']:.2f}s  "
            f"(~{r['updates_per_rebuild']:.0f} updates amortise one rebuild)"
        )
    # The paper plots one log-y panel per dataset: the rising cumulative
    # curve against the flat construction line.  Chart the first dataset
    # the same way (one panel keeps the text report readable).
    if rows:
        from repro.bench.plotting import line_chart

        first = rows[0]["dataset"]
        panel = {
            "IncHL+ cumulative": all_series[first],
            "construction": [
                (x, rows[0]["reconstruction_s"]) for x, _ in all_series[first]
            ],
        }
        lines.extend([
            "",
            line_chart(
                f"{first}: cumulative update time vs construction (log y)",
                panel,
                log_y=True,
                x_label="# updates",
                y_label="seconds",
            ),
        ])
    return ExperimentResult(name="figure4", rows=rows, text="\n".join(lines))
