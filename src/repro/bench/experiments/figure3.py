"""Figure 3 — average update time under 10–50 landmarks, IncHL+ vs IncFD.

The paper sweeps ``|R| ∈ {10, 20, 30, 40, 50}`` per dataset and shows
IncHL+ beating IncFD across (almost) every selection, with a stable gap.
Both methods get the same landmark counts and the same insertion stream.
"""

from __future__ import annotations

from repro.baselines.fd import FullDynamicOracle
from repro.bench.experiments import ExperimentResult
from repro.bench.profile import bench_profile
from repro.bench.report import format_table
from repro.bench.runner import paper_insert, time_updates
from repro.core.dynamic import DynamicHCL
from repro.exceptions import BenchmarkError
from repro.utils.rng import ensure_rng
from repro.workloads.datasets import DATASETS, build_dataset
from repro.workloads.updates import sample_edge_insertions

__all__ = ["run"]


def run(
    profile: str | None = None,
    datasets: list[str] | None = None,
    seed: int = 2021,
) -> ExperimentResult:
    """Mean update time per (dataset, |R|, method)."""
    prof = bench_profile(profile)
    if datasets is not None:
        names = datasets
    elif prof.figure3_datasets is not None:
        names = list(prof.figure3_datasets)
    else:
        names = list(DATASETS)
    unknown = [n for n in names if n not in DATASETS]
    if unknown:
        raise BenchmarkError(f"unknown datasets: {unknown}")

    rows = []
    for name in names:
        spec, base_graph = build_dataset(name, profile=prof.name, seed=seed)
        rng = ensure_rng(hash((seed, name, "figure3")) & 0x7FFFFFFF)
        insertions = sample_edge_insertions(base_graph, prof.figure3_updates, rng=rng)
        for num_landmarks in prof.figure3_landmark_counts:
            if num_landmarks >= base_graph.num_vertices:
                continue
            hl = DynamicHCL.build(base_graph.copy(), num_landmarks=num_landmarks)
            hl_ms = time_updates(paper_insert(hl), insertions).mean_ms()
            fd = FullDynamicOracle(base_graph.copy(), num_landmarks=num_landmarks)
            fd_ms = time_updates(fd.insert_edge, insertions).mean_ms()
            rows.append({
                "dataset": name,
                "num_landmarks": num_landmarks,
                "inchl_update_ms": hl_ms,
                "incfd_update_ms": fd_ms,
                "speedup": fd_ms / hl_ms if hl_ms > 0 else None,
            })

    display = [
        {
            "Dataset": r["dataset"],
            "|R|": r["num_landmarks"],
            "IncHL+ (ms)": r["inchl_update_ms"],
            "IncFD (ms)": r["incfd_update_ms"],
            "IncFD/IncHL+": r["speedup"],
        }
        for r in rows
    ]
    table = format_table(
        ["Dataset", "|R|", "IncHL+ (ms)", "IncFD (ms)", "IncFD/IncHL+"],
        display,
        title="Figure 3 — average update time under varying landmarks",
    )
    # The paper's figure is a grouped log-scale bar chart: per dataset,
    # IncHL+ bars inside IncFD bars.  Render the |R|-averaged pair per
    # dataset the same way.
    from repro.bench.plotting import bar_chart

    labels: list[str] = []
    values: list[float] = []
    for name in names:
        dataset_rows = [r for r in rows if r["dataset"] == name]
        if not dataset_rows:
            continue
        labels.append(f"{name} IncHL+")
        values.append(
            sum(r["inchl_update_ms"] for r in dataset_rows) / len(dataset_rows)
        )
        labels.append(f"{name} IncFD")
        values.append(
            sum(r["incfd_update_ms"] for r in dataset_rows) / len(dataset_rows)
        )
    chart = bar_chart(
        "mean update time over the |R| sweep (log scale)",
        labels,
        values,
        log=True,
        unit="ms",
    )
    return ExperimentResult(
        name="figure3", rows=rows, text=table + "\n\n" + chart
    )
