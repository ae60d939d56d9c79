"""Ablation experiments A1–A3 (reproduction extras, docs/DESIGN.md §5).

* **A1 — landmark selection**: the paper (following its predecessors) uses
  top-degree landmarks; this ablation quantifies what that choice buys over
  random / betweenness / spread selection in label size, update time and
  query time.
* **A2 — maintenance vs rebuild**: the per-update speedup of IncHL+ over
  recomputing the labelling from scratch (the quantitative version of the
  paper's Figure 4 argument).
* **A3 — workload realism**: random-pair insertions (the paper's EI) vs
  replaying held-out *real* edges; random pairs connect distant vertices
  and therefore affect far more of the graph.
"""

from __future__ import annotations

from repro.bench.experiments import ExperimentResult
from repro.bench.profile import bench_profile
from repro.bench.report import format_table
from repro.bench.runner import paper_insert, time_queries, time_updates
from repro.core.construction import build_hcl
from repro.core.dynamic import DynamicHCL
from repro.exceptions import BenchmarkError
from repro.utils.rng import ensure_rng
from repro.utils.timing import Stopwatch
from repro.workloads.datasets import DATASETS, build_dataset
from repro.workloads.queries import sample_query_pairs
from repro.workloads.updates import held_out_edges, sample_edge_insertions

__all__ = ["run", "run_landmark_strategies", "run_update_vs_rebuild", "run_workload_realism"]

_DEFAULT_DATASETS = ["flickr-s", "indochina-s"]
_STRATEGIES = ("degree", "random", "betweenness", "spread")


def run_landmark_strategies(
    profile: str | None = None,
    datasets: list[str] | None = None,
    seed: int = 2021,
) -> list[dict]:
    """A1: per-strategy label size / update time / query time."""
    prof = bench_profile(profile)
    names = datasets if datasets is not None else list(_DEFAULT_DATASETS)
    rows = []
    for name in names:
        spec, base_graph = build_dataset(name, profile=prof.name, seed=seed)
        rng = ensure_rng(hash((seed, name, "ablation-a1")) & 0x7FFFFFFF)
        insertions = sample_edge_insertions(base_graph, prof.ablation_updates, rng=rng)
        query_pairs = sample_query_pairs(base_graph, prof.ablation_queries, rng=rng)
        for strategy in _STRATEGIES:
            graph = base_graph.copy()
            oracle = DynamicHCL.build(
                graph,
                num_landmarks=spec.num_landmarks,
                strategy=strategy,
                rng=ensure_rng(seed),
            )
            entries_before = oracle.label_entries
            insert = paper_insert(oracle)
            update_ms = time_updates(insert, insertions).mean_ms()
            query_ms = time_queries(insert.oracle(), query_pairs).mean_ms()
            rows.append({
                "experiment": "A1-landmark-strategy",
                "dataset": name,
                "strategy": strategy,
                "label_entries": entries_before,
                "update_ms": update_ms,
                "query_ms": query_ms,
            })
    return rows


def run_update_vs_rebuild(
    profile: str | None = None,
    datasets: list[str] | None = None,
    seed: int = 2021,
) -> list[dict]:
    """A2: mean IncHL+ update time vs from-scratch reconstruction time."""
    prof = bench_profile(profile)
    names = datasets if datasets is not None else list(DATASETS)
    rows = []
    for name in names:
        spec, graph = build_dataset(name, profile=prof.name, seed=seed)
        rng = ensure_rng(hash((seed, name, "ablation-a2")) & 0x7FFFFFFF)
        insertions = sample_edge_insertions(graph, prof.ablation_updates, rng=rng)
        oracle = DynamicHCL.build(graph, num_landmarks=spec.num_landmarks)
        update_ms = time_updates(paper_insert(oracle), insertions).mean_ms()
        with Stopwatch() as sw:
            build_hcl(graph, oracle.landmarks)
        rebuild_ms = sw.elapsed * 1000.0
        rows.append({
            "experiment": "A2-update-vs-rebuild",
            "dataset": name,
            "update_ms": update_ms,
            "rebuild_ms": rebuild_ms,
            "speedup": rebuild_ms / update_ms if update_ms > 0 else None,
        })
    return rows


def run_workload_realism(
    profile: str | None = None,
    datasets: list[str] | None = None,
    seed: int = 2021,
) -> list[dict]:
    """A3: random-pair insertions vs replayed held-out real edges."""
    prof = bench_profile(profile)
    names = datasets if datasets is not None else list(_DEFAULT_DATASETS)
    rows = []
    for name in names:
        spec, graph = build_dataset(name, profile=prof.name, seed=seed)
        rng = ensure_rng(hash((seed, name, "ablation-a3")) & 0x7FFFFFFF)

        # Replay workload: remove real edges, rebuild, re-insert them.
        replay_graph = graph.copy()
        replayed = held_out_edges(replay_graph, prof.ablation_updates, rng=rng)
        for workload, g, stream in (
            ("random-pairs", graph.copy(),
             sample_edge_insertions(graph, prof.ablation_updates, rng=rng)),
            ("replayed-edges", replay_graph, replayed),
        ):
            oracle = DynamicHCL.build(g, num_landmarks=spec.num_landmarks)
            affected = []
            insert = paper_insert(oracle)
            stats = time_updates(insert, [])
            for u, v in stream:
                result = stats.time(insert, u, v)
                affected.append(result.affected_union)
            rows.append({
                "experiment": "A3-workload-realism",
                "dataset": name,
                "workload": workload,
                "update_ms": stats.mean_ms(),
                "mean_affected": sum(affected) / len(affected) if affected else 0.0,
                "max_affected": max(affected, default=0),
            })
    return rows


def run(
    profile: str | None = None,
    datasets: list[str] | None = None,
    seed: int = 2021,
) -> ExperimentResult:
    """Run all three ablations and render one combined report."""
    if datasets is not None:
        unknown = [n for n in datasets if n not in DATASETS]
        if unknown:
            raise BenchmarkError(f"unknown datasets: {unknown}")
    a1 = run_landmark_strategies(profile, datasets, seed)
    a2 = run_update_vs_rebuild(
        profile, datasets if datasets is not None else _DEFAULT_DATASETS, seed
    )
    a3 = run_workload_realism(profile, datasets, seed)

    sections = [
        format_table(
            ["dataset", "strategy", "label_entries", "update_ms", "query_ms"],
            a1, title="A1 — landmark selection strategies",
        ),
        format_table(
            ["dataset", "update_ms", "rebuild_ms", "speedup"],
            a2, title="A2 — IncHL+ update vs from-scratch rebuild",
        ),
        format_table(
            ["dataset", "workload", "update_ms", "mean_affected", "max_affected"],
            a3, title="A3 — random-pair vs replayed-real-edge workloads",
        ),
    ]
    return ExperimentResult(
        name="ablations", rows=a1 + a2 + a3, text="\n\n".join(sections)
    )
