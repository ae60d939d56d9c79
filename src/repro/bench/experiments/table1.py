"""Table 1 — update time, query time and labelling size per method.

Protocol (Section 6): per dataset, apply the *same* stream of random edge
insertions (``EI ∩ E = ∅``) to each method, timing every update; then
answer the same stream of random query pairs, timing every query; report
the index size after all updates.  IncPLL is only built where the paper
could build it (5 of 12 datasets); other cells render "-".

``PAPER_TABLE1`` carries the paper's published numbers so the renderer can
put measured and published values side by side (EXPERIMENTS.md's source).
"""

from __future__ import annotations

from repro.bench.experiments import ExperimentResult
from repro.bench.profile import bench_profile
from repro.bench.report import format_bytes, format_table
from repro.bench.runner import (
    build_oracles,
    default_factories,
    PaperInsert,
    paper_insert,
    time_queries,
    time_updates,
)
from repro.exceptions import BenchmarkError
from repro.utils.rng import ensure_rng
from repro.workloads.datasets import DATASETS, build_dataset
from repro.workloads.queries import sample_query_pairs
from repro.workloads.updates import sample_edge_insertions

__all__ = ["run", "PAPER_TABLE1"]

#: The paper's Table 1: dataset -> method -> (update ms, query ms, size).
#: ``None`` marks the paper's "-" (method failed to build).
PAPER_TABLE1: dict[str, dict[str, tuple[float, float, str] | None]] = {
    "skitter-s": {"IncHL+": (0.194, 0.027, "42 MB"), "IncFD": (0.444, 0.019, "153 MB"), "IncPLL": (2.05, 0.047, "2.44 GB")},
    "flickr-s": {"IncHL+": (0.006, 0.007, "34 MB"), "IncFD": (0.074, 0.012, "152 MB"), "IncPLL": (1.73, 0.064, "3.69 GB")},
    "hollywood-s": {"IncHL+": (0.031, 0.027, "27 MB"), "IncFD": (0.101, 0.037, "263 MB"), "IncPLL": (48.0, 0.109, "12.58 GB")},
    "orkut-s": {"IncHL+": (2.026, 0.101, "70 MB"), "IncFD": (2.049, 0.103, "711 MB"), "IncPLL": None},
    "enwiki-s": {"IncHL+": (0.134, 0.054, "82 MB"), "IncFD": (0.163, 0.035, "608 MB"), "IncPLL": (5.91, 0.071, "12.57 GB")},
    "livejournal-s": {"IncHL+": (0.245, 0.044, "122 MB"), "IncFD": (0.268, 0.046, "663 MB"), "IncPLL": None},
    "indochina-s": {"IncHL+": (5.443, 0.737, "81 MB"), "IncFD": (158.0, 0.839, "838 MB"), "IncPLL": (2018.0, 0.063, "18.64 GB")},
    "it-s": {"IncHL+": (95.92, 1.069, "854 MB"), "IncFD": (224.0, 1.013, "4.74 GB"), "IncPLL": None},
    "twitter-s": {"IncHL+": (0.027, 0.863, "1.14 GB"), "IncFD": (0.134, 0.177, "3.83 GB"), "IncPLL": None},
    "friendster-s": {"IncHL+": (0.159, 0.814, "2.43 GB"), "IncFD": (0.419, 0.904, "9.14 GB"), "IncPLL": None},
    "uk-s": {"IncHL+": (11.49, 3.443, "1.78 GB"), "IncFD": (384.0, 5.858, "11.8 GB"), "IncPLL": None},
    "clueweb09-s": {"IncHL+": (40.68, 16.93, "163 GB"), "IncFD": None, "IncPLL": None},
}

_METHODS = ("IncHL+", "IncFD", "IncPLL")


def run(
    profile: str | None = None,
    datasets: list[str] | None = None,
    seed: int = 2021,
    cross_check_queries: int = 25,
) -> ExperimentResult:
    """Run the Table 1 experiment; returns rows and a paper-style table."""
    prof = bench_profile(profile)
    names = datasets if datasets is not None else list(DATASETS)
    unknown = [n for n in names if n not in DATASETS]
    if unknown:
        raise BenchmarkError(f"unknown datasets: {unknown}")

    rows = []
    for name in names:
        spec, graph = build_dataset(name, profile=prof.name, seed=seed)
        rng = ensure_rng(hash((seed, name, "table1")) & 0x7FFFFFFF)
        insertions = sample_edge_insertions(graph, prof.num_updates, rng=rng)
        query_pairs = sample_query_pairs(graph, prof.num_queries, rng=rng)
        built = build_oracles(spec, graph, default_factories(prof.pll_budget_s))

        per_method: dict[str, dict] = {}
        for b in built:
            if b.oracle is None:
                per_method[b.name] = {
                    "update_ms": None, "query_ms": None, "size_bytes": None,
                    "build_s": None, "failure": b.failure,
                }
                continue
            insert = paper_insert(b.oracle)
            update_stats = time_updates(insert, insertions)
            if isinstance(insert, PaperInsert):
                b.oracle = insert.oracle()
            query_stats = time_queries(b.oracle, query_pairs)
            per_method[b.name] = {
                "update_ms": update_stats.mean_ms(),
                "query_ms": query_stats.mean_ms(),
                "size_bytes": b.oracle.size_bytes(),
                "build_s": b.build_seconds,
                "failure": None,
            }

        _cross_check(built, query_pairs[:cross_check_queries], name)

        paper = PAPER_TABLE1[name]
        for method in _METHODS:
            measured = per_method.get(method)
            published = paper.get(method)
            rows.append({
                "dataset": name,
                "method": method,
                "update_ms": measured["update_ms"] if measured else None,
                "query_ms": measured["query_ms"] if measured else None,
                "size_bytes": measured["size_bytes"] if measured else None,
                "build_s": measured["build_s"] if measured else None,
                "paper_update_ms": published[0] if published else None,
                "paper_query_ms": published[1] if published else None,
                "paper_size": published[2] if published else None,
            })

    return ExperimentResult(name="table1", rows=rows, text=_render(rows))


def _cross_check(built, pairs, dataset: str) -> None:
    """All successfully built methods must agree on every sampled query —
    the harness doubles as an integration test."""
    oracles = [(b.name, b.oracle) for b in built if b.oracle is not None]
    if len(oracles) < 2:
        return
    for u, v in pairs:
        answers = {name: oracle.query(u, v) for name, oracle in oracles}
        if len(set(answers.values())) != 1:
            raise BenchmarkError(
                f"oracles disagree on d({u}, {v}) in {dataset}: {answers}"
            )


def _render(rows: list[dict]) -> str:
    display = []
    for row in rows:
        display.append({
            "Dataset": row["dataset"],
            "Method": row["method"],
            "Update (ms)": row["update_ms"],
            "Query (ms)": row["query_ms"],
            "Label size": (
                format_bytes(row["size_bytes"])
                if row["size_bytes"] is not None else None
            ),
            "Paper upd (ms)": row["paper_update_ms"],
            "Paper qry (ms)": row["paper_query_ms"],
            "Paper size": row["paper_size"],
        })
    return format_table(
        ["Dataset", "Method", "Update (ms)", "Query (ms)", "Label size",
         "Paper upd (ms)", "Paper qry (ms)", "Paper size"],
        display,
        title="Table 1 — update/query time and labelling size (measured vs paper)",
    )
