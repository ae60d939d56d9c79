"""Ablations A4–A7: the repository's extension features, measured.

These experiments quantify the design choices docs/DESIGN.md calls out beyond
the paper's own evaluation:

* **A4 — batch vs sequential insertion**: the sweep-sharing win of
  :mod:`repro.core.batch` over one-at-a-time IncHL+ for bursts of edges.
* **A5 — decremental strategies**: fine-grained DecHL
  (:mod:`repro.core.dechl`) vs the coarse per-landmark rebuild
  (:mod:`repro.core.decremental`) vs a full reconstruction.
* **A6 — construction fast path**: the numpy CSR builder
  (:mod:`repro.core.construction_fast`) vs the reference builder — the
  "C extension substitute" dividend.
* **A7 — cost-model fit**: least-squares fit of measured update times
  against the paper's ``O(|R| · m · d · l)`` bound
  (:mod:`repro.analysis.costmodel`); a positive slope with high R² is
  empirical support for the Section 5 complexity analysis.

Every timing comparison first asserts the compared implementations land
on identical labellings, so a speedup can never hide a semantic drift.
"""

from __future__ import annotations

from repro.analysis.costmodel import CostModel, UpdateRecord
from repro.bench.experiments import ExperimentResult
from repro.bench.profile import bench_profile
from repro.bench.report import format_table
from repro.bench.runner import paper_insert
from repro.core.batch import apply_edge_insertions_batch
from repro.core.construction import build_hcl
from repro.core.construction_fast import build_hcl_fast
from repro.core.dechl import apply_edge_deletion_partial
from repro.core.decremental import apply_edge_deletion
from repro.core.dynamic import DynamicHCL
from repro.core.inchl import apply_edge_insertion
from repro.exceptions import BenchmarkError
from repro.utils.rng import ensure_rng
from repro.utils.timing import Stopwatch
from repro.workloads.datasets import DATASETS, build_dataset
from repro.workloads.updates import held_out_edges, sample_edge_insertions

__all__ = [
    "run",
    "run_batch_vs_sequential",
    "run_decremental_strategies",
    "run_construction_fast_path",
    "run_cost_model_fit",
]

_DEFAULT_DATASETS = ["flickr-s", "indochina-s"]


def run_batch_vs_sequential(
    profile: str | None = None,
    datasets: list[str] | None = None,
    seed: int = 2021,
) -> list[dict]:
    """A4: one combined sweep per landmark vs one sweep per edge."""
    prof = bench_profile(profile)
    names = datasets if datasets is not None else list(_DEFAULT_DATASETS)
    batch_sizes = (2, 8, max(2, prof.ablation_updates // 2))
    rows = []
    for name in names:
        spec, base_graph = build_dataset(name, profile=prof.name, seed=seed)
        rng = ensure_rng(hash((seed, name, "ablation-a4")) & 0x7FFFFFFF)
        landmarks_oracle = DynamicHCL.build(
            base_graph.copy(), num_landmarks=spec.num_landmarks
        )
        landmarks = landmarks_oracle.landmarks
        for batch_size in batch_sizes:
            batch = sample_edge_insertions(base_graph, batch_size, rng=rng)

            seq_graph = base_graph.copy()
            seq_labelling = build_hcl(seq_graph, landmarks)
            with Stopwatch() as sw_seq:
                for u, v in batch:
                    seq_graph.add_edge(u, v)
                    apply_edge_insertion(seq_graph, seq_labelling, u, v)

            batch_graph = base_graph.copy()
            batch_labelling = build_hcl(batch_graph, landmarks)
            for u, v in batch:
                batch_graph.add_edge(u, v)
            with Stopwatch() as sw_batch:
                apply_edge_insertions_batch(batch_graph, batch_labelling, batch)

            if batch_labelling != seq_labelling:
                raise BenchmarkError(
                    f"batch and sequential labellings diverged on {name}"
                )
            seq_ms = sw_seq.elapsed * 1000.0
            batch_ms = sw_batch.elapsed * 1000.0
            rows.append({
                "experiment": "A4-batch-vs-sequential",
                "dataset": name,
                "batch_size": batch_size,
                "sequential_ms": seq_ms,
                "batch_ms": batch_ms,
                "speedup": seq_ms / batch_ms if batch_ms > 0 else None,
            })
    return rows


def run_decremental_strategies(
    profile: str | None = None,
    datasets: list[str] | None = None,
    seed: int = 2021,
) -> list[dict]:
    """A5: DecHL partial repair vs per-landmark rebuild vs full rebuild."""
    prof = bench_profile(profile)
    names = datasets if datasets is not None else list(_DEFAULT_DATASETS)
    num_deletions = max(4, prof.ablation_updates // 2)
    rows = []
    for name in names:
        spec, graph = build_dataset(name, profile=prof.name, seed=seed)
        rng = ensure_rng(hash((seed, name, "ablation-a5")) & 0x7FFFFFFF)
        oracle = DynamicHCL.build(graph, num_landmarks=spec.num_landmarks)
        landmarks = oracle.landmarks
        deletions = _sample_deletions(graph, num_deletions, rng)

        partial_graph = graph.copy()
        partial_labelling = build_hcl(partial_graph, landmarks)
        with Stopwatch() as sw_partial:
            for u, v in deletions:
                apply_edge_deletion_partial(partial_graph, partial_labelling, u, v)

        rebuild_graph = graph.copy()
        rebuild_labelling = build_hcl(rebuild_graph, landmarks)
        with Stopwatch() as sw_rebuild:
            for u, v in deletions:
                apply_edge_deletion(rebuild_graph, rebuild_labelling, u, v)

        if partial_labelling != rebuild_labelling:
            raise BenchmarkError(
                f"partial and rebuild deletions diverged on {name}"
            )

        scratch_graph = graph.copy()
        for u, v in deletions:
            scratch_graph.remove_edge(u, v)
        with Stopwatch() as sw_scratch:
            build_hcl(scratch_graph, landmarks)

        per = 1000.0 / len(deletions)
        rows.append({
            "experiment": "A5-decremental-strategies",
            "dataset": name,
            "deletions": len(deletions),
            "partial_ms": sw_partial.elapsed * per,
            "landmark_rebuild_ms": sw_rebuild.elapsed * per,
            "full_rebuild_ms": sw_scratch.elapsed * 1000.0,
        })
    return rows


def _sample_deletions(graph, count: int, rng) -> list[tuple[int, int]]:
    """Uniform existing edges, deletable in sequence (no duplicates)."""
    edges = sorted(graph.edges())
    rng.shuffle(edges)
    return edges[:count]


#: A6 scale sweep: Barabási–Albert sizes per profile.  The numpy fast
#: path pays per-level array overheads, so it loses below ~1k vertices
#: and wins increasingly above — the sweep shows the crossover.
_A6_SCALES = {
    "smoke": (500, 2_000),
    "default": (2_000, 8_000, 20_000),
    "full": (8_000, 30_000, 60_000),
}


def run_construction_fast_path(
    profile: str | None = None,
    datasets: list[str] | None = None,
    seed: int = 2021,
) -> list[dict]:
    """A6: reference Python construction vs the numpy CSR fast path.

    Measured both on the dataset stand-ins (small, representative
    topology) and on a Barabási–Albert scale sweep that exposes where the
    vectorized builder overtakes the interpreter.
    """
    from repro.graph.generators import barabasi_albert

    prof = bench_profile(profile)
    names = datasets if datasets is not None else list(_DEFAULT_DATASETS)
    cases: list[tuple[str, object, int]] = []
    for name in names:
        spec, graph = build_dataset(name, profile=prof.name, seed=seed)
        cases.append((name, graph, spec.num_landmarks))
    for n in _A6_SCALES[prof.name]:
        cases.append((f"ba-{n}", barabasi_albert(n, 4, rng=seed), 10))

    from repro.landmarks.selection import select_landmarks

    rows = []
    for name, graph, num_landmarks in cases:
        landmarks = select_landmarks(graph, num_landmarks, "degree")
        with Stopwatch() as sw_python:
            reference = build_hcl(graph, landmarks)
        with Stopwatch() as sw_csr:
            fast = build_hcl_fast(graph, landmarks)
        if fast != reference:
            raise BenchmarkError(f"fast construction diverged on {name}")
        python_ms = sw_python.elapsed * 1000.0
        csr_ms = sw_csr.elapsed * 1000.0
        rows.append({
            "experiment": "A6-construction-fast-path",
            "dataset": name,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "python_ms": python_ms,
            "csr_ms": csr_ms,
            "speedup": python_ms / csr_ms if csr_ms > 0 else None,
        })
    return rows


def run_cost_model_fit(
    profile: str | None = None,
    datasets: list[str] | None = None,
    seed: int = 2021,
) -> list[dict]:
    """A7: fit measured update times to the ``|R| · m · d · l`` bound."""
    prof = bench_profile(profile)
    names = datasets if datasets is not None else list(_DEFAULT_DATASETS)
    rows = []
    for name in names:
        spec, graph = build_dataset(name, profile=prof.name, seed=seed)
        rng = ensure_rng(hash((seed, name, "ablation-a7")) & 0x7FFFFFFF)
        insertions = sample_edge_insertions(
            graph, max(8, prof.ablation_updates), rng=rng
        )
        oracle = DynamicHCL.build(graph, num_landmarks=spec.num_landmarks)
        insert = paper_insert(oracle)
        records = []
        for u, v in insertions:
            avg_degree = graph.average_degree()
            avg_label = insert.labelling.label_entries / graph.num_vertices
            with Stopwatch() as sw:
                stats = insert(u, v)
            records.append(UpdateRecord(
                affected_total=stats.total_affected,
                avg_degree=avg_degree,
                avg_label_size=avg_label,
                seconds=sw.elapsed,
            ))
        try:
            model = CostModel.fit(records)
            slope, r_squared = model.slope, model.r_squared
        except ValueError:
            slope, r_squared = None, None  # degenerate workload (tiny profile)
        rows.append({
            "experiment": "A7-cost-model-fit",
            "dataset": name,
            "updates": len(records),
            "slope_us_per_unit": slope * 1e6 if slope is not None else None,
            "r_squared": r_squared,
        })
    return rows


def run(
    profile: str | None = None,
    datasets: list[str] | None = None,
    seed: int = 2021,
) -> ExperimentResult:
    """Run A4–A7 and render one combined report."""
    if datasets is not None:
        unknown = [n for n in datasets if n not in DATASETS]
        if unknown:
            raise BenchmarkError(f"unknown datasets: {unknown}")
    a4 = run_batch_vs_sequential(profile, datasets, seed)
    a5 = run_decremental_strategies(profile, datasets, seed)
    a6 = run_construction_fast_path(profile, datasets, seed)
    a7 = run_cost_model_fit(profile, datasets, seed)

    sections = [
        format_table(
            ["dataset", "batch_size", "sequential_ms", "batch_ms", "speedup"],
            a4, title="A4 — batch vs sequential insertion",
        ),
        format_table(
            ["dataset", "deletions", "partial_ms", "landmark_rebuild_ms",
             "full_rebuild_ms"],
            a5, title="A5 — decremental strategies (per-deletion ms)",
        ),
        format_table(
            ["dataset", "vertices", "edges", "python_ms", "csr_ms", "speedup"],
            a6, title="A6 — construction fast path (numpy CSR)",
        ),
        format_table(
            ["dataset", "updates", "slope_us_per_unit", "r_squared"],
            a7, title="A7 — update-cost model fit (seconds ~ |R|·m·d·l)",
        ),
    ]
    return ExperimentResult(
        name="extensions", rows=a4 + a5 + a6 + a7, text="\n\n".join(sections)
    )
