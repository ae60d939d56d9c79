"""Ablations A4–A7 (extension features, docs/DESIGN.md §5) as benchmarks.

* A4: batch insertion (one sweep per landmark) vs sequential IncHL+;
* A5: fine-grained DecHL deletion vs per-landmark rebuild;
* A6: numpy CSR construction fast path vs the reference builder;
* A7: end-to-end mixed insert/delete stream on the fully dynamic oracle.

Rendered tables: ``python -m repro.bench extensions``.
"""

import pytest

from repro.core.batch import apply_edge_insertions_batch
from repro.core.construction import build_hcl
from repro.core.construction_fast import build_hcl_fast
from repro.core.dechl import apply_edge_deletion_partial
from repro.core.decremental import apply_edge_deletion
from repro.core.dynamic import DynamicHCL
from repro.workloads.datasets import build_dataset
from repro.workloads.streams import mixed_stream, replay
from repro.workloads.updates import sample_edge_insertions

SEED = 2021

_DATASETS = ["flickr-s", "indochina-s"]


@pytest.mark.parametrize("dataset", _DATASETS)
@pytest.mark.parametrize("mode", ["sequential", "batch"])
def test_a4_batch_vs_sequential(benchmark, profile, dataset, mode):
    spec, graph = build_dataset(dataset, profile=profile.name, seed=SEED)
    batch = sample_edge_insertions(graph, max(4, profile.ablation_updates), rng=14)
    landmarks = DynamicHCL.build(
        graph.copy(), num_landmarks=spec.num_landmarks
    ).landmarks

    def run_sequential():
        working = graph.copy()
        labelling = build_hcl(working, landmarks)
        from repro.core.inchl import apply_edge_insertion

        for u, v in batch:
            working.add_edge(u, v)
            apply_edge_insertion(working, labelling, u, v)
        return labelling

    def run_batch():
        working = graph.copy()
        labelling = build_hcl(working, landmarks)
        for u, v in batch:
            working.add_edge(u, v)
        apply_edge_insertions_batch(working, labelling, batch)
        return labelling

    runner = run_sequential if mode == "sequential" else run_batch
    benchmark.pedantic(runner, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "paper_row": True,
        "ablation": "A4",
        "dataset": dataset,
        "mode": mode,
        "batch_size": len(batch),
    })


@pytest.mark.parametrize("dataset", _DATASETS)
@pytest.mark.parametrize("strategy", ["partial", "rebuild"])
def test_a5_decremental_strategy(benchmark, profile, dataset, strategy):
    spec, graph = build_dataset(dataset, profile=profile.name, seed=SEED)
    edges = sorted(graph.edges())
    deletions = edges[:: max(1, len(edges) // max(4, profile.ablation_updates))][
        : max(4, profile.ablation_updates)
    ]

    delete = (
        apply_edge_deletion_partial if strategy == "partial" else apply_edge_deletion
    )

    landmarks = DynamicHCL.build(
        graph.copy(), num_landmarks=spec.num_landmarks
    ).landmarks

    def run_deletions():
        working = graph.copy()
        labelling = build_hcl(working, landmarks)
        for u, v in deletions:
            delete(working, labelling, u, v)
        return labelling

    benchmark.pedantic(run_deletions, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "paper_row": True,
        "ablation": "A5",
        "dataset": dataset,
        "strategy": strategy,
        "deletions": len(deletions),
    })


@pytest.mark.parametrize("dataset", _DATASETS)
@pytest.mark.parametrize("builder", ["python", "csr"])
def test_a6_construction_fast_path(benchmark, profile, dataset, builder):
    spec, graph = build_dataset(dataset, profile=profile.name, seed=SEED)
    landmarks = DynamicHCL.build(
        graph.copy(), num_landmarks=spec.num_landmarks
    ).landmarks
    build = build_hcl if builder == "python" else build_hcl_fast

    labelling = benchmark(build, graph, landmarks)
    benchmark.extra_info.update({
        "paper_row": True,
        "ablation": "A6",
        "dataset": dataset,
        "builder": builder,
        "label_entries": labelling.label_entries,
    })


@pytest.mark.parametrize("dataset", _DATASETS)
def test_a7_fully_dynamic_stream(benchmark, profile, dataset):
    """Mixed insert/delete stream through the fully dynamic facade —
    the workload the paper's future-work section asks about."""
    spec, graph = build_dataset(dataset, profile=profile.name, seed=SEED)
    events = mixed_stream(
        graph, max(6, profile.ablation_updates), insert_ratio=0.7, rng=15
    )

    def run_stream():
        oracle = DynamicHCL.build(graph.copy(), num_landmarks=spec.num_landmarks)
        return replay(oracle, events)

    records = benchmark.pedantic(run_stream, rounds=1, iterations=1)
    inserts = sum(1 for r in records if r.event.is_insert)
    benchmark.extra_info.update({
        "paper_row": True,
        "ablation": "A7",
        "dataset": dataset,
        "events": len(records),
        "inserts": inserts,
        "deletes": len(records) - inserts,
        "mean_event_ms": round(
            sum(r.seconds for r in records) / len(records) * 1000, 4
        ),
    })
