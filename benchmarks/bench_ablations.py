"""Ablations A1–A3 (docs/DESIGN.md §5) as benchmarks.

* A1: landmark selection strategy — update-stream time per strategy;
* A2: IncHL+ update vs from-scratch rebuild (speedup in extra_info);
* A3: random-pair insertions vs replayed real edges (affected sizes).

Rendered tables: ``python -m repro.bench ablations``.
"""

import pytest

from repro.bench.runner import paper_insert
from repro.core.construction import build_hcl
from repro.core.dynamic import DynamicHCL
from repro.workloads.datasets import build_dataset
from repro.workloads.updates import held_out_edges, sample_edge_insertions

SEED = 2021

_A1_DATASETS = ["flickr-s", "indochina-s"]


@pytest.mark.parametrize("strategy", ["degree", "random", "betweenness", "spread"])
@pytest.mark.parametrize("dataset", _A1_DATASETS)
def test_a1_landmark_strategy(benchmark, profile, dataset, strategy):
    spec, graph = build_dataset(dataset, profile=profile.name, seed=SEED)
    insertions = sample_edge_insertions(graph, profile.ablation_updates, rng=5)

    def replay():
        oracle = DynamicHCL.build(
            graph.copy(), num_landmarks=spec.num_landmarks,
            strategy=strategy, rng=SEED,
        )
        insert = paper_insert(oracle)
        for u, v in insertions:
            insert(u, v)
        return insert.labelling

    labelling = benchmark.pedantic(replay, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "paper_row": True,
        "ablation": "A1",
        "dataset": dataset,
        "strategy": strategy,
        "label_entries": labelling.label_entries,
        "update_ms": round(
            benchmark.stats.stats.mean * 1000 / len(insertions), 4
        ),
    })


@pytest.mark.parametrize("dataset", ["flickr-s", "indochina-s", "uk-s"])
def test_a2_update_vs_rebuild(benchmark, profile, dataset):
    spec, graph = build_dataset(dataset, profile=profile.name, seed=SEED)
    insertions = sample_edge_insertions(graph, profile.ablation_updates, rng=6)
    oracle = DynamicHCL.build(graph, num_landmarks=spec.num_landmarks)
    from repro.utils.timing import Stopwatch

    insert = paper_insert(oracle)
    with Stopwatch() as sw:
        for u, v in insertions:
            insert(u, v)
    update_ms = sw.elapsed * 1000 / len(insertions)

    benchmark.pedantic(
        lambda: build_hcl(graph, oracle.landmarks), rounds=1, iterations=1
    )
    rebuild_ms = benchmark.stats.stats.mean * 1000
    benchmark.extra_info.update({
        "paper_row": True,
        "ablation": "A2",
        "dataset": dataset,
        "update_ms": round(update_ms, 4),
        "rebuild_ms": round(rebuild_ms, 1),
        "speedup": round(rebuild_ms / update_ms, 1),
    })


@pytest.mark.parametrize("workload", ["random-pairs", "replayed-edges"])
@pytest.mark.parametrize("dataset", _A1_DATASETS)
def test_a3_workload_realism(benchmark, profile, dataset, workload):
    spec, graph = build_dataset(dataset, profile=profile.name, seed=SEED)
    if workload == "random-pairs":
        working = graph.copy()
        stream = sample_edge_insertions(working, profile.ablation_updates, rng=7)
    else:
        working = graph.copy()
        stream = held_out_edges(working, profile.ablation_updates, rng=7)

    def replay():
        oracle = DynamicHCL.build(
            working.copy(), num_landmarks=spec.num_landmarks
        )
        insert = paper_insert(oracle)
        affected = [insert(u, v).affected_union for u, v in stream]
        return affected

    affected = benchmark.pedantic(replay, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "paper_row": True,
        "ablation": "A3",
        "dataset": dataset,
        "workload": workload,
        "update_ms": round(benchmark.stats.stats.mean * 1000 / len(stream), 4),
        "mean_affected": round(sum(affected) / len(affected), 1),
        "max_affected": max(affected),
    })
