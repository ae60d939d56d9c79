"""Figure 4 — cumulative update time vs labelling construction from scratch.

Two benchmarks per dataset: maintaining the labelling through the whole
update schedule (the paper's rising curve) and rebuilding it from scratch
on the final graph (the flat line).  ``extra_info`` records how many
updates one rebuild amortises — the figure's takeaway.
Rendered series: ``python -m repro.bench figure4``.
"""

import pytest

from repro.bench.runner import paper_insert
from repro.core.construction import build_hcl
from repro.core.dynamic import DynamicHCL
from repro.workloads.datasets import dataset_names
from repro.workloads.updates import sample_edge_insertions


@pytest.mark.parametrize("dataset", dataset_names())
def test_cumulative_updates(benchmark, cache, profile, dataset):
    spec, graph, _, _ = cache.dataset(dataset)
    insertions = sample_edge_insertions(graph, profile.figure4_total, rng=4)

    def maintain():
        oracle = DynamicHCL.build(graph.copy(), num_landmarks=spec.num_landmarks)
        insert = paper_insert(oracle)
        for u, v in insertions:
            insert(u, v)
        return oracle

    oracle = benchmark.pedantic(maintain, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "paper_row": True,
        "figure": "4-maintain",
        "dataset": dataset,
        "updates": len(insertions),
        "cumulative_s": round(benchmark.stats.stats.mean, 3),
    })


@pytest.mark.parametrize("dataset", dataset_names())
def test_rebuild_from_scratch(benchmark, cache, profile, dataset):
    spec, graph, _, _ = cache.dataset(dataset)
    insertions = sample_edge_insertions(graph, profile.figure4_total, rng=4)
    grown = graph.copy()
    oracle = DynamicHCL.build(grown, num_landmarks=spec.num_landmarks)
    per_update = 0.0
    if insertions:
        from repro.utils.timing import Stopwatch

        insert = paper_insert(oracle)
        with Stopwatch() as sw:
            for u, v in insertions:
                insert(u, v)
        per_update = sw.elapsed / len(insertions)

    benchmark.pedantic(
        lambda: build_hcl(grown, oracle.landmarks), rounds=1, iterations=1
    )
    rebuild_s = benchmark.stats.stats.mean
    benchmark.extra_info.update({
        "paper_row": True,
        "figure": "4-rebuild",
        "dataset": dataset,
        "rebuild_s": round(rebuild_s, 3),
        "updates_per_rebuild": (
            round(rebuild_s / per_update) if per_update > 0 else None
        ),
    })
