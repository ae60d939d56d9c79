"""Figure 3 — average update time under 10–50 landmarks, IncHL+ vs IncFD.

One benchmark per (dataset, |R|, method): build with that landmark count,
replay the same insertion stream, record mean per-update time.  The
IncFD/IncHL+ ratio across the sweep is the figure's bar-height gap.
Rendered series: ``python -m repro.bench figure3``.
"""

import pytest

from repro.baselines.fd import FullDynamicOracle
from repro.bench.runner import paper_insert
from repro.core.dynamic import DynamicHCL
from repro.workloads.datasets import build_dataset
from repro.workloads.updates import sample_edge_insertions

SEED = 2021


@pytest.mark.parametrize("method", ["IncHL+", "IncFD"])
@pytest.mark.parametrize("num_landmarks", [10, 20, 30, 40, 50])
@pytest.mark.parametrize(
    "dataset",
    ["skitter-s", "flickr-s", "orkut-s", "indochina-s", "twitter-s", "uk-s"],
)
def test_update_vs_landmarks(benchmark, profile, dataset, num_landmarks, method):
    if num_landmarks not in profile.figure3_landmark_counts:
        pytest.skip(f"|R|={num_landmarks} outside the {profile.name} sweep")
    if (
        profile.figure3_datasets is not None
        and dataset not in profile.figure3_datasets
    ):
        pytest.skip(f"{dataset} outside the {profile.name} sweep")
    spec, graph = build_dataset(dataset, profile=profile.name, seed=SEED)
    insertions = sample_edge_insertions(graph, profile.figure3_updates, rng=3)

    def replay():
        working = graph.copy()
        if method == "IncHL+":
            oracle = DynamicHCL.build(working, num_landmarks=num_landmarks)
        else:
            oracle = FullDynamicOracle(working, num_landmarks=num_landmarks)
        insert = paper_insert(oracle)
        for u, v in insertions:
            insert(u, v)

    benchmark.pedantic(replay, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "paper_row": True,
        "figure": "3",
        "dataset": dataset,
        "R": num_landmarks,
        "method": method,
        "update_ms": round(
            benchmark.stats.stats.mean * 1000 / len(insertions), 4
        ),
    })
