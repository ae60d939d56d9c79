"""Vectorized vs pure-Python update path — the BENCH record of the speedup.

Benchmarks one IncHL+ insertion replay per mode on the same dataset and
stream (the per-update granularity of the paper's Figure 4):

* ``python``     — the paper's IncHL+ kernel, called directly, one edge
  at a time;
* ``fast``       — vectorized CSR engine, one edge at a time;
* ``fast-batch`` — vectorized CSR engine, one combined sweep per chunk.

Each round replays the whole stream on a fresh graph/labelling copy
built in the round's *untimed* setup (oracle state is mutated, so rounds
cannot share one; the fast engine's one-off attach cost is part of setup
too — the ``incremental_fast`` experiment reports it as its own column).
The fast rounds re-verify byte-identity against a python-path reference
labelling before timings are accepted.

Run:  pytest benchmarks/bench_incremental_fast.py --benchmark-only
"""

import pytest

from repro.core.dynamic import DynamicHCL
from repro.core.inchl import apply_edge_insertion
from repro.landmarks.selection import top_degree_landmarks

_DATASET = "flickr-s"  # representative social stand-in


@pytest.fixture(scope="module")
def setup(cache, profile):
    spec, graph, insertions, _ = cache.dataset(_DATASET)
    landmarks = top_degree_landmarks(graph, spec.num_landmarks)
    base = DynamicHCL.build(graph.copy(), landmarks=landmarks, construction="csr")
    reference_graph, reference = graph.copy(), base.labelling.copy()
    for u, v in insertions:
        reference_graph.add_edge(u, v)
        apply_edge_insertion(reference_graph, reference, u, v)
    return graph, landmarks, insertions, base.labelling, reference


def _extra(benchmark, mode, insertions):
    benchmark.extra_info.update({
        "paper_row": True,
        "experiment": "incremental-fast",
        "dataset": _DATASET,
        "mode": mode,
        "updates": len(insertions),
    })


def _make_setup(graph, base_labelling):
    """Per-round untimed setup: a fresh oracle, its engine attached."""

    def _setup():
        return (DynamicHCL(graph.copy(), base_labelling),), {}

    return _setup


def test_python_replay(benchmark, setup):
    graph, landmarks, insertions, base, expected = setup
    result = []

    def _setup():
        return (graph.copy(), base.copy()), {}

    def replay(working, labelling):
        for u, v in insertions:
            working.add_edge(u, v)
            apply_edge_insertion(working, labelling, u, v)
        result.append(labelling)

    benchmark.pedantic(replay, setup=_setup, rounds=3, warmup_rounds=1)
    assert result[-1] == expected
    _extra(benchmark, "python", insertions)


def test_fast_replay(benchmark, setup):
    graph, landmarks, insertions, base, expected = setup
    result = []

    def replay(oracle):
        for u, v in insertions:
            oracle.insert_edge(u, v)
        result.append(oracle)

    benchmark.pedantic(
        replay, setup=_make_setup(graph, base),
        rounds=3, warmup_rounds=1,
    )
    assert result[-1].labelling == expected  # byte-identity contract
    _extra(benchmark, "fast", insertions)


def test_fast_batch_replay(benchmark, setup, profile):
    graph, landmarks, insertions, base, expected = setup
    chunk = max(1, min(profile.figure4_batch, len(insertions)))
    result = []

    def replay(oracle):
        for start in range(0, len(insertions), chunk):
            oracle.insert_edges_batch(insertions[start : start + chunk])
        result.append(oracle)

    benchmark.pedantic(
        replay, setup=_make_setup(graph, base),
        rounds=3, warmup_rounds=1,
    )
    assert result[-1].labelling == expected
    _extra(benchmark, f"fast-batch/{chunk}", insertions)
