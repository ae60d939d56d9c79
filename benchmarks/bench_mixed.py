"""Mixed insert/delete batch engine — the BENCH record of the speedup.

Benchmarks one interleaved insert/delete stream replay per mode on the
same dataset (the fully-dynamic extension of the Figure-4 replay):

* ``sequential`` — the paper's kernels, one event at a time (IncHL+
  insertions, DecHL deletions) through ``replay_events``;
* ``fallback``   — insert runs on the vectorized engine, deletions
  through the DecHL kernel on a materialized labelling + re-attach (the
  pre-mixed-engine serving behaviour);
* ``mixed``      — the BatchHL-style mixed batch engine, one net
  find/repair sweep per landmark per chunk.

Each round replays the whole stream on a fresh graph/labelling copy
built in the round's *untimed* setup.  Every mode re-verifies
byte-identity against the sequential reference labelling before timings
are accepted.

Run:  pytest benchmarks/bench_mixed.py --benchmark-only
"""

import pytest

from repro.bench.experiments.mixed import replay_fallback
from repro.core.batch import replay_events
from repro.core.dynamic import DynamicHCL
from repro.landmarks.selection import top_degree_landmarks
from repro.workloads.streams import mixed_stream

_DATASET = "flickr-s"  # representative social stand-in
_INSERT_RATIO = 0.6


@pytest.fixture(scope="module")
def setup(cache, profile):
    spec, graph, _, _ = cache.dataset(_DATASET)
    landmarks = top_degree_landmarks(graph, spec.num_landmarks)
    events = mixed_stream(
        graph, profile.figure4_total, insert_ratio=_INSERT_RATIO, rng=2021
    )
    base = DynamicHCL.build(graph.copy(), landmarks=landmarks, construction="csr")
    reference = base.labelling
    replay_events(graph.copy(), reference, events)
    return graph, events, base.labelling, reference


def _extra(benchmark, mode, events):
    benchmark.extra_info.update({
        "paper_row": True,
        "experiment": "mixed-batch",
        "dataset": _DATASET,
        "mode": mode,
        "events": len(events),
        "deletes": sum(1 for e in events if not e.is_insert),
    })


def _make_setup(graph, base_labelling):
    """Per-round untimed setup: a fresh oracle, its engine attached."""

    def _setup():
        return (DynamicHCL(graph.copy(), base_labelling),), {}

    return _setup


def test_sequential_replay(benchmark, setup):
    graph, events, base, expected = setup
    result = []

    def _setup():
        return (graph.copy(), base.copy()), {}

    def replay(working, labelling):
        replay_events(working, labelling, events)
        result.append(labelling)

    benchmark.pedantic(replay, setup=_setup, rounds=3, warmup_rounds=1)
    assert result[-1] == expected
    _extra(benchmark, "sequential", events)


def test_fallback_replay(benchmark, setup, profile):
    graph, events, base, expected = setup
    chunk_size = max(1, min(profile.figure4_batch, len(events)))
    result = []

    def replay(oracle):
        result.append(replay_fallback(oracle, events, chunk_size)[1])

    benchmark.pedantic(
        replay, setup=_make_setup(graph, base),
        rounds=3, warmup_rounds=1,
    )
    assert result[-1].labelling == expected
    _extra(benchmark, "fallback", events)


def test_mixed_batch_replay(benchmark, setup, profile):
    graph, events, base, expected = setup
    chunk_size = max(1, min(profile.figure4_batch, len(events)))
    result = []

    def replay(oracle):
        for start in range(0, len(events), chunk_size):
            oracle.apply_events_batch(events[start : start + chunk_size])
        result.append(oracle)

    benchmark.pedantic(
        replay, setup=_make_setup(graph, base),
        rounds=3, warmup_rounds=1,
    )
    assert result[-1].labelling == expected  # byte-identity contract
    _extra(benchmark, f"mixed/{chunk_size}", events)
