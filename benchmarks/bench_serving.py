"""Serving layer — the BENCH record of snapshot-read cost and capture cost.

What a deployment of :mod:`repro.serving` needs to know, measured per
dataset stand-in:

* **snapshot-read overhead** — a distance query answered through a frozen
  :class:`~repro.serving.snapshot.OracleSnapshot` vs directly on the live
  oracle (the snapshot views are duck-typed dict wrappers; this records
  that the isolation layer is near-free);
* **batch amortisation** — ``query_many`` on one pinned snapshot vs a loop
  of single ``query`` calls (the serving hot path uses the former);
* **snapshot capture** — :meth:`DynamicHCL.snapshot` cost right after an
  update (copy-on-write pointer copies, not deep copies);
* **end-to-end service read** — queries through a running
  :class:`~repro.serving.service.OracleService` while its writer absorbs
  a mixed update stream (correctness asserted before timings count).

Run:  pytest benchmarks/bench_serving.py --benchmark-only
"""

import itertools
import random

import pytest

from repro.core.dynamic import DynamicHCL
from repro.serving.service import OracleService
from repro.workloads.streams import mixed_stream

_DATASET = "flickr-s"  # representative social stand-in
_BATCH = 64


@pytest.fixture(scope="module")
def setup(cache):
    spec, graph, _, queries = cache.dataset(_DATASET)
    oracle = cache.build_oracle(_DATASET, "IncHL+")
    rng = random.Random(77)
    pairs = [tuple(rng.choice(queries)) for _ in range(_BATCH)]
    return oracle, queries, pairs


def _extra(benchmark, operation, **more):
    benchmark.extra_info.update({
        "paper_row": True,
        "experiment": "serving",
        "dataset": _DATASET,
        "operation": operation,
        **more,
    })


def test_live_query(benchmark, setup):
    oracle, queries, _ = setup
    _extra(benchmark, "query-live")
    it = itertools.count()
    benchmark(lambda: oracle.query(*queries[next(it) % len(queries)]))


def test_snapshot_query(benchmark, setup):
    oracle, queries, _ = setup
    snap = oracle.snapshot()
    # Snapshot answers must match the live oracle before timings count.
    for u, v in queries[:16]:
        assert snap.query(u, v) == oracle.query(u, v)
    _extra(benchmark, "query-snapshot")
    it = itertools.count()
    benchmark(lambda: snap.query(*queries[next(it) % len(queries)]))


def test_query_loop_vs_many_loop(benchmark, setup):
    oracle, _, pairs = setup
    snap = oracle.snapshot()
    _extra(benchmark, "query-single-loop", batch=_BATCH)
    benchmark(lambda: [snap.query(u, v) for u, v in pairs])


def test_query_many(benchmark, setup):
    oracle, _, pairs = setup
    snap = oracle.snapshot()
    assert snap.query_many(pairs) == [snap.query(u, v) for u, v in pairs]
    _extra(benchmark, "query-many", batch=_BATCH)
    benchmark(lambda: snap.query_many(pairs))


def test_snapshot_capture(benchmark, setup):
    oracle, _, _ = setup
    non_edge = _fresh_non_edge(oracle.graph)

    def capture():
        # Invalidate the cached snapshot so each round truly re-captures.
        u, v = non_edge
        oracle.insert_edge(u, v)
        oracle.remove_edge(u, v)
        return oracle.snapshot()

    _extra(benchmark, "snapshot-capture")
    benchmark.pedantic(capture, rounds=10, iterations=1)


def test_service_read_under_writer(benchmark, setup, profile):
    oracle, queries, _ = setup
    events = mixed_stream(oracle.graph, profile.serving_updates, rng=5)
    _extra(benchmark, "service-read-under-writer")

    def serve_round():
        # Fresh oracle copy per round: replaying the same events must not
        # compound mutations across rounds (or leak into other benchmarks).
        fresh = DynamicHCL(oracle.graph.copy(), oracle.labelling)
        service = OracleService(fresh)
        with service:
            service.submit_many(events)
            total = 0.0
            for u, v in queries:
                total += 0 if service.query(u, v) == float("inf") else 1
            service.flush()
        return total

    benchmark.pedantic(serve_round, rounds=3, iterations=1)


def _fresh_non_edge(graph):
    vertices = sorted(graph.vertices())
    rng = random.Random(13)
    while True:
        u, v = rng.choice(vertices), rng.choice(vertices)
        if u != v and not graph.has_edge(u, v):
            return (u, v)
