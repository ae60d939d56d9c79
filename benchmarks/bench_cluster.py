"""Cluster layer — the BENCH record of the replication hot paths.

What a deployment of :mod:`repro.cluster` needs to know, measured on a
representative stand-in:

* **router read overhead** — a `query` / `query_many` round-trip through
  the :class:`ClusterRouter` (raw line passthrough + routing) vs. straight
  to a single :class:`OracleServer` on the same oracle;
* **write + fan-out** — an `update` acknowledged at the WAL, and the full
  propagate-to-all-replicas drain (`snapshot` op);
* **WAL append** — raw :class:`UpdateLog` appends under each fsync
  policy (the write-ack floor).

A 2-replica fleet is spawned once per module (real processes).  Aggregate
qps scaling per replica count lives in the `cluster` experiment
(`python -m repro.bench cluster`), not here — pytest-benchmark rounds are
too short to saturate a fleet.

Run:  pytest benchmarks/bench_cluster.py --benchmark-only
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.cluster import ClusterSupervisor, UpdateLog
from repro.serving.client import ServingClient
from repro.serving.server import OracleServer
from repro.serving.service import OracleService
from repro.core.dynamic import DynamicHCL
from repro.utils.serialization import save_oracle
from repro.workloads.streams import insertion_stream

_DATASET = "flickr-s"  # representative social stand-in
_BATCH = 32
_REPLICAS = 2


@pytest.fixture(scope="module")
def setup(cache, tmp_path_factory):
    spec, graph, _, queries = cache.dataset(_DATASET)
    oracle = cache.build_oracle(_DATASET, "IncHL+")
    tmp = tmp_path_factory.mktemp("bench-cluster")
    oracle_file = tmp / "oracle.json.gz"
    save_oracle(oracle, oracle_file)

    single = OracleServer(
        OracleService(DynamicHCL(oracle.graph.copy(), oracle.labelling)),
        port=0,
    )
    single_addr = single.start_in_thread()

    supervisor = ClusterSupervisor(
        oracle_file, cluster_dir=tmp / "cluster", replicas=_REPLICAS,
        port=0, compact_every=None,
    )
    cluster_addr = supervisor.start_in_thread()

    rng = random.Random(77)
    pairs = [tuple(rng.choice(queries)) for _ in range(_BATCH)]
    inserts = insertion_stream(oracle.graph, 256, rng=rng)
    yield {
        "single": single_addr,
        "cluster": cluster_addr,
        "queries": queries,
        "pairs": pairs,
        "inserts": inserts,
    }
    supervisor.stop_thread()
    single.stop_thread()


def _extra(benchmark, operation, **more):
    benchmark.extra_info.update({
        "paper_row": True,
        "experiment": "cluster",
        "dataset": _DATASET,
        "operation": operation,
        **more,
    })


def test_single_query_roundtrip(benchmark, setup):
    _extra(benchmark, "query-single-server")
    queries = setup["queries"]
    it = itertools.count()
    with ServingClient(*setup["single"]) as client:
        benchmark(lambda: client.query(*queries[next(it) % len(queries)]))


def test_router_query_roundtrip(benchmark, setup):
    _extra(benchmark, "query-via-router", replicas=_REPLICAS)
    queries = setup["queries"]
    it = itertools.count()
    with ServingClient(*setup["cluster"]) as client:
        benchmark(lambda: client.query(*queries[next(it) % len(queries)]))


def test_single_query_many_roundtrip(benchmark, setup):
    _extra(benchmark, "query_many-single-server", batch=_BATCH)
    pairs = setup["pairs"]
    with ServingClient(*setup["single"]) as client:
        benchmark(lambda: client.query_many(pairs))


def test_router_query_many_roundtrip(benchmark, setup):
    _extra(benchmark, "query_many-via-router", replicas=_REPLICAS, batch=_BATCH)
    pairs = setup["pairs"]
    with ServingClient(*setup["cluster"]) as client:
        benchmark(lambda: client.query_many(pairs))


def test_router_update_ack(benchmark, setup):
    """Write acked at the WAL (fan-out proceeds asynchronously)."""
    _extra(benchmark, "update-ack", replicas=_REPLICAS)
    inserts = iter(setup["inserts"])
    with ServingClient(*setup["cluster"]) as client:
        def ack_one():
            event = next(inserts)
            return client.update(event.kind, *event.edge)

        benchmark.pedantic(ack_one, rounds=30, iterations=1)
        client.snapshot()  # leave the fleet drained for later benchmarks


def test_router_update_propagate_all(benchmark, setup):
    """Write + drain: every replica applied and published."""
    _extra(benchmark, "update-propagate-all", replicas=_REPLICAS)
    inserts = iter(reversed(setup["inserts"]))
    with ServingClient(*setup["cluster"]) as client:
        def propagate_one():
            event = next(inserts)
            client.update(event.kind, *event.edge)
            return client.snapshot()

        benchmark.pedantic(propagate_one, rounds=30, iterations=1)


@pytest.mark.parametrize("fsync", ["always", "batch", "never"])
def test_wal_append(benchmark, tmp_path, fsync):
    _extra(benchmark, f"wal-append-{fsync}", fsync=fsync)
    log = UpdateLog(tmp_path / f"wal-{fsync}", fsync=fsync)
    counter = itertools.count()

    def append_one():
        i = next(counter)
        return log.append("insert", i, i + 1)

    benchmark(append_one)
    log.close()
