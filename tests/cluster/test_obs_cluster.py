"""Cluster observability end-to-end: trace propagation through the wire,
exact merged percentiles in the aggregate, lag gauges in the exposition.

Router and replicas live in one process here (shared span recorder), but
the trace id still travels the real NDJSON sockets: the client stamps it,
the router spans its forward and relays the request line verbatim, and
the replica spans its dispatch off the relayed line.
"""

from __future__ import annotations

import pytest

from repro.obs.exporter import CONTENT_TYPE
from repro.obs.trace import new_trace_id, reset_recorder
from repro.serving.client import ServingClient

from tests.cluster.conftest import InProcessCluster


@pytest.fixture
def cluster(small_oracle, monkeypatch):
    monkeypatch.delenv("REPRO_SPAN_LOG", raising=False)
    monkeypatch.delenv("REPRO_OBS", raising=False)
    reset_recorder()
    fleet = InProcessCluster(small_oracle, replicas=2)
    client = ServingClient(*fleet.address)
    yield fleet, client
    client.close()
    fleet.close()
    reset_recorder()


def test_trace_id_propagates_client_router_replica(cluster):
    _, client = cluster
    tid = new_trace_id()
    assert client.query(0, 15, trace=tid) == 6
    spans = client.spans(of=tid)
    assert spans and all(s["trace"] == tid for s in spans)
    by_component = {s["component"] for s in spans}
    # One request, spans on both sides of the wire hop.
    assert {"router", "replica"} <= by_component
    for s in spans:
        assert s["dur_ms"] >= 0.0

    # Untraced traffic leaves no spans behind.
    assert client.query(0, 15) == 6
    assert client.spans(of="0" * 16) == []


def test_spans_op_respects_limit(cluster):
    _, client = cluster
    tid = new_trace_id()
    for _ in range(3):
        client.query(0, 15, trace=tid)
    assert len(client.spans(of=tid, limit=2)) == 2


def test_metrics_op_serves_prometheus_text_with_lag_gauges(cluster):
    _, client = cluster
    client.update("insert", 0, 15)
    assert client.snapshot()["ok"]  # drain: every replica acked the head
    raw = client.request({"op": "metrics"})
    assert raw["ok"]
    assert raw["content_type"] == CONTENT_TYPE
    text = raw["metrics"]
    assert client.metrics().startswith("# HELP")
    for replica in ("r0", "r1"):
        assert f'repro_replica_lag{{replica="{replica}"}} 0' in text
        assert f'repro_replica_healthy{{replica="{replica}"}} 1' in text
    assert "repro_wal_head_seq 1" in text
    assert "repro_router_read_latency_seconds_bucket" in text


def test_aggregate_percentiles_are_exact_merges(cluster):
    fleet, client = cluster
    for _ in range(20):
        client.query(0, 15)
    stats = client.stats()
    merged = stats["aggregate"]["queries"]
    # Lossless merge: the aggregate count is the pooled population, i.e.
    # exactly the sum of what each replica's own recorder saw.
    per_replica = [
        entry["service"]["queries"]["count"]
        for entry in stats["replicas"].values()
    ]
    assert merged["count"] == sum(per_replica) == 20
    assert merged["hist"]["count"] == 20
    assert merged["p50_ms"] <= merged["p95_ms"] <= merged["p99_ms"]
    assert merged["qps"] > 0


def test_router_stats_expose_wal_footprint(cluster):
    _, client = cluster
    client.updates([("insert", 0, 15), ("insert", 1, 14)])
    wal = client.stats()["wal"]
    assert wal["head"] == 2
    assert wal["base"] == 0
    # In-memory log in this fixture: no on-disk segments.
    assert wal["segments"] == 0 and wal["bytes"] == 0
