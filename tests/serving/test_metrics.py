"""Metrics: recorder summaries from the histogram, merge agreement,
thread-safety smoke."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.metrics import LatencyRecorder, ServiceMetrics, merge_summaries


def test_recorder_empty_summary():
    summary = LatencyRecorder().summary()
    hist = summary.pop("hist")
    assert summary == {"count": 0, "qps": 0.0, "mean_ms": None,
                       "p50_ms": None, "p95_ms": None, "p99_ms": None}
    assert hist["count"] == 0  # mergeable histogram rides along, empty


def test_recorder_summary_fields():
    recorder = LatencyRecorder()
    for ms in (1, 2, 3, 4, 5):
        recorder.record(ms / 1000.0)
    summary = recorder.summary()
    assert summary["count"] == 5
    assert summary["qps"] > 0
    assert summary["mean_ms"] == pytest.approx(3.0)  # exact: sum / count
    # Percentiles come from the histogram's factor-2 buckets.
    assert 2.0 <= summary["p50_ms"] <= 4.1
    assert summary["p99_ms"] <= 8.2
    assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
    assert summary["hist"]["count"] == 5


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=80))
def test_summary_equals_its_own_merge(samples):
    """A single node and the cluster aggregate compute one way: merging
    one summary changes none of its numbers."""
    recorder = LatencyRecorder()
    for seconds in samples:
        recorder.record(seconds)
    summary = recorder.summary()
    merged = merge_summaries([summary])
    for key in ("count", "qps", "mean_ms", "p50_ms", "p95_ms", "p99_ms"):
        assert merged[key] == summary[key], key
    assert set(merged) == set(summary)


def test_slow_burst_then_fast_reads_agree_with_the_merge():
    """100 reads of 500 ms, then 5000 of 1 ms: the summary's tail is the
    merged tail (the old ring window said 500 ms, the merge 390.6 ms)."""
    recorder = LatencyRecorder()
    for _ in range(100):
        recorder.record(0.5)
    for _ in range(5000):
        recorder.record(0.001)
    summary = recorder.summary()
    assert summary["p99_ms"] == merge_summaries([summary])["p99_ms"]
    assert summary["p99_ms"] < 500.0


def test_merge_of_no_summaries_is_empty():
    merged = merge_summaries([])
    assert merged["count"] == 0 and merged["qps"] == 0.0
    assert merged["p99_ms"] is None and merged["mean_ms"] is None


def test_concurrent_records_are_not_lost():
    recorder = LatencyRecorder()

    def hammer():
        for _ in range(500):
            recorder.record(0.001)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert recorder.count == 2000


def test_service_metrics_stats_shape():
    metrics = ServiceMetrics()
    metrics.count_applied(3)
    metrics.count_rejected()
    metrics.count_batch()
    metrics.count_snapshot()
    metrics.queries.record(0.002)
    stats = metrics.stats()
    assert stats["events_applied"] == 3
    assert stats["events_rejected"] == 1
    assert stats["batches"] == 1
    assert stats["snapshots_published"] == 1
    assert stats["queries"]["count"] == 1
    assert stats["updates"]["count"] == 0
    assert stats["phases"] == {}  # nothing observed yet
    assert stats["aff"]["count"] == 0


def test_service_metrics_observe_batch_feeds_phase_hists():
    metrics = ServiceMetrics()
    metrics.observe_batch({"find": 0.010, "repair": 0.020}, affected=7)
    metrics.observe_batch({"find": 0.030}, affected=3)
    stats = metrics.stats()
    assert stats["phases"]["find"]["count"] == 2
    assert stats["phases"]["find"]["total"] == pytest.approx(40.0)
    assert stats["phases"]["repair"]["count"] == 1
    assert "coalesce" not in stats["phases"]  # empty hists are elided
    assert stats["aff"]["count"] == 2
    assert stats["aff"]["p99"] >= stats["aff"]["p50"]

