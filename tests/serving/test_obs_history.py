"""Server-side continuous observability: the ``profile``/``history``/
``alerts`` protocol ops, the metrics-history recorder, and the SLO
evaluator wired into a live single-node server."""

from __future__ import annotations

import pytest

from repro.core.dynamic import DynamicHCL
from repro.graph.generators import grid_graph
from repro.obs.profile import reset_profiler
from repro.obs.slo import SLO
from repro.obs.timeseries import read_series
from repro.serving.client import ServingClient
from repro.serving.server import OracleServer
from repro.serving.service import OracleService


def _make_server(**kwargs) -> OracleServer:
    oracle = DynamicHCL.build(grid_graph(4, 4), landmarks=[0, 15])
    return OracleServer(OracleService(oracle), port=0, **kwargs)


@pytest.fixture
def served(monkeypatch, tmp_path):
    """A server with a metrics-history file and a trivially-breachable SLO."""
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    reset_profiler()
    history = tmp_path / "history.ndjson"
    slos = [
        SLO(
            name="always-breached",
            metric="qps",
            objective=1e12,
            direction="below",  # qps < 1e12: every sample violates
            budget=0.5,
            windows=((3600.0, 1.0),),
        )
    ]
    server = _make_server(history_path=history, history_interval=3600.0, slos=slos)
    host, port = server.start_in_thread()
    client = ServingClient(host, port)
    yield server, client, history
    client.close()
    server.stop_thread()
    reset_profiler()


class TestHistoryOp:
    def test_history_records_and_serves_points(self, served):
        server, client, history_file = served
        client.query(0, 15)
        # The interval is huge on purpose; force ticks deterministically.
        server.history.record_once()
        server.history.record_once()
        response = client.history()
        assert response["recording"] is True
        assert response["path"] == str(history_file)
        points = response["points"]
        assert len(points) == 2
        assert points[0]["ts"] > 0
        assert "qps" in points[0] and "query_p99_ms" in points[0]
        assert points[0]["rss_kb"] > 0
        # The same trajectory landed on disk.
        assert [p["ts"] for p in read_series(history_file)] == [
            p["ts"] for p in points
        ]

    def test_history_limit(self, served):
        server, client, _ = served
        for _ in range(5):
            server.history.record_once()
        assert len(client.history(limit=2)["points"]) == 2

    def test_history_op_without_recorder(self):
        server = _make_server()
        host, port = server.start_in_thread()
        try:
            with ServingClient(host, port) as client:
                response = client.history()
        finally:
            server.stop_thread()
        assert response["recording"] is False
        assert response["points"] == []

    def test_error_rate_is_a_per_tick_delta(self, served):
        server, client, _ = served
        client.update("insert", 0, 15)
        client.snapshot()
        first = server.history.record_once()
        assert first["events_applied"] == 1
        assert first["error_rate"] == 0.0
        # A writer-side rejection (duplicate insert) dominates the next
        # tick's delta — but must not bleed into the tick after it.
        client.update("insert", 0, 15)
        client.snapshot()
        second = server.history.record_once()
        assert second["error_rate"] == 1.0
        third = server.history.record_once()
        assert third["error_rate"] == 0.0

    def test_read_tail_is_a_per_tick_interval(self, monkeypatch):
        """A burst of slow reads fires the p99 SLO, and the next tick —
        fast reads only — resolves it: each point's percentiles and qps
        cover the reads since the previous point, not all time."""
        import repro.serving.service as service_module
        from repro.serving.snapshot import OracleSnapshot

        slo = SLO(
            name="query-p99",
            metric="query_p99_ms",
            objective=100.0,
            budget=0.5,
            windows=((3600.0, 1.5),),  # fires on 1 bad of 1, not 1 of 2
        )
        server = _make_server(history_interval=3600.0, slos=[slo])
        host, port = server.start_in_thread()
        try:
            # Slow reads without waiting: the service's clock jumps 0.5 s
            # inside every query_many.
            skew = [0.0]
            real_clock = service_module.perf_counter
            real_query_many = OracleSnapshot.query_many

            def slow_query_many(self, pairs):
                skew[0] += 0.5
                return real_query_many(self, pairs)

            monkeypatch.setattr(
                service_module, "perf_counter", lambda: real_clock() + skew[0]
            )
            monkeypatch.setattr(OracleSnapshot, "query_many", slow_query_many)
            with ServingClient(host, port) as client:
                for _ in range(100):
                    client.query_many([(0, 15)])
                first = server.history.record_once()
                assert first["query_p99_ms"] > 100.0
                assert client.alerts()["evaluations"][0]["firing"] is True

                monkeypatch.setattr(OracleSnapshot, "query_many", real_query_many)
                for _ in range(200):
                    client.query_many([(0, 15)])
                second = server.history.record_once()
                assert second["query_p99_ms"] < 100.0
                assert second["qps"] > 0
                alerts = client.alerts()
                assert alerts["evaluations"][0]["firing"] is False
                assert alerts["alerts"] == []

                # An interval without reads: no percentiles, zero qps.
                third = server.history.record_once()
                assert third["qps"] == 0.0
                assert third["query_p50_ms"] is None
                assert third["query_p99_ms"] is None
                # The lifetime summary still holds every read.
                assert client.stats()["queries"]["count"] == 300
        finally:
            server.stop_thread()


class TestAlertsOp:
    def test_alerts_fire_through_the_wire(self, served):
        server, client, _ = served
        server.history.record_once()  # on_point runs the evaluator
        response = client.alerts()
        assert [s["name"] for s in response["slos"]] == ["always-breached"]
        (evaluation,) = response["evaluations"]
        assert evaluation["firing"] is True
        (alert,) = response["alerts"]
        assert alert["slo"] == "always-breached"
        # The breach surfaces on the metrics registry too.
        text = client.metrics()
        assert 'repro_slo_breach{slo="always-breached"} 1' in text

    def test_alerts_op_without_slos(self):
        server = _make_server()
        host, port = server.start_in_thread()
        try:
            with ServingClient(host, port) as client:
                response = client.alerts()
        finally:
            server.stop_thread()
        assert response == {
            "ok": True, "alerts": [], "evaluations": [], "slos": [],
        }


class TestProfileOp:
    def test_profile_lifecycle_over_the_wire(self, served):
        _, client, _ = served
        started = client.profile(action="start")
        assert started["profile"]["running"] is True
        client.query(0, 15)
        stopped = client.profile(action="stop")
        assert stopped["profile"]["running"] is False
        dumped = client.profile(action="dump")
        assert isinstance(dumped["folded"], str)
        reset = client.profile(action="reset")
        assert reset["profile"]["samples"] == 0

    def test_profile_unknown_action_is_an_error(self, served):
        from repro.exceptions import ServingError

        _, client, _ = served
        with pytest.raises(ServingError, match="unknown profile action"):
            client.profile(action="explode")
