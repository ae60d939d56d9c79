"""A tiny blocking client for the newline-delimited JSON protocol.

Used by the closed-loop load generator of the ``serving`` bench
experiment's TCP mode, the CI smoke checks (``tools/serving_smoke.py``,
``tools/cluster_smoke.py``) and the test-suite; applications may of
course speak the protocol from any language — it is one JSON object per
line in each direction (:mod:`repro.serving.server`).

The same client speaks to a single :class:`~repro.serving.server.OracleServer`
and to a :class:`~repro.cluster.router.ClusterRouter` front door — the
wire protocol is identical.  Against a cluster, ``min_epoch`` gates a
read to a replica that has applied at least that log position
(read-your-writes: pass the ``epoch`` an update acknowledgement
returned).
"""

from __future__ import annotations

import json
import socket

from repro.exceptions import ServingError

__all__ = ["ServingClient"]


class ServingClient:
    """One blocking TCP connection to an :class:`OracleServer` (or a
    :class:`~repro.cluster.router.ClusterRouter`).

    Usable as a context manager; not thread-safe (use one client per
    thread — connections are cheap and the server is happy to hold many).
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def request(self, payload: dict) -> dict:
        """Send one request object, return the decoded response object."""
        self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServingError("server closed the connection")
        return json.loads(line)

    def pipeline(self, payloads, chunk: int = 256) -> list[dict]:
        """Send a burst of request objects back-to-back, then read all the
        responses: one flush and one wire round-trip per ``chunk`` of
        requests instead of one per request (responses come back in
        order).  Writes and reads interleave every ``chunk`` requests so
        an arbitrarily large burst can never deadlock on full socket
        buffers (the server answers as it reads; were the client to write
        everything first, both sides could block once the unread
        responses exceed the buffers)."""
        payloads = list(payloads)
        write = self._file.write
        responses: list[dict] = []
        for base in range(0, len(payloads), max(1, chunk)):
            batch = payloads[base : base + max(1, chunk)]
            for payload in batch:
                write(json.dumps(payload).encode("utf-8") + b"\n")
            self._file.flush()
            for _ in batch:
                line = self._file.readline()
                if not line:
                    raise ServingError(
                        "server closed the connection mid-pipeline"
                    )
                responses.append(json.loads(line))
        return responses

    def _checked(self, payload: dict) -> dict:
        response = self.request(payload)
        if not response.get("ok"):
            raise ServingError(response.get("error", "request failed"))
        return response

    @staticmethod
    def _with_epoch(payload: dict, min_epoch: int | None) -> dict:
        if min_epoch is not None:
            payload["min_epoch"] = min_epoch
        return payload

    @staticmethod
    def _with_trace(payload: dict, trace: str | None) -> dict:
        """Attach a trace id: the server (and, through it, router and
        replica) records spans for this request under that id."""
        if trace is not None:
            payload["trace"] = trace
        return payload

    # -- convenience wrappers, mirroring the protocol ops ---------------
    def query(
        self,
        u: int,
        v: int,
        min_epoch: int | None = None,
        trace: str | None = None,
    ) -> float:
        """Exact distance; ``inf`` when unreachable.  ``min_epoch`` (cluster
        only) demands a replica that has applied at least that log seq."""
        payload = self._with_trace(
            self._with_epoch({"op": "query", "u": u, "v": v}, min_epoch), trace
        )
        distance = self._checked(payload)["distance"]
        return float("inf") if distance is None else distance

    def query_many(
        self, pairs, min_epoch: int | None = None, trace: str | None = None
    ) -> list[float]:
        """Batch distances in **one** NDJSON ``query_many`` frame — a
        single round-trip for the whole list, answered on one consistent
        snapshot (never N sequential ``query`` round-trips)."""
        payload = self._with_trace(
            self._with_epoch(
                {"op": "query_many", "pairs": [list(p) for p in pairs]},
                min_epoch,
            ),
            trace,
        )
        response = self._checked(payload)
        return [
            float("inf") if d is None else d for d in response["distances"]
        ]

    def path(self, u: int, v: int, min_epoch: int | None = None) -> list[int] | None:
        payload = self._with_epoch({"op": "path", "u": u, "v": v}, min_epoch)
        return self._checked(payload)["path"]

    def update(self, kind: str, u: int, v: int, trace: str | None = None) -> dict:
        """Submit one update; against a cluster the response's ``epoch`` is
        the log position to pass as ``min_epoch`` for read-your-writes."""
        return self._checked(
            self._with_trace(
                {"op": "update", "kind": kind, "u": u, "v": v}, trace
            )
        )

    def updates(self, events, trace: str | None = None) -> dict:
        """Submit ``[(kind, u, v), ...]`` in one round-trip."""
        return self._checked(
            self._with_trace(
                {"op": "updates", "events": [[k, u, v] for k, u, v in events]},
                trace,
            )
        )

    def stats(self) -> dict:
        return self._checked({"op": "stats"})["stats"]

    def metrics(self) -> str:
        """The server's Prometheus text exposition over the NDJSON socket
        (the same bytes ``--metrics-port`` serves over HTTP)."""
        return self._checked({"op": "metrics"})["metrics"]

    def spans(self, of: str | None = None, limit: int = 256) -> list[dict]:
        """Recent spans from the server's recorder; ``of`` filters to one
        trace id."""
        payload: dict = {"op": "spans", "limit": limit}
        if of is not None:
            payload["of"] = of
        return self._checked(payload)["spans"]

    def history(self, limit: int = 120) -> dict:
        """The server's metrics-history points (``repro top`` source);
        ``points`` is empty when the server records no history."""
        return self._checked({"op": "history", "limit": limit})

    def alerts(self) -> dict:
        """SLO state: ``alerts`` (firing), ``evaluations``, ``slos``."""
        return self._checked({"op": "alerts"})

    def profile(self, action: str = "dump", folded: bool = True) -> dict:
        """Control/dump the server's sampling profiler (``action``:
        ``dump``/``start``/``stop``/``reset``)."""
        return self._checked(
            {"op": "profile", "action": action, "folded": folded}
        )

    def snapshot(self) -> dict:
        """Force-publish a snapshot (single node) / drain every replica to
        the log head (cluster); returns epoch info."""
        return self._checked({"op": "snapshot"})

    def ping(self) -> bool:
        return bool(self._checked({"op": "ping"}).get("pong"))

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
