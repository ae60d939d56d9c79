"""Asyncio TCP front-ends speaking newline-delimited JSON.

One request per line, one JSON object per response line.  Ops::

    {"op": "query",      "u": 17, "v": 4242}
    {"op": "query_many", "pairs": [[0, 5], [3, 9]]}
    {"op": "path",       "u": 17, "v": 4242}
    {"op": "update",     "kind": "insert", "u": 17, "v": 4242}
    {"op": "updates",    "events": [["insert", 1, 2], ["delete", 3, 4]]}
    {"op": "stats"}
    {"op": "metrics"}
    {"op": "spans", "of": "<trace-id>", "limit": 100}
    {"op": "profile", "action": "dump", "folded": true}
    {"op": "history", "limit": 120}
    {"op": "alerts"}
    {"op": "snapshot"}
    {"op": "ping"}

Any request may carry ``"trace": "<id>"`` — the observability layer then
records a span around its dispatch (and the cluster router propagates
the id to the replica, since read lines are forwarded verbatim); see
:mod:`repro.obs.trace`.  ``metrics`` returns the Prometheus text
exposition (also served over HTTP with ``--metrics-port``), ``spans``
the recent span ring.  The continuous-observability ops
(docs/DESIGN.md §13): ``profile`` controls/dumps the sampling profiler
(:mod:`repro.obs.profile`), ``history`` returns the recorded metrics
trajectory (:mod:`repro.obs.timeseries`) and ``alerts`` the SLO
burn-rate state (:mod:`repro.obs.slo`).

Responses carry ``{"ok": true, ...}`` or ``{"ok": false, "error": msg}``.
Unreachable distances serialise as ``null`` (JSON has no infinity).
``update`` acknowledges *enqueueing* — the single writer applies
asynchronously and publishes a fresh snapshot per drained chunk; ``stats``
reports the backlog and the served epoch.  ``snapshot`` force-publishes
and reports the new epoch (mainly for tests and operational probes).

Two layers live here:

* :class:`LineServer` — the protocol-agnostic base: connection loop,
  threaded lifecycle for tests/tools, **graceful shutdown** (SIGTERM /
  SIGINT handlers, in-flight requests drain before sockets close), and
  an overridable async ``_respond`` hook.  The cluster router
  (:mod:`repro.cluster.router`) builds on the same base.
* :class:`OracleServer` — the single-node query service wrapping an
  :class:`OracleService`; reads run directly on the event loop (pure
  in-memory lookups on an immutable snapshot, nothing to offload).  It
  can warm-start from a :func:`repro.utils.serialization.save_oracle`
  file via :meth:`OracleServer.from_file` (the ``python -m repro serve``
  path).
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from math import inf
from time import perf_counter
from typing import TYPE_CHECKING

from repro.exceptions import ReproError, ServingError
from repro.obs.exporter import CONTENT_TYPE, MetricsExporter
from repro.obs.log import get_logger, slow_threshold_ms
from repro.obs.profile import dump_if_enabled, get_profiler, start_if_enabled
from repro.obs.registry import COUNT_BOUNDS, Histogram, MetricsRegistry
from repro.obs.slo import SLOEvaluator
from repro.obs.timeseries import TimeSeriesRecorder, peak_rss_kb
from repro.obs.trace import get_recorder, obs_enabled, span
from repro.workloads.streams import UpdateEvent, valid_vertex_id

if TYPE_CHECKING:
    from repro.serving.service import OracleService

__all__ = ["LineServer", "OracleServer", "ThreadedLoopRunner"]

_MAX_LINE = 1 << 20  # 1 MiB per request line is plenty for query_many bursts
_PUBLISH_TIMEOUT = 60.0  # seconds a `snapshot` op waits for the writer
_DRAIN_TIMEOUT = 10.0  # seconds a graceful stop waits for in-flight requests


def _finite(distance: float) -> float | int | None:
    """JSON-encodable distance: ``None`` stands for unreachable."""
    return None if distance == inf else distance


def _vertex_ids(u, v) -> tuple[int, int]:
    """``(u, v)`` when both are vertex ids, else ``ValueError`` (``int()``
    would turn ``0.9``, ``True`` or ``"0"`` into the wrong vertex)."""
    for x in (u, v):
        if not valid_vertex_id(x):
            raise ValueError(f"vertex ids must be non-negative ints, got {x!r}")
    return u, v


def _encode(response: dict) -> bytes:
    return (json.dumps(response, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> tuple[dict | None, dict | None]:
    """``(request, None)`` on success, ``(None, error_response)`` else."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        return None, {"ok": False, "error": f"invalid JSON: {exc.msg}"}
    if not isinstance(request, dict):
        return None, {"ok": False, "error": "request must be a JSON object"}
    return request, None


class ThreadedLoopRunner:
    """Run an async start/stop pair on a dedicated event-loop thread.

    The threaded lifecycle every server-ish object needs for tests, smoke
    checks and load generators: ``launch`` spins a fresh event loop on a
    daemon thread, runs the start coroutine on it (propagating failures to
    the caller), then keeps the loop alive; ``shutdown`` stops the loop
    and runs the stop coroutine on it before joining.
    """

    def __init__(self, name: str = "asyncio-runner") -> None:
        self._name = name
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    @property
    def loop(self) -> asyncio.AbstractEventLoop | None:
        return self._loop

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def launch(self, start, stop):
        """Run ``await start()`` on a new loop thread; returns its result.

        ``stop`` is stashed and runs on the same loop during
        :meth:`shutdown`.
        """
        if self._thread is not None:
            raise ServingError(f"{self._name} thread already running")
        ready = threading.Event()
        outcome: list = []  # [("ok", result)] or [("err", exc)]

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                result = loop.run_until_complete(start())
            except BaseException as exc:  # surface bind errors to the caller
                outcome.append(("err", exc))
                ready.set()
                loop.close()
                self._loop = None
                return
            outcome.append(("ok", result))
            ready.set()
            try:
                loop.run_forever()
            finally:
                try:
                    loop.run_until_complete(stop())
                finally:
                    leftovers = asyncio.all_tasks(loop)
                    for task in leftovers:
                        task.cancel()
                    if leftovers:
                        loop.run_until_complete(
                            asyncio.gather(*leftovers, return_exceptions=True)
                        )
                    loop.close()
                    self._loop = None

        self._thread = threading.Thread(target=_run, name=self._name, daemon=True)
        self._thread.start()
        ready.wait()
        kind, value = outcome[0]
        if kind == "err":
            self._thread.join()
            self._thread = None
            raise value
        return value

    def shutdown(self) -> None:
        """Stop the loop (running the stop coroutine) and join the thread."""
        thread, loop = self._thread, self._loop
        if thread is None:
            return
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        thread.join()
        self._thread = None


class _Connection:
    """One client connection's drain bookkeeping: ``busy`` is True exactly
    while a request is being answered (not while parked in ``readline``),
    so a graceful stop knows which tasks to wait for and which to cancel."""

    __slots__ = ("task", "busy")

    def __init__(self, task: asyncio.Task) -> None:
        self.task = task
        self.busy = False


class LineServer:
    """Base asyncio TCP server: one JSON object per line, each direction.

    Subclasses implement ``async _respond(line) -> dict | bytes`` (bytes
    pass through verbatim — the cluster router forwards replica response
    lines without re-encoding) and may hook ``_on_start`` / ``_on_stop``.

    Graceful shutdown contract: :meth:`stop` closes the listener, cancels
    *idle* connections (parked between requests), waits up to
    ``drain_timeout`` for *in-flight* requests to finish writing their
    responses, then runs ``_on_stop``.  :meth:`run` serves until SIGTERM /
    SIGINT (or :meth:`request_shutdown`) and then stops gracefully — the
    ``python -m repro serve`` / ``serve-cluster`` code path.
    """

    #: Component tag used in spans and structured log records; the
    #: router/replica subclasses override it.
    obs_component = "server"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8355,
        *,
        drain_timeout: float = _DRAIN_TIMEOUT,
        metrics_port: int | None = None,
        history_path: str | None = None,
        history_interval: float = 5.0,
        history_max_points: int = 2048,
        slos=None,
    ) -> None:
        self._host = host
        self._port = port
        self._drain_timeout = drain_timeout
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._runner = ThreadedLoopRunner(name=type(self).__name__.lower())
        self._connections: set[_Connection] = set()
        self._drained: asyncio.Event | None = None
        self._stopping = False
        self._shutdown_event: asyncio.Event | None = None
        #: Per-server metrics registry (several servers can share one test
        #: process, so the registry is per instance, not process-global).
        self._registry = MetricsRegistry()
        self._metrics_port = metrics_port
        self._exporter: MetricsExporter | None = None
        self._requests_family = self._registry.counter(
            "repro_requests_total",
            "NDJSON protocol requests handled, by op.",
            labelnames=("op",),
        )
        self._op_counters: dict = {}
        self._logger = get_logger(self.obs_component)
        #: Continuous observability (docs/DESIGN.md §13): the metrics
        #: history recorder feeds both the ``history`` op and the SLO
        #: evaluator.  With SLOs but no history path the recorder runs
        #: memory-only — burn rates still need a trajectory.
        self._history_path = history_path
        self._history_interval = history_interval
        self._history_max_points = history_max_points
        self._history: TimeSeriesRecorder | None = None
        self._slo_eval: SLOEvaluator | None = (
            SLOEvaluator(slos, registry=self._registry) if slos else None
        )
        #: Read histogram at the previous metrics-history point, and when
        #: it was taken, so each point reports the interval since then.
        self._reads_before: Histogram | None = None
        self._reads_before_at = perf_counter()

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0`` requests)."""
        if self._server is None:
            raise ServingError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    @property
    def registry(self) -> MetricsRegistry:
        """This server's metrics registry (rendered by the ``metrics`` op
        and the ``--metrics-port`` HTTP endpoint)."""
        return self._registry

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        """``(host, port)`` of the HTTP metrics endpoint, or ``None`` when
        no ``metrics_port`` was configured."""
        if self._exporter is None:
            return None
        return self._exporter.address

    def _observe_request(
        self, op, elapsed_ms: float, trace: str | None = None
    ) -> None:
        """Per-request bookkeeping: the op counter and the slow-query log."""
        counter = self._op_counters.get(op)
        if counter is None:
            counter = self._requests_family.labels(op=str(op))
            self._op_counters[op] = counter
        counter.inc()
        if elapsed_ms >= slow_threshold_ms() and obs_enabled():
            self._logger.warning(
                "slow_request",
                op=op,
                dur_ms=round(elapsed_ms, 3),
                trace=trace,
            )

    # ------------------------------------------------------------------
    # Continuous observability (shared by OracleServer and the router)
    # ------------------------------------------------------------------
    @property
    def history(self) -> TimeSeriesRecorder | None:
        """The metrics-history recorder (``None`` unless enabled)."""
        return self._history

    @property
    def slo_evaluator(self) -> SLOEvaluator | None:
        return self._slo_eval

    def _sample_metrics(self) -> dict:
        """One metrics-history point (subclass hook; keys feed the
        ``history`` op, the ``repro top`` sparklines and SLO metrics)."""
        return {"rss_kb": peak_rss_kb()}

    def _read_interval(self, reads: Histogram) -> dict:
        """``qps`` and ``query_p50_ms``/``query_p99_ms`` of the reads
        recorded since the previous history point (the first point: since
        the server started).  An interval without reads has no
        percentiles, which the SLO evaluator skips."""
        now = perf_counter()
        current = Histogram(reads.bounds).merge(reads)
        before, self._reads_before = self._reads_before, current
        elapsed, self._reads_before_at = now - self._reads_before_at, now
        delta = current.since(before) if before is not None else current
        point: dict = {
            "qps": round(delta.count / elapsed, 3) if elapsed > 0 else 0.0
        }
        for key, q in (("query_p50_ms", 50), ("query_p99_ms", 99)):
            value = delta.quantile(q)
            point[key] = round(value * 1000.0, 6) if value is not None else None
        return point

    def _profile_response(self, request: dict) -> dict:
        """The ``profile`` op: control/dump the process-wide sampling
        profiler.  ``action``: ``dump`` (default; stats + folded
        stacks), ``start``, ``stop``, ``reset``.  ``folded: false``
        omits the stack text (stats only)."""
        action = str(request.get("action", "dump"))
        profiler = get_profiler()
        if action == "start":
            profiler.start()
        elif action == "stop":
            profiler.stop()
        elif action == "reset":
            profiler.reset()
        elif action != "dump":
            return {"ok": False, "error": f"unknown profile action {action!r}"}
        response = {"ok": True, "profile": profiler.stats()}
        if request.get("folded", True):
            response["folded"] = profiler.folded()
        return response

    def _history_response(self, request: dict) -> dict:
        """The ``history`` op: the last ``limit`` metrics-history points
        (empty when no recorder is running)."""
        limit = request.get("limit")
        limit = int(limit) if limit is not None else 120
        recorder = self._history
        points = recorder.points(limit=limit) if recorder is not None else []
        return {
            "ok": True,
            "points": points,
            "recording": recorder is not None,
            "interval_s": recorder.interval_s if recorder is not None else None,
            "path": recorder.path if recorder is not None else None,
        }

    def _alerts_response(self, request: dict) -> dict:
        """The ``alerts`` op: SLO definitions, active alerts and the last
        burn-rate evaluations (empty without configured SLOs)."""
        evaluator = self._slo_eval
        if evaluator is None:
            return {"ok": True, "alerts": [], "evaluations": [], "slos": []}
        return {
            "ok": True,
            "alerts": evaluator.active_alerts(),
            "evaluations": evaluator.last_evaluations(),
            "slos": [slo.to_dict() for slo in evaluator.slos],
        }

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    async def _on_start(self) -> None:
        """Subclass hook run before the listening socket binds."""

    async def _on_stop(self) -> None:
        """Subclass hook run after connections drain (close services,
        write-ahead logs, replica links...)."""

    async def _respond(self, line: bytes) -> dict | bytes:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Async lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "LineServer":
        """Run the start hook and bind the listening socket."""
        self._stopping = False
        self._loop = asyncio.get_running_loop()
        # Fresh Event per start: a restarted server runs on a new loop,
        # and an Event awaited on the old loop would raise at stop time.
        self._drained = asyncio.Event()
        self._drained.set()
        self._reads_before, self._reads_before_at = None, perf_counter()
        await self._on_start()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port, limit=_MAX_LINE
        )
        if self._metrics_port is not None:
            self._exporter = MetricsExporter(
                self._registry, self._host, self._metrics_port
            )
            await self._exporter.start()
        # Continuous observability: the history recorder runs whenever a
        # path was given or SLOs need a trajectory; the sampling profiler
        # only under REPRO_PROFILE=1 (and it is process-wide — several
        # servers in one test process share it harmlessly).
        if self._history_path is not None or self._slo_eval is not None:
            self._history = TimeSeriesRecorder(
                self._history_path,
                self._sample_metrics,
                interval_s=self._history_interval,
                max_points=self._history_max_points,
                on_point=(
                    self._slo_eval.evaluate
                    if self._slo_eval is not None
                    else None
                ),
            )
            self._history.start()
        start_if_enabled()
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    def request_shutdown(self) -> None:
        """Ask a :meth:`run` loop to exit and stop gracefully.

        Safe to call from signal handlers and from other threads.
        """
        loop, event = self._loop, self._shutdown_event
        if loop is None or event is None:
            return
        loop.call_soon_threadsafe(event.set)

    def install_signal_handlers(
        self, signals: tuple[int, ...] = (signal.SIGINT, signal.SIGTERM)
    ) -> bool:
        """Route SIGTERM/SIGINT to :meth:`request_shutdown` (graceful).

        Returns whether handlers were installed — they cannot be outside
        the main thread (or on loops without signal support), in which
        case callers fall back to :meth:`request_shutdown`.
        """
        loop = asyncio.get_running_loop()
        try:
            for sig in signals:
                loop.add_signal_handler(sig, self.request_shutdown)
        except (NotImplementedError, RuntimeError, ValueError):
            return False
        return True

    async def run(self, *, install_signals: bool = True, on_started=None) -> None:
        """Start, serve until a shutdown is requested, stop gracefully.

        ``on_started(self)`` fires once the socket is bound — the replica
        worker reports its ephemeral port through it, the CLI prints the
        address.
        """
        await self.start()
        self._shutdown_event = asyncio.Event()
        if install_signals:
            self.install_signal_handlers()
        if on_started is not None:
            on_started(self)
        try:
            await self._shutdown_event.wait()
        finally:
            self._shutdown_event = None
            await self.stop()

    async def stop(self) -> None:
        """Graceful stop: close the listener, drain in-flight requests
        (up to ``drain_timeout``), then run the stop hook."""
        self._stopping = True
        if self._history is not None:
            self._history.stop()
            self._history = None
        dump_if_enabled()
        if self._exporter is not None:
            await self._exporter.stop()
            self._exporter = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._drain_connections()
        await self._on_stop()

    async def _drain_connections(self) -> None:
        if not self._connections:
            return
        # Idle connections are parked in readline — nothing in flight to
        # preserve, cancel them now.  Busy ones get drain_timeout to finish
        # writing the response they owe.
        for conn in list(self._connections):
            if not conn.busy:
                conn.task.cancel()
        try:
            await asyncio.wait_for(self._drained.wait(), self._drain_timeout)
        except (TimeoutError, asyncio.TimeoutError):
            for conn in list(self._connections):
                conn.task.cancel()
            try:
                await asyncio.wait_for(self._drained.wait(), 1.0)
            except (TimeoutError, asyncio.TimeoutError):  # pragma: no cover
                # A handler is stuck in an uncancellable executor call;
                # give up on it — _on_stop must still run (close the
                # service/WAL) or the shutdown would leak worse.
                pass

    # ------------------------------------------------------------------
    # Threaded lifecycle (tests, smoke checks, load generators)
    # ------------------------------------------------------------------
    def start_in_thread(self) -> tuple[str, int]:
        """Run the server on a dedicated event-loop thread.

        Returns the bound ``(host, port)``; :meth:`stop_thread` shuts the
        loop and the server down (gracefully — in-flight requests drain).
        """
        self._runner.launch(self.start, self.stop)
        return self.address

    def stop_thread(self) -> None:
        """Stop a server started with :meth:`start_in_thread`."""
        self._runner.shutdown()

    # ------------------------------------------------------------------
    # Connection loop
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(asyncio.current_task())
        self._connections.add(conn)
        self._drained.clear()
        try:
            while not self._stopping:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(_encode({"ok": False, "error": "request too large"}))
                    await writer.drain()
                    break
                if not line:
                    break
                conn.busy = True
                try:
                    response = await self._respond(line)
                    if not isinstance(response, (bytes, bytearray)):
                        response = _encode(response)
                    writer.write(response)
                    await writer.drain()
                finally:
                    conn.busy = False
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        except asyncio.CancelledError:  # graceful stop of an idle connection
            pass
        finally:
            self._connections.discard(conn)
            if not self._connections:
                self._drained.set()
            writer.close()
            try:
                await writer.wait_closed()
            except (
                asyncio.CancelledError,
                ConnectionResetError,
                BrokenPipeError,
            ):  # pragma: no cover - teardown race
                pass


class OracleServer(LineServer):
    """TCP server wrapping an :class:`OracleService`.

    >>> # doctest-free: see tests/serving/test_server.py for live round-trips
    """

    def __init__(
        self,
        service: OracleService,
        host: str = "127.0.0.1",
        port: int = 8355,
        *,
        metrics_port: int | None = None,
        history_path: str | None = None,
        history_interval: float = 5.0,
        history_max_points: int = 2048,
        slos=None,
    ) -> None:
        super().__init__(
            host,
            port,
            metrics_port=metrics_port,
            history_path=history_path,
            history_interval=history_interval,
            history_max_points=history_max_points,
            slos=slos,
        )
        self._service = service
        #: Counter values at the previous metrics-history sample, so
        #: ``error_rate`` reflects the last interval, not process lifetime.
        self._prev_counters: dict | None = None
        #: Ops answered by an async handler (they wait off the event loop);
        #: everything else goes through the synchronous ``_dispatch``.
        self._async_ops = {"snapshot": self._op_snapshot}
        self._register_obs()

    def _register_obs(self) -> None:
        """Wire the service's metrics into this server's registry.

        The latency/phase/|AFF| histograms are *attached* (the service
        owns them; the registry exposes the same objects), counters and
        gauges are mirrored lazily on collect — a scrape pays for the
        copy, the hot path never does.
        """
        reg = self._registry
        service = self._service
        metrics = service.metrics
        reg.histogram(
            "repro_query_latency_seconds", "Read-path latency (seconds)."
        ).attach(metrics.queries.hist)
        reg.histogram(
            "repro_update_latency_seconds",
            "Per-event update apply latency (seconds).",
        ).attach(metrics.updates.hist)
        phase_family = reg.histogram(
            "repro_batch_phase_seconds",
            "Writer batch phase durations (seconds).",
            labelnames=("phase",),
        )
        for name, hist in metrics.phase_hists.items():
            phase_family.attach(hist, phase=name)
        reg.histogram(
            "repro_batch_affected_vertices",
            "Affected vertices (|AFF| union over landmarks) per batch.",
            bounds=COUNT_BOUNDS,
        ).attach(metrics.aff_hist)
        counter_families = {
            key: reg.counter(f"repro_{key}_total", help)
            for key, help in (
                ("events_applied", "Update events applied."),
                ("events_rejected", "Update events rejected."),
                ("batches", "Writer chunks applied as one engine batch."),
                ("snapshots_published", "Snapshots published."),
            )
        }
        epoch_gauge = reg.gauge("repro_epoch", "Served snapshot epoch.")
        pending_gauge = reg.gauge(
            "repro_pending_updates", "Events queued but not yet applied."
        )

        def _collect() -> None:
            counters = metrics.counters()
            for key, family in counter_families.items():
                family.set(counters[key])
            epoch_gauge.set(service.snapshot.epoch)
            pending_gauge.set(service.pending)

        reg.on_collect(_collect)

    @classmethod
    def from_file(
        cls,
        path,
        *,
        host: str = "127.0.0.1",
        port: int = 8355,
        max_batch: int = 128,
        metrics_port: int | None = None,
        history_path: str | None = None,
        history_interval: float = 5.0,
        history_max_points: int = 2048,
        slos=None,
    ) -> "OracleServer":
        """Warm-start: load a ``save_oracle`` file and wrap it in a service."""
        from repro.serving.service import OracleService
        from repro.utils.serialization import load_oracle

        oracle = load_oracle(path)
        service = OracleService(oracle, max_batch=max_batch)
        return cls(
            service,
            host=host,
            port=port,
            metrics_port=metrics_port,
            history_path=history_path,
            history_interval=history_interval,
            history_max_points=history_max_points,
            slos=slos,
        )

    @property
    def service(self) -> OracleService:
        return self._service

    def _sample_metrics(self) -> dict:
        service = self._service
        counters = service.metrics.counters()
        prev = self._prev_counters or {}
        applied = counters["events_applied"] - prev.get("events_applied", 0)
        rejected = counters["events_rejected"] - prev.get("events_rejected", 0)
        self._prev_counters = counters
        total = applied + rejected
        return {
            **self._read_interval(service.metrics.queries.hist),
            "pending": service.pending,
            "epoch": service.snapshot.epoch,
            "events_applied": counters["events_applied"],
            "error_rate": round(rejected / total, 6) if total else 0.0,
            "rss_kb": peak_rss_kb(),
        }

    async def _on_start(self) -> None:
        self._service.start()

    async def _on_stop(self) -> None:
        self._service.stop()

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def _dispatch_checked(self, request: dict) -> dict:
        try:
            return self._dispatch(request)
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    async def _respond(self, line: bytes) -> dict:
        """Async dispatch: ops with an async handler (``snapshot`` here;
        ``apply``/``checkpoint`` on cluster replicas) wait off the event
        loop, so one client draining a deep backlog never stalls the other
        connections' reads.

        A request carrying a ``trace`` field gets a span recorded around
        its dispatch (:mod:`repro.obs.trace`); untraced requests pay
        nothing.  Every request ticks the per-op counter and, past the
        ``REPRO_SLOW_MS`` threshold, the slow-request log.
        """
        request, error = decode_line(line)
        if error is not None:
            return error
        op = request.get("op")
        trace = request.get("trace")
        start = perf_counter()
        try:
            handler = self._async_ops.get(op)
            with span(str(op), self.obs_component, trace=trace, op=op):
                if handler is not None:
                    try:
                        return await handler(request)
                    except (ReproError, KeyError, TypeError, ValueError) as exc:
                        return {
                            "ok": False,
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                return self._dispatch_checked(request)
        finally:
            self._observe_request(
                op, (perf_counter() - start) * 1000.0, trace
            )

    async def _op_snapshot(self, request: dict) -> dict:
        barrier = self._service.request_publish()
        loop = asyncio.get_running_loop()
        done = await loop.run_in_executor(None, barrier.wait, _PUBLISH_TIMEOUT)
        if not done:
            return {"ok": False, "error": "snapshot publish timed out"}
        return self._snapshot_response()

    def handle_request_line(self, line: bytes) -> dict:
        """Decode one request line and dispatch it (blocking; for direct
        callers and tests — connections go through :meth:`_respond`)."""
        request, error = decode_line(line)
        if error is not None:
            return error
        return self._dispatch_checked(request)

    def _snapshot_response(self) -> dict:
        snap = self._service.snapshot
        return {
            "ok": True,
            "epoch": snap.epoch,
            "num_vertices": snap.num_vertices,
            "num_edges": snap.num_edges,
            "label_entries": snap.label_entries,
        }

    def _dispatch(self, request: dict) -> dict:
        service = self._service
        op = request.get("op")
        if op == "query":
            u, v = _vertex_ids(request["u"], request["v"])
            snap = service.snapshot  # pin: answer and epoch must agree
            return {
                "ok": True,
                "distance": _finite(service.query(u, v, snapshot=snap)),
                "epoch": snap.epoch,
            }
        if op == "query_many":
            pairs = [_vertex_ids(u, v) for u, v in request["pairs"]]
            snap = service.snapshot  # pin: answers and epoch must agree
            return {
                "ok": True,
                "distances": [
                    _finite(d)
                    for d in service.query_many(pairs, snapshot=snap)
                ],
                "epoch": snap.epoch,
            }
        if op == "path":
            u, v = _vertex_ids(request["u"], request["v"])
            return {"ok": True, "path": service.shortest_path(u, v)}
        if op == "update":
            kind = request["kind"]
            service.submit(
                UpdateEvent(kind, _vertex_ids(request["u"], request["v"]))
            )
            return {"ok": True, "queued": 1, "pending": service.pending}
        if op == "updates":
            events = [
                UpdateEvent(kind, _vertex_ids(u, v))
                for kind, u, v in request["events"]
            ]
            queued = service.submit_many(events)
            return {"ok": True, "queued": queued, "pending": service.pending}
        if op == "stats":
            return {"ok": True, "stats": service.stats()}
        if op == "metrics":
            # Prometheus text over NDJSON — same bytes the --metrics-port
            # HTTP endpoint serves, for clients already on the socket.
            return {
                "ok": True,
                "content_type": CONTENT_TYPE,
                "metrics": self._registry.render(),
            }
        if op == "spans":
            # Recent spans from the process recorder; ``of`` filters to
            # one trace id, ``limit`` caps the response size.
            limit = request.get("limit")
            return {
                "ok": True,
                "spans": get_recorder().spans(
                    trace=request.get("of"),
                    limit=int(limit) if limit is not None else 256,
                ),
            }
        if op == "profile":
            return self._profile_response(request)
        if op == "history":
            return self._history_response(request)
        if op == "alerts":
            return self._alerts_response(request)
        if op == "snapshot":
            # Blocking form (direct callers); connections take the async
            # handler path in _respond instead.
            if not service.request_publish().wait(_PUBLISH_TIMEOUT):
                raise ServingError("snapshot publish timed out")
            return self._snapshot_response()
        if op == "ping":
            return {"ok": True, "pong": True}
        return {"ok": False, "error": f"unknown op {op!r}"}
