"""Bounded on-disk metrics history: NDJSON snapshots with downsampling.

Point-in-time gauges answer "what is the p99 *now*"; operating a
cluster needs "what has the p99 *been doing*".  A
:class:`TimeSeriesRecorder` periodically calls a sampler function (the
server's ``_sample_metrics`` hook), stamps each returned dict with
``ts``, keeps the points in memory, and — when given a path — mirrors
them to an NDJSON file (one JSON object per line).

Retention is bounded on both axes:

* at most ``max_points`` points are retained; when the bound is hit the
  **oldest half is downsampled 2:1** (every other point dropped) and the
  file atomically rewritten, so recent history stays at full resolution
  while old history gets coarser instead of evicted outright — the disk
  footprint is O(``max_points``) forever;
* a sampler exception skips that tick (recorded in ``errors``) rather
  than killing the thread.

``repro top`` draws its sparklines from these points (over the wire
via the ``history`` protocol op), and the SLO evaluator
(:mod:`repro.obs.slo`) consumes the same trajectory — one sampling loop
feeds both.
"""

from __future__ import annotations

import json
import os
import resource
import threading
import time

__all__ = [
    "TimeSeriesRecorder",
    "read_series",
    "peak_rss_kb",
]

_DEFAULT_INTERVAL_S = 5.0
_DEFAULT_MAX_POINTS = 2048


def peak_rss_kb() -> int:
    """This process's peak RSS in KiB (``ru_maxrss`` is KiB on Linux)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def read_series(path: str | os.PathLike) -> list[dict]:
    """Parse an NDJSON history file; a torn final line (crash mid-append)
    is ignored, corruption elsewhere raises ``ValueError``."""
    try:
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
    except FileNotFoundError:
        return []
    points: list[dict] = []
    for line_no, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            points.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if line_no == len(lines) - 1:  # torn tail: never acknowledged
                break
            raise ValueError(
                f"{path}:{line_no + 1}: corrupt history record: {exc.msg}"
            ) from exc
    return points


class TimeSeriesRecorder:
    """Periodic sampler with bounded in-memory + on-disk history.

    ``sample_fn()`` must return a JSON-encodable dict (or ``None`` to
    skip the tick).  With ``path=None`` the recorder is memory-only —
    the SLO evaluator works either way.  ``on_point(points)`` (if given)
    runs after every appended sample with the full retained history —
    the hook the SLO evaluator hangs off.

    >>> rec = TimeSeriesRecorder(None, lambda: {"qps": 1.0}, interval_s=60)
    >>> rec.record_once()["qps"]
    1.0
    >>> len(rec.points())
    1
    """

    def __init__(
        self,
        path: str | os.PathLike | None,
        sample_fn,
        *,
        interval_s: float = _DEFAULT_INTERVAL_S,
        max_points: int = _DEFAULT_MAX_POINTS,
        on_point=None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        if max_points < 4:
            raise ValueError(f"max_points must be >= 4, got {max_points}")
        self._path = str(path) if path is not None else None
        self._sample_fn = sample_fn
        self.interval_s = float(interval_s)
        self._max_points = int(max_points)
        self._points: list[dict] = []
        self._on_point = on_point
        self._errors = 0
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        if self._path is not None:
            # Resume an existing file so restarts extend the trajectory
            # instead of clobbering it (re-bounded immediately below).
            self._points = read_series(self._path)[-self._max_points :]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def path(self) -> str | None:
        return self._path

    @property
    def errors(self) -> int:
        """Sampler ticks skipped because ``sample_fn`` raised."""
        return self._errors

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def points(self, limit: int | None = None) -> list[dict]:
        """Retained points, oldest first (last ``limit`` when given)."""
        with self._lock:
            out = list(self._points)
        if limit is not None and limit >= 0:
            out = out[-limit:]
        return out

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def record_once(self) -> dict | None:
        """Take one sample now (the thread loop's body; also the direct
        entry point for tests and forced samples).  Returns the stamped
        point, or ``None`` if the sampler skipped/raised."""
        try:
            point = self._sample_fn()
        except Exception:
            self._errors += 1
            return None
        if point is None:
            return None
        point = dict(point)
        point.setdefault("ts", round(time.time(), 3))
        with self._lock:
            self._points.append(point)
            if self._path is not None:
                self._append_line(point)
            if len(self._points) > self._max_points:
                self._downsample_locked()
        hook = self._on_point
        if hook is not None:
            try:
                hook(self.points())
            except Exception:
                self._errors += 1
        return point

    def _append_line(self, point: dict) -> None:
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(point, separators=(",", ":"), default=str))
            handle.write("\n")

    def _downsample_locked(self) -> None:
        """Halve the resolution of the oldest half (keep every other
        point); rewrite the file atomically when one is configured."""
        half = len(self._points) // 2
        self._points = self._points[:half][::2] + self._points[half:]
        if self._path is not None:
            tmp = self._path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                for point in self._points:
                    handle.write(
                        json.dumps(point, separators=(",", ":"), default=str)
                    )
                    handle.write("\n")
            os.replace(tmp, self._path)

    # ------------------------------------------------------------------
    # Thread lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TimeSeriesRecorder":
        """Start the periodic sampling thread (idempotent)."""
        if self.running:
            return self
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-timeseries", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampling thread (idempotent; points are kept)."""
        thread, self._thread = self._thread, None
        self._stop_event.set()
        if thread is not None:
            thread.join(timeout=2.0)

    def _loop(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            self.record_once()
