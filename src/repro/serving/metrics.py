"""Serving metrics: throughput counters and tail-latency tracking.

The serving layer is judged on two numbers the paper never had to report
— sustained queries per second and tail latency under a concurrent
writer — so the service keeps them continuously and surfaces them through
the ``stats`` protocol op and the metrics history.

Every latency is stored once, in a **mergeable fixed-bucket histogram**
(:class:`repro.obs.registry.Histogram`) covering all samples, and every
percentile is read from one.  A single node's summary and the cluster
router's aggregate are built by the same helper (:func:`merge_summaries`
over one summary equals that summary): histograms over the same bucket
scheme merge by exact vector addition, so the cluster-wide tails are
those of the pooled samples, not a ``max`` over replicas.

All methods are safe to call from many reader threads: the histogram
locks its own counts, and the recorder's lock guards only its two
timestamps.

Per-batch *phase* timings (coalesce / find / repair / publish — the
quantities IncHL+'s analysis attributes cost to) and affected-set sizes
(|AFF|) land in :meth:`ServiceMetrics.observe_batch`; the ``stats`` op
reports their distributions under ``"phases"`` / ``"aff"``.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from time import perf_counter

from repro.obs.registry import COUNT_BOUNDS, Histogram, merge_histograms

__all__ = [
    "merge_summaries",
    "LatencyRecorder",
    "ServiceMetrics",
    "PHASE_NAMES",
]

#: The per-batch phases the writer attributes time to.  ``find`` and
#: ``repair`` come out of the update engine (the paper's two sweeps);
#: ``coalesce`` is the writer's validation/dedup pass; ``publish`` the
#: snapshot swap.
PHASE_NAMES = ("coalesce", "find", "repair", "apply", "publish")


def _summarize(hist: Histogram, qps: float) -> dict:
    """The summary dict of one latency histogram (seconds) and its qps:
    count, mean and p50/p95/p99 in milliseconds, plus the histogram's
    wire form under ``hist``."""
    count = hist.count
    out: dict = {
        "count": count,
        "qps": round(qps, 3),
        "mean_ms": round(hist.sum / count * 1000.0, 6) if count else None,
    }
    for key, q in (("p50_ms", 50), ("p95_ms", 95), ("p99_ms", 99)):
        value = hist.quantile(q)  # None when empty
        out[key] = round(value * 1000.0, 6) if value is not None else None
    out["hist"] = hist.to_dict()
    return out


def merge_summaries(summaries: Iterable[dict]) -> dict:
    """Exact cluster-wide merge of :meth:`LatencyRecorder.summary` dicts.

    The summaries' histograms merge by vector addition — lossless, so the
    percentiles are those of the *pooled* sample population (at bucket
    resolution), computed exactly as a single node computes its own.
    Throughputs add.
    """
    summaries = list(summaries)
    merged = merge_histograms(s["hist"] for s in summaries) or Histogram()
    return _summarize(merged, sum((s["qps"] for s in summaries), 0.0))


class LatencyRecorder:
    """Latency histogram + throughput for one operation class.

    ``record(seconds)`` is the hot-path call; ``summary()`` returns a
    plain dict with count, qps (count over the first..last record span)
    and mean/p50/p95/p99 in milliseconds, all from the histogram, which
    rides along under ``hist``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._first: float | None = None
        self._last: float | None = None
        #: Every sample (seconds); exposed on the Prometheus endpoint via
        #: ``HistogramFamily.attach`` and merged exactly across replicas
        #: by the cluster router.
        self.hist = Histogram()

    def record(self, seconds: float) -> None:
        """Record one operation that took ``seconds``."""
        now = perf_counter()
        self.hist.observe(seconds)
        with self._lock:
            if self._first is None:
                self._first = now
            self._last = now

    @property
    def count(self) -> int:
        return self.hist.count

    def summary(self) -> dict:
        """Point-in-time stats dict (all latencies in milliseconds)."""
        with self._lock:
            first, last = self._first, self._last
        hist = Histogram().merge(self.hist)  # one consistent copy
        count, total = hist.count, hist.sum
        span = last - first if first is not None and last is not None else 0.0
        # Throughput needs a denominator even for a single sample; fall
        # back to summed operation time when the span is degenerate.
        if span > 0:
            qps = count / span
        else:
            qps = count / total if total > 0 else 0.0
        return _summarize(hist, qps)


class ServiceMetrics:
    """All metrics of one :class:`~repro.serving.service.OracleService`.

    Two latency recorders (reads and applied update events) plus event
    counters, per-phase batch timing histograms and the |AFF| (affected
    vertices per batch) distribution; :meth:`stats` flattens everything
    into the dict the STATS protocol op returns.
    """

    def __init__(self) -> None:
        self.queries = LatencyRecorder()
        self.updates = LatencyRecorder()
        self._lock = threading.Lock()
        self.events_applied = 0
        self.events_rejected = 0
        #: Engine calls: one per writer chunk with an accepted event.
        self.batches = 0
        self.snapshots_published = 0
        #: Per-phase batch timings in seconds (mergeable histograms).
        self.phase_hists: dict[str, Histogram] = {
            name: Histogram() for name in PHASE_NAMES
        }
        #: Affected vertices (|AFF| union over landmarks) per batch.
        self.aff_hist = Histogram(bounds=COUNT_BOUNDS)

    def count_applied(self, n: int = 1) -> None:
        with self._lock:
            self.events_applied += n

    def count_rejected(self, n: int = 1) -> None:
        with self._lock:
            self.events_rejected += n

    def count_batch(self) -> None:
        with self._lock:
            self.batches += 1

    def count_snapshot(self) -> None:
        with self._lock:
            self.snapshots_published += 1

    def observe_phase(self, name: str, seconds: float) -> None:
        """Record one duration of ``name``, one of :data:`PHASE_NAMES`."""
        self.phase_hists[name].observe(seconds)

    def observe_batch(self, phases: dict | None, affected: int | None) -> None:
        """Record one writer batch: its phase timings (``{"find": s, ...}``
        seconds) and its affected-set size."""
        if phases:
            for name, seconds in phases.items():
                if seconds is not None:
                    self.observe_phase(name, seconds)
        if affected is not None:
            self.aff_hist.observe(affected)

    def counters(self) -> dict:
        """All event counters snapshotted atomically under the lock."""
        with self._lock:
            return {
                "events_applied": self.events_applied,
                "events_rejected": self.events_rejected,
                "batches": self.batches,
                "snapshots_published": self.snapshots_published,
            }

    @staticmethod
    def _hist_brief(hist: Histogram, scale: float = 1.0, digits: int = 6) -> dict:
        """Compact wire form of a distribution: count, total, p50/p99."""
        count = hist.count
        out = {
            "count": count,
            "total": round(hist.sum * scale, digits),
            "p50": None,
            "p99": None,
        }
        if count:
            out["p50"] = round(hist.quantile(50) * scale, digits)
            out["p99"] = round(hist.quantile(99) * scale, digits)
        return out

    def stats(self) -> dict:
        """Flat stats dict: ``queries.*`` and ``updates.*`` sub-dicts plus
        the event counters (snapshotted under the lock — readers must
        never see a torn multi-counter view) and the phase/|AFF|
        distributions."""
        phases = {
            name: self._hist_brief(hist, scale=1000.0)  # ms
            for name, hist in self.phase_hists.items()
            if hist.count
        }
        return {
            "queries": self.queries.summary(),
            "updates": self.updates.summary(),
            **self.counters(),
            "phases": phases,
            "aff": self._hist_brief(self.aff_hist, digits=1),
        }
