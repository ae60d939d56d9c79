"""Process-wide metrics registry: counters, gauges, mergeable histograms.

The serving and cluster layers store every latency here and read every
percentile from here (:mod:`repro.serving.metrics` keeps no samples of
its own), because the store gives them three things:

* **Mergeable tails.**  A cluster-wide p99 computed as ``max`` over
  replica percentiles is only an upper bound.  Fixed-bucket histograms
  make the merge *exact*: two histograms over the same bucket scheme
  combine by vector-adding their counts, so the merged histogram is
  identical to the histogram of the pooled samples — no information is
  lost by distributing the recording (:meth:`Histogram.merge`, proven in
  ``tests/obs/test_histogram_merge.py``).  :meth:`Histogram.since` is the
  inverse: the samples recorded after an earlier copy, which is how a
  metrics-history point reports one interval's tail.
* **Scrapeable state.**  :meth:`MetricsRegistry.render` emits the
  Prometheus text exposition format (v0.0.4), served by
  :mod:`repro.obs.exporter` on ``--metrics-port`` and by the ``metrics``
  NDJSON protocol op.
* **Lazy gauges.**  Values owned elsewhere (replication lag, WAL bytes,
  served epoch) register an :meth:`MetricsRegistry.on_collect` callback
  and are refreshed only when someone actually scrapes.

Bucket schemes are named (``latency-v1``, ``count-v1``) so a histogram
serialised by a replica (:meth:`Histogram.to_dict`) can be revived and
merged by the router without shipping the bounds on every stats response.
"""

from __future__ import annotations

import math
import threading

from repro.exceptions import ReproError

__all__ = [
    "LATENCY_BOUNDS",
    "COUNT_BOUNDS",
    "Histogram",
    "merge_histograms",
    "Counter",
    "Gauge",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "MetricsRegistry",
    "get_registry",
]

#: Log-spaced latency bucket upper bounds in **seconds**: 1 µs doubling up
#: to ~67 s (27 buckets + overflow).  Factor-2 spacing bounds any
#: within-bucket quantile interpolation error to 2x — plenty for p99
#: dashboards — while keeping the merge vector tiny on the wire.
LATENCY_BOUNDS: tuple[float, ...] = tuple(1e-6 * 2.0**k for k in range(27))

#: Bucket bounds for small-integer size distributions (|AFF| per batch,
#: events per chunk): powers of two from 1 to 2^26.
COUNT_BOUNDS: tuple[float, ...] = tuple(float(2**k) for k in range(27))

#: Named schemes a serialised histogram may reference instead of shipping
#: its bounds inline.
SCHEMES: dict[str, tuple[float, ...]] = {
    "latency-v1": LATENCY_BOUNDS,
    "count-v1": COUNT_BOUNDS,
}


def _scheme_name(bounds: tuple[float, ...]) -> str | None:
    for name, scheme in SCHEMES.items():
        if scheme == bounds:
            return name
    return None


class Histogram:
    """Thread-safe fixed-bucket histogram with an exact merge.

    ``bounds`` are ascending bucket *upper* bounds; one implicit overflow
    bucket catches everything above ``bounds[-1]``.  Counts are plain
    ints, so :meth:`merge` (vector addition) loses nothing: merging
    per-replica histograms equals building one histogram from the pooled
    samples.

    >>> h = Histogram(bounds=(1.0, 2.0, 4.0))
    >>> for v in (0.5, 1.5, 3.0, 3.5):
    ...     h.observe(v)
    >>> h.count, h.counts()
    (4, [1, 1, 2, 0])
    """

    __slots__ = ("_bounds", "_counts", "_count", "_sum", "_lock")

    def __init__(self, bounds: tuple[float, ...] = LATENCY_BOUNDS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ReproError("histogram bounds must be non-empty and ascending")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._lock = threading.Lock()

    @property
    def bounds(self) -> tuple[float, ...]:
        return self._bounds

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _bucket_index(self, value: float) -> int:
        # Binary search over the upper bounds: first bucket whose upper
        # bound is >= value (bisect_left over "value <= bound").
        lo, hi = 0, len(self._bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self._bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo  # == len(bounds) means the overflow bucket

    def observe(self, value: float) -> None:
        """Record one sample (hot path: a bisect and two adds)."""
        idx = self._bucket_index(value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value

    def counts(self) -> list[int]:
        """Point-in-time copy of the per-bucket counts (overflow last)."""
        with self._lock:
            return list(self._counts)

    def snapshot(self) -> tuple[list[int], int, float]:
        """``(counts, count, sum)`` captured atomically."""
        with self._lock:
            return list(self._counts), self._count, self._sum

    # ------------------------------------------------------------------
    # Merge + serialisation (the cluster's exact-percentile machinery)
    # ------------------------------------------------------------------
    def merge(self, other: "Histogram") -> "Histogram":
        """Add ``other``'s counts into this histogram (exact: equivalent
        to having observed all of ``other``'s samples here)."""
        if other._bounds != self._bounds:
            raise ReproError("cannot merge histograms with different bounds")
        counts, count, total = other.snapshot()
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._count += count
            self._sum += total
        return self

    def since(self, earlier: "Histogram") -> "Histogram":
        """A fresh histogram of the samples recorded after ``earlier``, an
        earlier copy of this one: the inverse of :meth:`merge`, so
        ``earlier.merge(self.since(earlier)) == self``."""
        if earlier._bounds != self._bounds:
            raise ReproError("cannot subtract histograms with different bounds")
        before, count_before, sum_before = earlier.snapshot()
        counts, count, total = self.snapshot()
        delta = Histogram(bounds=self._bounds)
        delta._counts = [a - b for a, b in zip(counts, before)]
        delta._count = count - count_before
        delta._sum = total - sum_before
        return delta

    def to_dict(self) -> dict:
        """Wire form: named scheme (or inline bounds), counts, count, sum."""
        counts, count, total = self.snapshot()
        out: dict = {"counts": counts, "count": count, "sum": total}
        name = _scheme_name(self._bounds)
        if name is not None:
            out["scheme"] = name
        else:
            out["bounds"] = list(self._bounds)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        scheme = data.get("scheme")
        if scheme is not None:
            if scheme not in SCHEMES:
                raise ReproError(f"unknown histogram scheme {scheme!r}")
            bounds = SCHEMES[scheme]
        else:
            bounds = tuple(float(b) for b in data["bounds"])
        hist = cls(bounds=bounds)
        counts = list(data["counts"])
        if len(counts) != len(hist._counts):
            raise ReproError(
                f"histogram counts length {len(counts)} does not match "
                f"{len(hist._counts)} buckets"
            )
        hist._counts = [int(c) for c in counts]
        hist._count = int(data.get("count", sum(counts)))
        hist._sum = float(data.get("sum", 0.0))
        return hist

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------
    def _rank_bucket(self, k: int, counts: list[int]) -> int:
        """Bucket index holding the ``k``-th order statistic (1-indexed)."""
        cum = 0
        for i, c in enumerate(counts):
            cum += c
            if cum >= k:
                return i
        return len(counts) - 1

    def _bucket_edges(self, idx: int) -> tuple[float, float]:
        lo = self._bounds[idx - 1] if idx > 0 else 0.0
        # The overflow bucket has no upper edge; report its lower edge so
        # quantiles stay finite (values beyond the top bound saturate).
        hi = self._bounds[idx] if idx < len(self._bounds) else self._bounds[-1]
        return lo, hi

    def quantile(self, q: float) -> float | None:
        """The ``q``-th percentile (0..100) by within-bucket interpolation.

        Uses the linear rank rule of ``numpy.percentile`` (interpolation
        between the order statistics at rank ``(n-1) * q/100``), so the
        returned value always lies inside :meth:`quantile_bounds` of the
        raw-sample percentile.  ``None`` on an empty histogram.
        """
        if not 0 <= q <= 100:
            raise ReproError(f"quantile must be in [0, 100], got {q}")
        counts, count, _ = self.snapshot()
        if count == 0:
            return None
        rank = (count - 1) * q / 100.0
        k = int(rank) + 1  # 1-indexed lower order statistic
        idx = self._rank_bucket(k, counts)
        lo, hi = self._bucket_edges(idx)
        cum_before = sum(counts[:idx])
        frac = (rank + 1 - cum_before) / counts[idx]
        frac = min(max(frac, 0.0), 1.0)
        return lo + (hi - lo) * frac

    def quantile_bounds(self, q: float) -> tuple[float, float] | None:
        """``(lo, hi)`` bracketing the raw-sample ``q``-th percentile.

        The raw percentile interpolates between the order statistics at
        ranks ``floor(r)`` and ``ceil(r)`` (``r = (n-1) q / 100``); those
        two samples fall in known buckets, so the true value provably
        lies in ``[lower edge of the first, upper edge of the second]``.
        The merge-exactness property test leans on this.
        """
        if not 0 <= q <= 100:
            raise ReproError(f"quantile must be in [0, 100], got {q}")
        counts, count, _ = self.snapshot()
        if count == 0:
            return None
        rank = (count - 1) * q / 100.0
        i_lo = self._rank_bucket(int(math.floor(rank)) + 1, counts)
        i_hi = self._rank_bucket(int(math.ceil(rank)) + 1, counts)
        lo, _ = self._bucket_edges(i_lo)
        if i_hi < len(self._bounds):
            hi = self._bounds[i_hi]
        else:
            hi = math.inf  # overflow bucket: unbounded above
        return lo, hi

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self._bounds == other._bounds
            and self.counts() == other.counts()
            and self.count == other.count
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Histogram(count={self.count}, sum={self.sum:.6f})"


def merge_histograms(hists) -> "Histogram | None":
    """Merge an iterable of histograms (or their :meth:`~Histogram.to_dict`
    forms) into one fresh histogram; ``None`` for an empty iterable."""
    merged: Histogram | None = None
    for hist in hists:
        if isinstance(hist, dict):
            hist = Histogram.from_dict(hist)
        if merged is None:
            merged = Histogram(bounds=hist.bounds)
        merged.merge(hist)
    return merged


class Counter:
    """Monotonic counter.  :meth:`set` exists only to mirror totals that
    are authoritatively tracked elsewhere (e.g. ``ServiceMetrics``
    counters copied in during an ``on_collect`` pass)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ReproError("counters only go up")
        with self._lock:
            self._value += amount

    def set(self, value: float) -> None:
        """Mirror an externally-tracked total (must not go backwards in
        normal operation; not enforced — restarts reset legitimately)."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that goes up and down (lag, backlog, bytes on disk)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ReproError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ReproError(f"invalid metric name {name!r}")
    return name


def _fmt_number(value: float) -> str:
    """Prometheus sample formatting: integers bare, floats via repr."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _fmt_labels(labelnames: tuple[str, ...], labelvalues: tuple[str, ...],
                extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = list(zip(labelnames, labelvalues)) + list(extra)
    if not pairs:
        return ""
    body = ",".join(
        '{}="{}"'.format(
            k, str(v).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        for k, v in pairs
    )
    return "{" + body + "}"


class _Family:
    """Shared child bookkeeping for the three metric families."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...] = ()):
        self.name = _validate_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _make_child(self):
        raise NotImplementedError

    def _child(self, labelvalues: tuple[str, ...]):
        if len(labelvalues) != len(self.labelnames):
            raise ReproError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {len(labelvalues)} values"
            )
        with self._lock:
            child = self._children.get(labelvalues)
            if child is None:
                child = self._make_child()
                self._children[labelvalues] = child
            return child

    def labels(self, **labelvalues):
        """The child for one label combination (created on first use)."""
        values = tuple(str(labelvalues[name]) for name in self.labelnames)
        return self._child(values)

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    # Label-less convenience: the family proxies to its default child.
    @property
    def _default(self):
        return self._child(())


class CounterFamily(_Family):
    kind = "counter"

    def _make_child(self) -> Counter:
        return Counter()

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def set(self, value: float) -> None:
        self._default.set(value)

    @property
    def value(self) -> float:
        return self._default.value


class GaugeFamily(_Family):
    kind = "gauge"

    def _make_child(self) -> Gauge:
        return Gauge()

    def set(self, value: float) -> None:
        self._default.set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default.dec(amount)

    @property
    def value(self) -> float:
        return self._default.value


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        bounds: tuple[float, ...] = LATENCY_BOUNDS,
    ) -> None:
        super().__init__(name, help, labelnames)
        self.bounds = tuple(float(b) for b in bounds)

    def _make_child(self) -> Histogram:
        return Histogram(bounds=self.bounds)

    def observe(self, value: float) -> None:
        self._default.observe(value)

    def attach(self, hist: Histogram, **labelvalues) -> Histogram:
        """Register an externally-owned histogram as a child.

        The serving layer's :class:`~repro.serving.metrics.LatencyRecorder`
        owns its histogram (it must live whether or not a registry exists);
        ``attach`` makes the same object show up in the exposition without
        double recording.
        """
        if hist.bounds != self.bounds:
            raise ReproError(
                f"{self.name}: attached histogram bounds do not match family"
            )
        values = tuple(str(labelvalues[name]) for name in self.labelnames)
        if len(labelvalues) != len(self.labelnames):
            raise ReproError(
                f"{self.name}: expected labels {self.labelnames}"
            )
        with self._lock:
            self._children[values] = hist
        return hist


class MetricsRegistry:
    """One process's (or one server's) metric families.

    Families are get-or-create by name — registering the same name twice
    with the same kind returns the existing family, so independent
    components can share a registry without coordination; a kind clash is
    an error.  :meth:`render` runs the :meth:`on_collect` callbacks (lazy
    gauges refresh only when scraped) and emits Prometheus text.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._collectors: list = []
        self._lock = threading.Lock()

    def _register(self, family_cls, name, help, labelnames, **kwargs):
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, family_cls):
                    raise ReproError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            family = family_cls(name, help, tuple(labelnames), **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "", labelnames=()) -> CounterFamily:
        return self._register(CounterFamily, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> GaugeFamily:
        return self._register(GaugeFamily, name, help, labelnames)

    def histogram(
        self, name: str, help: str = "", labelnames=(),
        bounds: tuple[float, ...] = LATENCY_BOUNDS,
    ) -> HistogramFamily:
        return self._register(
            HistogramFamily, name, help, labelnames, bounds=bounds
        )

    def on_collect(self, callback) -> None:
        """Run ``callback()`` at the start of every :meth:`collect` /
        :meth:`render` — the hook for gauges whose truth lives elsewhere
        (replication lag, WAL stats, served epoch)."""
        with self._lock:
            self._collectors.append(callback)

    def collect(self) -> list[_Family]:
        with self._lock:
            collectors = list(self._collectors)
            families = sorted(self._families.values(), key=lambda f: f.name)
        for callback in collectors:
            callback()
        return families

    def render(self) -> str:
        """The Prometheus text exposition (format version 0.0.4)."""
        lines: list[str] = []
        for family in self.collect():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labelvalues, child in family.children():
                labels = _fmt_labels(family.labelnames, labelvalues)
                if family.kind == "histogram":
                    counts, count, total = child.snapshot()
                    cum = 0
                    for bound, c in zip(child.bounds, counts):
                        cum += c
                        le = _fmt_labels(
                            family.labelnames, labelvalues,
                            extra=(("le", _fmt_number(bound)),),
                        )
                        lines.append(f"{family.name}_bucket{le} {cum}")
                    le = _fmt_labels(
                        family.labelnames, labelvalues, extra=(("le", "+Inf"),)
                    )
                    lines.append(f"{family.name}_bucket{le} {count}")
                    lines.append(
                        f"{family.name}_sum{labels} {_fmt_number(total)}"
                    )
                    lines.append(f"{family.name}_count{labels} {count}")
                else:
                    lines.append(
                        f"{family.name}{labels} {_fmt_number(child.value)}"
                    )
        return "\n".join(lines) + "\n"


_default_registry: MetricsRegistry | None = None
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-default registry (created on first use).

    Servers keep their own per-instance registries (several can live in
    one test process); the default exists for code with no server in
    reach — CLI tools, ad-hoc scripts.
    """
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            _default_registry = MetricsRegistry()
        return _default_registry
