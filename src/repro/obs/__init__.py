"""`repro.obs` — the unified observability layer (docs/DESIGN.md §11, §13).

The point-in-time half (PR 6), shared by every serving/cluster process:

* :mod:`repro.obs.registry` — counters, gauges, and **mergeable**
  fixed-bucket histograms with Prometheus text exposition (the exact
  cluster-wide percentile merge lives on these);
* :mod:`repro.obs.log` — structured JSON logging with trace correlation
  and the slow-operation threshold;
* :mod:`repro.obs.trace` — contextvar spans keyed by the wire-level
  ``trace`` field, recorded to a ring + optional NDJSON span log;
* :mod:`repro.obs.exporter` — the ``--metrics-port`` HTTP scrape
  endpoint.

And the continuous half (docs/DESIGN.md §13):

* :mod:`repro.obs.profile` — opt-in sampling wall-clock profiler
  (``REPRO_PROFILE=1``): folded stacks + per-engine-phase attribution;
* :mod:`repro.obs.timeseries` — bounded NDJSON metrics history with
  downsampling (the ``history`` op / ``repro top`` trajectory source);
* :mod:`repro.obs.slo` — declarative SLOs with multi-window burn-rate
  alerting (``alerts`` op, ``repro_slo_burn``/``repro_slo_breach``).
"""

from repro.obs.log import (
    StructuredLogger,
    get_logger,
    slow_threshold_ms,
)
from repro.obs.registry import (
    COUNT_BOUNDS,
    LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    merge_histograms,
)
from repro.obs.trace import (
    SpanRecorder,
    current_trace_id,
    get_recorder,
    new_trace_id,
    obs_enabled,
    record_span,
    reset_recorder,
    span,
)
from repro.obs.exporter import CONTENT_TYPE, MetricsExporter
from repro.obs.profile import (
    PHASE_MARKERS,
    SamplingProfiler,
    attribute_folded,
    dump_if_enabled,
    get_profiler,
    profile_enabled,
    reset_profiler,
    start_if_enabled,
)
from repro.obs.slo import SLO, SLOEvaluator, default_slos, load_slos, parse_slos
from repro.obs.timeseries import TimeSeriesRecorder, peak_rss_kb, read_series

__all__ = [
    "LATENCY_BOUNDS",
    "COUNT_BOUNDS",
    "Histogram",
    "merge_histograms",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "get_registry",
    "StructuredLogger",
    "get_logger",
    "slow_threshold_ms",
    "SpanRecorder",
    "get_recorder",
    "reset_recorder",
    "span",
    "record_span",
    "new_trace_id",
    "current_trace_id",
    "obs_enabled",
    "MetricsExporter",
    "CONTENT_TYPE",
    "PHASE_MARKERS",
    "SamplingProfiler",
    "attribute_folded",
    "profile_enabled",
    "get_profiler",
    "reset_profiler",
    "start_if_enabled",
    "dump_if_enabled",
    "TimeSeriesRecorder",
    "read_series",
    "peak_rss_kb",
    "SLO",
    "SLOEvaluator",
    "parse_slos",
    "load_slos",
    "default_slos",
]
