"""Concurrent snapshot-isolated query serving over the dynamic oracle.

The paper's premise is that a maintained highway cover labelling answers
exact distance queries *while the graph changes*; this package is the
layer that actually serves that workload (docs/DESIGN.md §7):

* :mod:`repro.serving.snapshot` — cheap immutable point-in-time read
  views of an oracle (epoch-versioned: copies of the dense rows plus a
  copy-on-write freeze of the graph);
* :mod:`repro.serving.service` — :class:`OracleService`, a single-writer
  update loop draining :class:`~repro.workloads.streams.UpdateEvent`
  streams while any number of reader threads query published snapshots;
* :mod:`repro.serving.server` — an asyncio TCP front-end speaking a
  newline-delimited JSON protocol (``python -m repro serve``);
* :mod:`repro.serving.client` — a tiny blocking client for that protocol
  (used by the load generator, the CI smoke check, and the tests);
* :mod:`repro.serving.metrics` — throughput counters and p50/p95/p99
  latency tracking surfaced through the ``stats`` op.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "LatencyRecorder": "repro.serving.metrics",
        "OracleService": "repro.serving.service",
        "OracleSnapshot": "repro.serving.snapshot",
        "ServiceMetrics": "repro.serving.metrics",
    },
)

__all__ = [
    "LatencyRecorder",
    "OracleService",
    "OracleSnapshot",
    "ServiceMetrics",
]
