"""What the benchmark measures: workloads and metrics, with their meaning.

``BENCHMARK.json`` at the repository root lists the same workloads and
metrics in the fixed format that benchmark runners read; ``run.py``
refuses to start if the two disagree.  This module adds what that format
has no room for: what each metric means, which end-to-end metric a
per-layer metric should move and on which workload, and which metrics only
one workload reports (every metric in the JSON is reported by every
workload; ``CLUSTER_ONLY`` ones are printed by cluster-mixed alone).

Every workload reports every end-to-end metric, so those are phrased in
terms of the workload's *operation* ("op"): one ``query_many`` frame on
the read workloads, one ``updates`` batch until visible on insert-social.
The per-operation names (``read_p50_ms``, ``update_visible_p99_ms``, ...)
are printed by every run next to the JSON metrics, with "n/a" where a
workload has no such operation; ``ops_failed_frac`` (0 on a correct run)
is printed there too and reported through ``correct`` and ``failed``.

The ``BENCH_*.json`` records at the repository root and the
``repro.bench.compare`` gate are separate experiment records; this
benchmark neither reads nor changes them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    why: str
    #: What one "op" and one "item" are on this workload.
    op: str
    item: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "query-web",
            "indochina-s",
            "web graph, 1 closed-loop reader of 4-pair query_many frames; "
            "the bounded BFS dominates, update engine and publish idle "
            "(op = frame, item = pair)",
            op="4-pair query_many frame round trip",
            item="answered pair",
        ),
        Workload(
            "insert-social",
            "flickr-s",
            "social graph, closed loop of 32-insert batches + snapshot "
            "barrier, no reads; validation, the insert sweep and publish do "
            "all the work (op = batch, item = event)",
            op="32-insert batch, sent until snapshot barrier answered",
            item="visible event",
        ),
        Workload(
            "cluster-mixed",
            "flickr-s",
            "2-shard cluster, closed-loop 16-pair reader + open-loop "
            "80/20 insert/delete writer at 100 ev/s; codec, router hop, "
            "scatter-gather, WAL share the time (op = read frame)",
            op="16-pair query_many frame round trip through the router",
            item="answered pair",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    meaning: str
    bound: float | None = None
    #: For per-layer metrics: "<end-to-end metric> on <workload>, ...".
    moves: str = ""


#: The op_* metrics are over the whole window with every op scaled to
#: nominal host speed by the probe on the system's CPU in the same second
#: (probe.py); the per-operation figures printed next to them are as measured.
END_TO_END = (
    Metric("op_p50_ms", "ms", "lower",
           "median latency of the workload's op (read frame round trip; "
           "on insert-social from sending the batch until the snapshot "
           "barrier proves it visible), at nominal host speed", bound=0.25),
    Metric("op_p90_ms", "ms", "lower",
           "90th percentile of the same latency, at nominal host speed; the "
           "printed whole-window tail is the highest of p99/p95/p90 with "
           "at least ten samples beyond it", bound=0.25),
    Metric("op_items_per_s", "items/s", "higher",
           "answered pairs (read workloads) or visible events "
           "(insert-social) per second, at nominal host speed", bound=0.25),
    Metric("setup_s", "s", "lower",
           "median of three set-ups, as measured: repro build "
           "(DynamicHCL.build + save_oracle) + server or cluster boot + the "
           "first update batch visible", bound=0.25),
    Metric("server_peak_rss_mb", "MB", "lower",
           "sum of VmHWM over every server process the benchmark started",
           bound=0.1),
)

_Q = "read_p50_ms, read_pairs_per_s on query-web"
_U = "update_visible_p50_ms, update_events_per_s on insert-social"
_C = "read_p50_ms on cluster-mixed"
_S = "setup_s on every workload"

PER_LAYER = (
    Metric("query.bfs_ms", "ms", "lower",
           "time in bidirectional_bfs per service query call", moves=_Q),
    Metric("query.bfs_useful_frac", "ratio", "higher",
           "BFS calls that beat the label bound d-top / BFS calls "
           "(low = wasted searches)", moves="read_pairs_per_s on query-web"),
    Metric("query.label_join_ms", "ms", "lower",
           "time in upper_bound + landmark_distance (shard_min_distance on "
           "a shard) per service query call", moves=_C),
    Metric("query.shard_kernel_ms", "ms", "lower",
           "time in the replica's batch kernel per call: "
           "shard_query_distances_many on a shard, query_distances_many on "
           "an unsharded server", moves=_C),
    Metric("service.query_ms", "ms", "lower",
           "time in OracleService.query_many per call",
           moves="read_p50_ms on query-web"),
    Metric("server.read_wire_ms", "ms", "lower",
           "client read round trip minus the (slower shard's) "
           "service.query_ms", moves=_C),
    Metric("server.update_wire_ms", "ms", "lower",
           "client round trips until an update batch is visible, minus the "
           "time the service spends applying and publishing it, per batch",
           moves="update_visible_p50_ms on insert-social"),
    Metric("service.events_per_apply", "count", "higher",
           "update events per engine call (writer coalescing)",
           moves="update_events_per_s on insert-social"),
    Metric("engine.find_ms", "ms", "lower",
           "find phase per engine call (UpdateStats.phases)", moves=_U),
    Metric("engine.repair_ms", "ms", "lower",
           "repair phase per engine call (UpdateStats.phases)", moves=_U),
    Metric("engine.apply_other_ms", "ms", "lower",
           "engine call minus find, repair and any engine attach inside it",
           moves=_U),
    Metric("engine.affected_per_event", "count", "lower",
           "|AFF| union per event, averaged over engine calls (per shard on "
           "the cluster)", moves=_U),
    Metric("engine.attach_ms", "ms", "lower",
           "FastUpdateEngine construction (once per server or replica)",
           moves="setup_s on insert-social and cluster-mixed"),
    Metric("snapshot.capture_ms", "ms", "lower",
           "DynamicHCL.snapshot per publish, minus any engine attach inside",
           moves="update_visible_p50_ms on insert-social, read_p99_ms on "
                 "cluster-mixed"),
    Metric("replica.apply_ms", "ms", "lower",
           "per update batch, from the replica receiving it until it is "
           "published: the apply op on a cluster replica, the service's "
           "apply + publish on a single server",
           moves="update_visible_p50_ms on cluster-mixed"),
    Metric("router.read_hop_ms", "ms", "lower",
           "client read round trip minus the slower shard's "
           "service.query_ms (equals server.read_wire_ms on a single "
           "server)", moves=_C),
    Metric("replica.lag_events_max", "count", "lower",
           "largest 'pending' an updates acknowledgement reported: events "
           "logged (cluster) or queued (single server) but not yet applied",
           moves="update_visible_p99_ms on cluster-mixed"),
    Metric("setup.build_s", "s", "lower", "DynamicHCL.build", moves=_S),
    Metric("setup.save_s", "s", "lower", "save_oracle", moves=_S),
    Metric("setup.load_s", "s", "lower",
           "oracle loads, summed over the server processes", moves=_S),
    Metric("setup.boot_s", "s", "lower",
           "server start until it prints its address", moves=_S),
    Metric("setup.oracle_file_mb", "MB", "lower",
           "size of the saved oracle file", moves=_S),
    Metric("replica.peak_rss_mb", "MB", "lower",
           "largest VmHWM of one process holding the oracle",
           moves="server_peak_rss_mb on every workload"),
    Metric("read.residual_ms", "ms", "lower",
           "service.query_ms minus label join and BFS: read time no layer "
           "accounts for (large = a missing layer)"),
    Metric("update.residual_ms", "ms", "lower",
           "service apply + publish minus engine call and snapshot capture, "
           "per batch: validation, coalescing and bookkeeping"),
    Metric("trace.overhead_frac", "ratio", "lower",
           "1 - traced op_items_per_s / untraced op_items_per_s, measured "
           "in the same run"),
)

#: Per-layer metrics that exist only on the cluster; printed by the traced
#: run of cluster-mixed but kept out of the JSON, which must carry every
#: per-layer metric on every workload (an idle layer would read a constant 0).
CLUSTER_ONLY = (
    Metric("wal.append_ms", "ms", "lower",
           "UpdateLog.append_events per call, fsync included under 'batch'",
           moves="update_visible_p50_ms on cluster-mixed"),
    Metric("wal.bytes_per_event", "count", "lower",
           "WAL segment bytes / events logged"),
    Metric("router.shard_skew_ms", "ms", "lower",
           "per scattered read, slower shard's service.query_ms minus the "
           "faster one's", moves="read_p99_ms on cluster-mixed"),
)
