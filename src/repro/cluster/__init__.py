"""Replicated multi-process serving: one writer log, N oracle replicas.

A single Python process caps aggregate read throughput far below the
"heavy traffic" target no matter how cheap each query is — the GIL
serialises the label merges.  This package scales *reads* horizontally
while keeping the paper's update semantics exact (docs/DESIGN.md §9):

* :mod:`repro.cluster.wal` — :class:`UpdateLog`, the append-only,
  epoch-indexed event log (optional on-disk NDJSON WAL with a
  configurable fsync policy), replayable from any offset and compactable
  into a ``save_oracle`` checkpoint;
* :mod:`repro.cluster.replica` — :class:`ReplicaServer` /
  :func:`run_replica`, a ``python -m repro.cluster.replica`` process
  (launched by the supervisor) that warm-starts from
  checkpoint + WAL replay, applies batched updates through the
  vectorized fast path, and serves the standard NDJSON query protocol
  with per-request ``min_epoch`` gating;
* :mod:`repro.cluster.router` — :class:`ClusterRouter`, the asyncio
  front door speaking the same client protocol: writes append to the log
  and fan out to every replica, reads route round-robin over caught-up
  replicas, stats aggregate across the fleet;
* :mod:`repro.cluster.supervisor` — :class:`ClusterSupervisor`, process
  lifecycle (spawn, health-check, restart, catch-up, WAL compaction) and
  the ``python -m repro serve-cluster`` entry point;
* :mod:`repro.cluster.shards` — :class:`ShardPlan` /
  :func:`make_shard_oracle`, deterministic landmark sharding
  (docs/DESIGN.md §12): N shard groups each hold only their owned
  landmarks' label rows, updates repair shard-locally, and the router
  scatter-gathers reads with an element-wise min reduction that stays
  globally exact.

Every replica applies the same log through the same deterministic
validation, and IncHL+/DecHL maintain the *canonical minimal* labelling
— so all replicas (and any sequential :class:`~repro.core.dynamic.DynamicHCL`
replaying the log) hold byte-identical state.
"""

from repro._lazy import lazy_exports

# Lazy: the supervisor/router process imports only what it runs, and
# never the replicas' numpy-backed oracle code.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ClusterRouter": "repro.cluster.router",
        "ClusterSupervisor": "repro.cluster.supervisor",
        "LogRecord": "repro.cluster.wal",
        "ReplicaServer": "repro.cluster.replica",
        "ReplicaSpec": "repro.cluster.replica",
        "ReplicaWorker": "repro.cluster.supervisor",
        "ShardPlan": "repro.cluster.shards",
        "UpdateLog": "repro.cluster.wal",
        "build_replica": "repro.cluster.replica",
        "make_shard_oracle": "repro.cluster.shards",
        "restore_checkpoint": "repro.cluster.wal",
        "run_replica": "repro.cluster.replica",
        "scan_wal": "repro.cluster.wal",
        "write_checkpoint": "repro.cluster.wal",
    },
)

__all__ = [
    "ClusterRouter",
    "ClusterSupervisor",
    "LogRecord",
    "ReplicaServer",
    "ReplicaSpec",
    "ReplicaWorker",
    "ShardPlan",
    "UpdateLog",
    "build_replica",
    "make_shard_oracle",
    "restore_checkpoint",
    "run_replica",
    "scan_wal",
    "write_checkpoint",
]
