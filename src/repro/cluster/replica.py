"""Replica workers: one full copy of the oracle per process.

A replica is an :class:`~repro.serving.server.OracleServer` plus cluster
semantics (:class:`ReplicaServer`):

* **`apply`** — the router's fan-out op: a batch of ``(seq, kind, u, v)``
  log records, applied through the single-writer
  :class:`~repro.serving.service.OracleService` (each drained chunk of
  inserts and deletes applies as one vectorized engine batch) and
  acknowledged only once applied *and* published — the router's
  ``acked_seq`` for a replica is therefore always a state the replica can
  serve.  Records at or below the replica's ``applied_seq`` are skipped
  (idempotent redelivery); a sequence gap is refused (the replica must
  restart from checkpoint + WAL instead of silently forking).
* **`query` / `query_many` / `path` with `min_epoch`** — read-your-writes
  gating: the replica refuses to answer below the requested log position;
  read responses report the replica's ``applied_seq`` as their ``epoch``.
* **`checkpoint`** — persist a pinned snapshot as a
  ``save_oracle`` + ``{"log_seq": N}`` file (atomic rename), feeding WAL
  compaction.  The snapshot is immutable, so the save runs in an executor
  while the writer keeps applying.

:func:`build_replica` is the warm-start path (checkpoint → WAL suffix
replay → serving), shared byte-for-byte between the process entry
:func:`run_replica` and the in-process servers the tests and benches use.

The supervisor runs each replica as ``python -m repro.cluster.replica``
with the :class:`ReplicaSpec` as JSON in ``REPRO_REPLICA_SPEC``, plus a
``report_fd`` key naming an inherited pipe end that receives one
``host port`` line once the socket is bound.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.wal import scan_wal, write_checkpoint
from repro.exceptions import ClusterError
from repro.obs.log import get_logger
from repro.serving.server import OracleServer
from repro.workloads.streams import UpdateEvent

if TYPE_CHECKING:
    from repro.serving.service import OracleService

__all__ = [
    "ReplicaSpec",
    "ReplicaServer",
    "build_replica",
    "run_replica",
]

_APPLY_TIMEOUT = 300.0  # seconds an `apply` waits for the writer to publish


def _peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 where the
    ``resource`` module is unavailable).  Reported per replica so the
    sharded cluster can show per-shard memory in ``repro top``."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything a replica process needs to boot.  The supervisor hands
    it to ``python -m repro.cluster.replica`` as the JSON object in
    ``REPRO_REPLICA_SPEC``, so every field is JSON-encodable."""

    name: str
    checkpoint_path: str
    wal_dir: str | None = None
    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 128
    #: Landmark sharding: with ``num_shards > 1`` the replica restricts
    #: the restored oracle to shard ``shard_index``'s owned landmarks
    #: (:mod:`repro.cluster.shards`) before serving.  The checkpoint may
    #: be the full seed oracle or a previously written shard checkpoint
    #: — restriction is idempotent, so both warm-start identically.
    shard_index: int | None = None
    num_shards: int = 1


class ReplicaServer(OracleServer):
    """An :class:`OracleServer` that participates in a cluster."""

    obs_component = "replica"

    def __init__(
        self,
        service: OracleService,
        *,
        name: str = "replica",
        host: str = "127.0.0.1",
        port: int = 0,
        applied_seq: int = 0,
        checkpoint_path: str | None = None,
        metrics_port: int | None = None,
        shard_index: int | None = None,
        shard_meta: dict | None = None,
    ) -> None:
        super().__init__(service, host=host, port=port, metrics_port=metrics_port)
        self.name = name
        self._applied_seq = applied_seq
        self._checkpoint_path = checkpoint_path
        self.shard_index = shard_index
        self._shard_meta = shard_meta
        self._async_ops.update(
            {"apply": self._op_apply, "checkpoint": self._op_checkpoint}
        )
        seq_gauge = self._registry.gauge(
            "repro_replica_applied_seq",
            "Highest log seq this replica has applied and published.",
        )
        self._registry.on_collect(lambda: seq_gauge.set(self._applied_seq))

    @property
    def applied_seq(self) -> int:
        """Highest log seq applied *and* published (the replica's epoch)."""
        return self._applied_seq

    # ------------------------------------------------------------------
    # Cluster ops
    # ------------------------------------------------------------------
    async def _op_apply(self, request: dict) -> dict:
        events: list[UpdateEvent] = []
        last_accepted = self._applied_seq
        for raw in request["events"]:
            seq, kind, u, v = raw
            seq = int(seq)
            if seq <= self._applied_seq:
                continue  # redelivered (router reconnect); already applied
            if seq != last_accepted + 1:
                return {
                    "ok": False,
                    "error": (
                        f"log gap: expected seq {last_accepted + 1}, got {seq}; "
                        f"replica must restart from checkpoint"
                    ),
                    "applied_seq": self._applied_seq,
                }
            events.append(UpdateEvent(kind, (int(u), int(v))))
            last_accepted = seq
        if events:
            service = self._service
            service.submit_many(events)
            barrier = service.request_publish()
            loop = asyncio.get_running_loop()
            done = await loop.run_in_executor(None, barrier.wait, _APPLY_TIMEOUT)
            if not done:
                return {
                    "ok": False,
                    "error": "apply timed out waiting for the writer",
                    "applied_seq": self._applied_seq,
                }
            if service.degraded is not None:
                return {
                    "ok": False,
                    "error": f"replica degraded: {service.degraded}",
                    "applied_seq": self._applied_seq,
                }
            self._applied_seq = last_accepted
        return {
            "ok": True,
            "applied_seq": self._applied_seq,
            "epoch": self._applied_seq,
        }

    async def _op_checkpoint(self, request: dict) -> dict:
        path = request.get("path") or self._checkpoint_path
        if not path:
            return {"ok": False, "error": "no checkpoint path configured"}
        # Read the seq *before* pinning the snapshot: applied_seq only ever
        # advances after a publish, so the snapshot contains at least
        # everything up to seq_now and the meta may only understate —
        # replaying an already-applied suffix is harmless (see wal.py).
        seq_now = self._applied_seq
        snapshot = self._service.snapshot
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, write_checkpoint, snapshot, path, seq_now, self._shard_meta
        )
        return {"ok": True, "log_seq": seq_now, "path": str(path)}

    # ------------------------------------------------------------------
    # Read gating
    # ------------------------------------------------------------------
    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op in ("update", "updates"):
            # A write that bypasses the log would silently fork this
            # replica from the cluster (no seq, no fan-out) — the
            # byte-identical invariant only holds for logged events.
            return {
                "ok": False,
                "error": (
                    f"replica {self.name} accepts updates only from the "
                    f"cluster log (op 'apply'); send writes to the router"
                ),
            }
        if op in ("query", "query_many", "path"):
            # Capture before the base dispatch pins its snapshot: applies
            # bump applied_seq only after publishing, so the pinned
            # snapshot contains at least everything up to seq_now.
            seq_now = self._applied_seq
            min_epoch = request.get("min_epoch")
            if min_epoch is not None and seq_now < int(min_epoch):
                return {
                    "ok": False,
                    "error": (
                        f"replica {self.name} is at epoch {seq_now}, "
                        f"below the requested min_epoch {int(min_epoch)}"
                    ),
                    "epoch": seq_now,
                    "retryable": True,
                }
            response = super()._dispatch(request)
            if response.get("ok"):
                response["epoch"] = seq_now  # cluster epoch = log seq
            return response
        response = super()._dispatch(request)
        if op == "stats" and response.get("ok"):
            entry = {
                "name": self.name,
                "applied_seq": self._applied_seq,
                "rss_kb": _peak_rss_kb(),
            }
            if self.shard_index is not None:
                entry["shard"] = self.shard_index
            response["stats"]["replica"] = entry
        return response


def build_replica(spec: ReplicaSpec) -> ReplicaServer:
    """Warm-start a replica: checkpoint, then WAL suffix, then serve.

    The exact boot path a restarted worker takes — the convergence tests
    call it in-process to prove a crash + restart lands byte-identical to
    a sequential replay.  The returned server is not yet started.

    With ``spec.num_shards > 1`` the restored oracle is restricted to
    shard ``spec.shard_index``'s owned landmarks before the WAL replay:
    the shard engine repairs only the owned rows, so replaying the same
    suffix on every shard reconstructs the exact landmark partition of
    the sequential full-oracle replay.
    """
    from repro.serving.service import OracleService
    from repro.utils.serialization import load_oracle_with_meta

    oracle, meta = load_oracle_with_meta(spec.checkpoint_path)
    applied = int(meta.get("log_seq", 0))
    shard_meta = None
    if spec.num_shards > 1:
        from repro.cluster.shards import ShardPlan, make_shard_oracle

        if spec.shard_index is None or not (
            0 <= spec.shard_index < spec.num_shards
        ):
            raise ClusterError(
                f"replica {spec.name}: shard_index {spec.shard_index!r} "
                f"invalid for num_shards={spec.num_shards}"
            )
        plan = ShardPlan.for_landmarks(oracle.landmarks, spec.num_shards)
        if "shard_plan" in meta and ShardPlan.from_meta(meta) != plan:
            raise ClusterError(
                f"replica {spec.name}: checkpoint shard plan does not match "
                f"the {spec.num_shards}-shard striping of its landmarks"
            )
        recorded_index = meta.get("shard_index")
        if recorded_index is not None and int(recorded_index) != spec.shard_index:
            raise ClusterError(
                f"replica {spec.name}: checkpoint belongs to shard "
                f"{recorded_index}, not {spec.shard_index}"
            )
        # The source oracle is discarded right here, so the shard may
        # take its graph by reference instead of copying it.
        oracle = make_shard_oracle(
            oracle, plan, spec.shard_index, copy_graph=False
        )
        shard_meta = {**plan.to_meta(), "shard_index": spec.shard_index}
    service = OracleService(oracle, max_batch=spec.max_batch)
    if spec.wal_dir:
        records = scan_wal(spec.wal_dir, start_seq=applied + 1)
        if records:
            if records[0].seq > applied + 1:
                raise ClusterError(
                    f"replica {spec.name}: WAL starts at seq {records[0].seq} "
                    f"but the checkpoint covers only up to {applied}"
                )
            service.start()
            service.submit_many(record.event for record in records)
            service.flush()
            applied = records[-1].seq
    return ReplicaServer(
        service,
        name=spec.name,
        host=spec.host,
        port=spec.port,
        applied_seq=applied,
        checkpoint_path=spec.checkpoint_path,
        shard_index=spec.shard_index if spec.num_shards > 1 else None,
        shard_meta=shard_meta,
    )


def run_replica(spec: ReplicaSpec, report_fd: int | None = None) -> int:
    """Process entry point: boot from checkpoint + WAL, serve until
    SIGTERM/SIGINT, exit 0 on a clean drain (1 when the boot fails).

    ``report_fd`` (an inherited pipe end) receives one ``host port`` line
    once the socket is bound, then is closed — the supervisor assigns
    ephemeral ports, so the replica must report where it landed.
    """
    log = get_logger("replica")
    try:
        server = build_replica(spec)
    except Exception as exc:
        log.error("boot_failed", replica=spec.name, err=str(exc))
        return 1
    log.info("booted", replica=spec.name, applied_seq=server.applied_seq)

    def _report(started_server) -> None:
        if report_fd is not None:
            host, port = started_server.address
            os.write(report_fd, f"{host} {port}\n".encode())
            os.close(report_fd)

    try:
        asyncio.run(server.run(on_started=_report))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    return 0


def main() -> int:
    """``python -m repro.cluster.replica``: the spec comes from
    ``REPRO_REPLICA_SPEC``, whose optional ``report_fd`` field is the pipe
    end :func:`run_replica` reports its address on."""
    from repro import knobs

    fields = dict(knobs.get("REPRO_REPLICA_SPEC"))
    report_fd = fields.pop("report_fd", None)
    return run_replica(ReplicaSpec(**fields), report_fd)


if __name__ == "__main__":  # pragma: no cover - runs in the replica process
    # Run the importable module, not this ``__main__`` copy of it: names
    # patched on ``repro.cluster.replica`` (``ReplicaServer._op_apply``)
    # must be the ones that serve.
    from repro.cluster import replica

    raise SystemExit(replica.main())
