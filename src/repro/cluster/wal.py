"""`UpdateLog` — the cluster's append-only, epoch-indexed update log.

Every write accepted by the :class:`~repro.cluster.router.ClusterRouter`
is assigned the next **log sequence number** (the cluster's epoch: seq
``N`` names the graph state after events ``1..N``) and appended here
before it is acknowledged.  Replicas apply the log in order, so the log
*is* the replication protocol: any process that replays the same prefix
holds the same graph — and, because IncHL+/DecHL maintain the canonical
minimal labelling, the same labelling byte for byte (docs/DESIGN.md §9).

Durability is optional and tunable.  With a directory, records append to
NDJSON **segment files** (``wal-<firstseq>.ndjson``, one JSON array
``[seq, kind, u, v]`` per line, rotated every ``segment_records``)
under an fsync policy:

* ``"always"`` — flush + fsync before every append acknowledges (each
  acked write survives a host crash);
* ``"batch"`` (default) — flush per append, fsync every
  ``fsync_every`` records and on close (bounded loss window, far fewer
  forced writes);
* ``"never"`` — flush only; the OS decides when bytes hit disk.

A torn final line (crash mid-append) is tolerated on replay; corruption
anywhere else raises :class:`~repro.exceptions.ClusterError` — better to
refuse than to fork replicas.

**Compaction** folds a prefix of the log into a ``save_oracle``
checkpoint (:func:`write_checkpoint` stamps ``meta={"log_seq": N}``),
after which :meth:`UpdateLog.compact` drops the covered segments; a
replica warm-starts from the checkpoint and replays only the suffix
(:func:`scan_wal` reads segments without taking ownership, so replicas
replay a WAL the router is still appending to).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import monotonic
from typing import Iterable, NamedTuple

from repro.exceptions import ClusterError
from repro.workloads.streams import UpdateEvent

__all__ = [
    "FSYNC_POLICIES",
    "LogRecord",
    "UpdateLog",
    "scan_wal",
    "write_checkpoint",
    "restore_checkpoint",
]

FSYNC_POLICIES = ("always", "batch", "never")

_KINDS = ("insert", "delete")
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".ndjson"


class LogRecord(NamedTuple):
    """One logged update: ``seq`` is the cluster epoch it produces."""

    seq: int
    kind: str
    u: int
    v: int

    @property
    def event(self) -> UpdateEvent:
        return UpdateEvent(self.kind, (self.u, self.v))


def _segment_path(directory: Path, first_seq: int) -> Path:
    return directory / f"{_SEGMENT_PREFIX}{first_seq:012d}{_SEGMENT_SUFFIX}"


def _segment_files(directory: Path) -> list[Path]:
    """Segment files in ascending first-seq order."""
    return sorted(
        p for p in directory.iterdir()
        if p.name.startswith(_SEGMENT_PREFIX) and p.name.endswith(_SEGMENT_SUFFIX)
    )


def _parse_record(raw) -> LogRecord:
    seq, kind, u, v = raw
    if kind not in _KINDS:
        raise ValueError(f"unknown event kind {kind!r}")
    return LogRecord(int(seq), kind, int(u), int(v))


def scan_wal(directory: str | os.PathLike, start_seq: int = 1) -> list[LogRecord]:
    """Read every record with ``seq >= start_seq`` from a WAL directory.

    Safe against a concurrent appender: a torn trailing line of the last
    segment is ignored (it was never acknowledged under any fsync
    policy).  Corruption elsewhere, or a sequence gap between records,
    raises :class:`ClusterError`.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    records: list[LogRecord] = []
    segments = _segment_files(directory)
    last_seen: int | None = None
    for index, segment in enumerate(segments):
        is_last_segment = index == len(segments) - 1
        with open(segment, "rb") as handle:
            lines = handle.read().split(b"\n")
        for line_no, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = _parse_record(json.loads(line))
            except (ValueError, TypeError, json.JSONDecodeError) as exc:
                at_tail = is_last_segment and line_no == len(lines) - 1
                if at_tail:  # torn final line: crash mid-append, unacked
                    break
                raise ClusterError(
                    f"{segment}:{line_no + 1}: corrupt WAL record: {exc}"
                ) from exc
            if last_seen is not None and record.seq != last_seen + 1:
                raise ClusterError(
                    f"{segment}: WAL sequence gap: {last_seen} -> {record.seq}"
                )
            last_seen = record.seq
            if record.seq >= start_seq:
                records.append(record)
    return records


class UpdateLog:
    """Append-only, epoch-indexed log of update events.

    In-memory always (fan-out and catch-up read from memory); durable to
    NDJSON segments when constructed with a ``directory``.  Single
    writer: exactly one router process appends (the asyncio loop), any
    number of replicas replay via :func:`scan_wal`.

    >>> log = UpdateLog()  # in-memory (tests, benches without a disk)
    >>> log.append("insert", 0, 1)
    1
    >>> log.append_events([("insert", 1, 2), ("delete", 0, 1)])
    3
    >>> [r.seq for r in log.read(2)]
    [2, 3]
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        *,
        fsync: str = "batch",
        segment_records: int = 4096,
        fsync_every: int = 64,
        base_seq: int = 0,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ClusterError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        if segment_records < 1:
            raise ClusterError(f"segment_records must be >= 1, got {segment_records}")
        self._fsync = fsync
        self._segment_records = segment_records
        self._fsync_every = max(1, fsync_every)
        self._unsynced = 0
        self._dir = Path(directory) if directory is not None else None
        self._handle = None
        self._handle_records = 0
        #: Seq of the last record dropped by compaction: in-memory records
        #: cover ``base + 1 .. head``.
        self._base = base_seq
        self._records: list[LogRecord] = []
        #: ``(monotonic_ts, bytes)`` of the previous :meth:`stats` size
        #: reading, plus the last derived growth rate — so WAL bloat is a
        #: rate, not just a segment count.
        self._size_sample: tuple[float, int] | None = None
        self._growth_bytes_per_s: float | None = None
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
            _repair_torn_tail(self._dir)
            existing = scan_wal(self._dir)
            if existing:
                first = existing[0].seq
                if first > base_seq + 1:
                    # Segments start past the checkpoint the caller knows
                    # about: records in between are gone for good.
                    raise ClusterError(
                        f"{self._dir}: WAL starts at seq {first} but the "
                        f"checkpoint covers only up to {base_seq}"
                    )
                self._records = [r for r in existing if r.seq > base_seq]
            self._base = base_seq

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def head(self) -> int:
        """Seq of the newest record (``base`` when the log is empty)."""
        return self._records[-1].seq if self._records else self._base

    @property
    def base(self) -> int:
        """Seq up to (and including) which the log has been compacted."""
        return self._base

    @property
    def fsync_policy(self) -> str:
        return self._fsync

    @property
    def directory(self) -> Path | None:
        return self._dir

    def __len__(self) -> int:
        return len(self._records)

    def stats(self) -> dict:
        """On-disk footprint and position summary for telemetry: ``head``
        and ``base`` seqs plus the number of segment files and their total
        bytes (both 0 for an in-memory log).

        ``wal_growth_bytes_per_s`` is derived from two successive reads
        (the byte delta over the elapsed monotonic time): ``None`` on the
        first call, a rate thereafter — negative after a compaction
        shrinks the log.  Back-to-back calls (under ~50 ms apart) reuse
        the previous rate rather than derive one from a degenerate
        interval.
        """
        segments = 0
        total_bytes = 0
        if self._dir is not None:
            for path in _segment_files(self._dir):
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue  # racing a compaction's unlink
                segments += 1
        now = monotonic()
        if self._size_sample is None:
            self._size_sample = (now, total_bytes)
        else:
            prev_ts, prev_bytes = self._size_sample
            elapsed = now - prev_ts
            if elapsed >= 0.05:
                self._growth_bytes_per_s = round(
                    (total_bytes - prev_bytes) / elapsed, 3
                )
                self._size_sample = (now, total_bytes)
        return {
            "head": self.head,
            "base": self.base,
            "segments": segments,
            "bytes": total_bytes,
            "wal_growth_bytes_per_s": self._growth_bytes_per_s,
        }

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, kind: str, u: int, v: int) -> int:
        """Append one event; returns its assigned seq (the new head)."""
        return self.append_events([(kind, u, v)])

    def append_events(self, events: Iterable[tuple[str, int, int]]) -> int:
        """Append a burst atomically w.r.t. seq assignment; returns the
        new head (unchanged if ``events`` is empty)."""
        records = []
        seq = self.head
        for kind, u, v in events:
            if kind not in _KINDS:
                raise ClusterError(f"unknown event kind {kind!r}")
            seq += 1
            records.append(LogRecord(seq, kind, int(u), int(v)))
        if not records:
            return self.head
        if self._dir is not None:
            self._write_records(records)
        self._records.extend(records)
        return seq

    def _write_records(self, records: list[LogRecord]) -> None:
        for record in records:
            if self._handle is None:
                path = _segment_path(self._dir, record.seq)
                self._handle = open(path, "ab")
                self._handle_records = 0
            self._handle.write(
                json.dumps(list(record), separators=(",", ":")).encode("utf-8")
                + b"\n"
            )
            self._handle_records += 1
            if self._handle_records >= self._segment_records:
                self._rotate()
        self._unsynced += len(records)
        if self._handle is not None:
            self._handle.flush()
            if self._fsync == "always" or (
                self._fsync == "batch" and self._unsynced >= self._fsync_every
            ):
                self.sync()

    def _rotate(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.flush()
            if self._fsync != "never":
                os.fsync(handle.fileno())
            handle.close()
        self._unsynced = 0

    def sync(self) -> None:
        """Force dirty bytes to disk (no-op for in-memory logs)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        self._unsynced = 0

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read(self, start_seq: int, limit: int | None = None) -> list[LogRecord]:
        """Records from ``start_seq`` (inclusive) onwards, oldest first.

        Raises :class:`ClusterError` when ``start_seq`` falls below the
        compaction base — those records only exist folded into the
        checkpoint now.

        Safe against a concurrent append/compaction on another thread
        (the router offloads file I/O to an executor): the record list is
        snapshotted by reference — compaction *rebinds* it, never mutates
        it in place — and the slice index comes from that snapshot's own
        first seq, not from a separately-read base.
        """
        records = self._records  # local ref: immune to rebinding
        if start_seq <= self._base:
            raise ClusterError(
                f"records below seq {self._base + 1} were compacted away "
                f"(requested {start_seq}); restart from the checkpoint"
            )
        if not records:
            return []
        index = start_seq - records[0].seq
        if index < 0:  # pragma: no cover - compaction race window
            raise ClusterError(
                f"records below seq {records[0].seq} were compacted away "
                f"(requested {start_seq}); restart from the checkpoint"
            )
        if limit is None:
            return records[index:]
        return records[index : index + limit]

    def events_since(self, seq: int) -> list[UpdateEvent]:
        """The events after ``seq``, ready to feed an oracle service."""
        return [record.event for record in self.read(seq + 1)]

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, through_seq: int) -> int:
        """Drop records (and whole segments) up to ``through_seq``.

        Call only after a checkpoint covering ``through_seq`` is safely on
        disk (:func:`write_checkpoint`) **and** every replica has acked at
        least that far — the supervisor enforces both.  Returns how many
        in-memory records were dropped.  Partially-covered segments are
        kept whole: replay filters by seq, so overlap is harmless.
        """
        if through_seq <= self._base:
            return 0
        if through_seq > self.head:
            raise ClusterError(
                f"cannot compact through {through_seq}: head is {self.head}"
            )
        dropped = through_seq - self._base
        # Base first, then rebind the (never-mutated) record list: a
        # concurrent reader on another thread either sees the old list
        # (indexed by its own first seq) or the new one — `head` never
        # appears to regress mid-compaction.
        self._base = through_seq
        self._records = self._records[dropped:]
        if self._dir is not None:
            segments = _segment_files(self._dir)
            # A segment is deletable when the next segment starts at or
            # below through_seq + 1 (i.e. every record in it is covered).
            for i, segment in enumerate(segments):
                next_first = (
                    _segment_first_seq(segments[i + 1])
                    if i + 1 < len(segments)
                    else None
                )
                if next_first is not None and next_first <= through_seq + 1:
                    segment.unlink()
                else:
                    break
        return dropped

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush, fsync (policy permitting) and close the active segment
        (idempotent)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.flush()
            if self._fsync != "never":
                os.fsync(handle.fileno())
            handle.close()
        self._unsynced = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self._dir) if self._dir else "memory"
        return (
            f"UpdateLog({where}, base={self._base}, head={self.head}, "
            f"fsync={self._fsync})"
        )


def _segment_first_seq(path: Path) -> int:
    return int(path.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)])


def _repair_torn_tail(directory: Path) -> None:
    """Truncate a torn (newline-less) final line off the newest segment.

    Run by the log *owner* on open: readers merely tolerate the torn tail
    (:func:`scan_wal`), but leaving it in place would strand a corrupt
    line mid-log once a new segment starts after it.
    """
    segments = _segment_files(directory)
    if not segments:
        return
    last = segments[-1]
    data = last.read_bytes()
    if not data or data.endswith(b"\n"):
        return
    keep = data.rfind(b"\n") + 1  # 0 when no complete line survived
    with open(last, "r+b") as handle:
        handle.truncate(keep)
    if keep == 0:
        last.unlink()


def write_checkpoint(
    oracle_like,
    path: str | os.PathLike,
    log_seq: int,
    extra_meta: dict | None = None,
) -> None:
    """Atomically and durably persist an oracle (or a pinned
    :class:`~repro.serving.snapshot.OracleSnapshot`) as a checkpoint
    covering log position ``log_seq``.

    :func:`~repro.utils.serialization.save_oracle` writes a temporary
    sibling, fsyncs it, renames it into place and fsyncs the directory,
    so a crash mid-write never clobbers the previous checkpoint, and a
    returned call means the checkpoint is on disk — the precondition of
    :meth:`UpdateLog.compact` unlinking the segments it covers.
    ``log_seq`` may *understate* what the state contains (a replica
    checkpoints a moving target): replaying already-applied events is
    harmless — a duplicate insert or absent-edge delete is rejected
    deterministically, and re-applied survivors land on the same
    canonical minimal labelling.

    ``extra_meta`` merges additional keys into the file's meta dict —
    the sharded cluster records the shard plan
    (:meth:`repro.cluster.shards.ShardPlan.to_meta`) so a restart can
    verify it restores the same landmark partition.
    """
    from repro.utils.serialization import save_oracle

    meta: dict = {"log_seq": int(log_seq)}
    if extra_meta:
        meta.update(extra_meta)
    save_oracle(oracle_like, path, meta=meta)


def restore_checkpoint(path: str | os.PathLike):
    """Load a checkpoint; returns ``(oracle, log_seq)``.

    Plain ``save_oracle`` files (no meta) restore at ``log_seq == 0`` —
    the full log replays on top.
    """
    from repro.utils.serialization import load_oracle_with_meta

    oracle, meta = load_oracle_with_meta(path)
    return oracle, int(meta.get("log_seq", 0))
