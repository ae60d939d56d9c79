"""Saving and loading labellings and whole oracles.

Production deployments precompute the oracle offline, ship one file and
restore it next to the query service (paper §1).  Two formats live here:

* **Labellings** (:func:`save_labelling` / :func:`load_labelling`,
  ``repro-hcl-v1``): portable JSON in canonical ``(v, r)`` order, the
  byte-level equality check of the sharding and convergence tests.
* **Oracles** (:func:`save_oracle` / :func:`load_oracle*`,
  ``repro-oracle-v2``): the update engine's own arrays — a magic line, a
  one-line JSON header, then ``.npy`` records of the graph as a canonical
  CSR and each maintained landmark's dense distance row and
  label-membership mask (``docs/DESIGN.md`` §15).  Loading proves every
  row exact with vectorized checks and attaches the engine from the
  stored rows: no JSON decode, no per-entry parsing, no landmark BFS, no
  dict labelling.

Either format is gzip-wrapped when the file name ends in ``.gz``.
Oracle writes are atomic: a temporary sibling is written, fsynced and
renamed into place, then the directory is fsynced.
"""

from __future__ import annotations

import gzip
import json
import os
import uuid
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

from repro.core.highway import Highway
from repro.core.labelling import HighwayCoverLabelling
from repro.core.labels import LabelStore
from repro.exceptions import ReproError
from repro.graph.dyncsr import UNREACH
from repro.graph.traversal import INF
from repro.utils.oracle_header import (
    MAGIC,
    STREAM_ERRORS,
    fail,
    open_binary,
    read_header,
    read_magic,
    read_oracle_meta,
)

__all__ = [
    "save_labelling",
    "load_labelling",
    "save_oracle",
    "load_oracle",
    "load_oracle_with_meta",
    "read_oracle_meta",
]

_FORMAT = "repro-hcl-v1"
#: The ``.npy`` records after the header, in file order, with their dtypes.
_RECORDS = (
    ("ids", np.dtype("<i8")),
    ("indptr", np.dtype("<i8")),
    ("indices", np.dtype("<i4")),
    ("dist", np.dtype("<i4")),
    ("entry", np.dtype("bool")),
)


def _open(path: str | os.PathLike, mode: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _highway_cells(labelling: HighwayCoverLabelling) -> list[list]:
    """Upper-triangle highway cells in canonical landmark-position order.

    Dict insertion order observes maintenance history; emitting cells
    keyed by landmark position (``i < j`` over ``landmarks``) makes the
    serialized highway — like the sorted label rows — a valid byte-level
    equality check across maintenance routes, and lets landmark-sharded
    label files reassemble to the exact bytes of the unsharded save.
    """
    landmarks = labelling.landmarks
    position = {r: i for i, r in enumerate(landmarks)}
    indexed = []
    for r, row in labelling.highway.as_dict().items():
        i = position[r]
        for r2, d in row.items():
            j = position[r2]
            if i < j:
                indexed.append((i, j, d))
    indexed.sort()
    return [[landmarks[i], landmarks[j], d] for i, j, d in indexed]


def _write_streamed(handle, head: dict, label_rows, chunk: int = 4096) -> None:
    """Write ``{**head, "labels": [...]}`` streaming the label rows.

    ``size(L)`` dominates every other field by orders of magnitude on real
    oracles, so the label array is emitted incrementally in fixed-size
    chunks instead of being materialised as one giant list first — peak
    memory stays O(chunk) regardless of labelling size.  The output is
    byte-identical to ``json.dump`` of the equivalent payload.
    """
    prefix = json.dumps(head)
    handle.write(prefix[:-1])  # drop the closing "}" to keep the object open
    handle.write(', "labels": [')
    buffer: list[str] = []
    first = True
    for v, r, d in label_rows:
        buffer.append(json.dumps([v, r, d]))
        if len(buffer) >= chunk:
            handle.write(("" if first else ", ") + ", ".join(buffer))
            first = False
            buffer.clear()
    if buffer:
        handle.write(("" if first else ", ") + ", ".join(buffer))
    handle.write("]}")


def _iter_label_rows(labelling: HighwayCoverLabelling):
    """Label rows in canonical ``(v, r)`` order.

    Dict insertion order observes maintenance history (a DecHL
    remove-then-readd reorders entries that the mixed batch engine
    writes in landmark order), and the §1 canonicality invariant says
    history must be unobservable — so the serialized form sorts, making
    byte-level file comparison a valid equality check across every
    maintenance route.
    """
    for v, label in sorted(labelling.labels.items()):
        for r, d in sorted(label.items()):
            yield v, r, d


def save_labelling(labelling: HighwayCoverLabelling, path: str | os.PathLike) -> None:
    """Write ``labelling`` to ``path`` (gzip if the name ends in ``.gz``).

    Label rows are streamed to the file handle rather than materialised as
    one list — saving a large oracle no longer spikes memory by the size
    of the labelling (the warm-start path of ``python -m repro serve``
    ships these files around).
    """
    head = {
        "format": _FORMAT,
        "landmarks": labelling.landmarks,
        "highway": _highway_cells(labelling),
    }
    with _open(path, "w") as handle:
        _write_streamed(handle, head, _iter_label_rows(labelling))


def load_labelling(path: str | os.PathLike) -> HighwayCoverLabelling:
    """Read a labelling previously written by :func:`save_labelling`."""
    with _open(path, "r") as handle:
        payload = json.load(handle)
    if payload.get("format") != _FORMAT:
        raise ReproError(
            f"{path}: not a {_FORMAT} file (format={payload.get('format')!r})"
        )
    highway = Highway(payload["landmarks"])
    for r1, r2, d in payload["highway"]:
        if d != INF:
            highway.set_distance(r1, r2, d)
    labels = LabelStore()
    for v, r, d in payload["labels"]:
        labels.set_entry(v, r, d)
    return HighwayCoverLabelling(highway, labels)


# ---------------------------------------------------------------------------
# Oracles: repro-oracle-v2
# ---------------------------------------------------------------------------
def save_oracle(oracle, path: str | os.PathLike, meta: dict | None = None) -> None:
    """Write a :class:`~repro.core.dynamic.DynamicHCL` — graph, labelling
    and the update engine's dense rows — to ``path`` as
    ``repro-oracle-v2`` (gzip-wrapped if the name ends in ``.gz``).

    The file holds, after a magic line and a sorted-key JSON header
    (``landmarks`` in selection order, ``rows`` — the landmarks whose rows
    follow, all of them unless the oracle is a landmark shard — and
    ``meta``), five ``.npy`` records: ``ids`` (sorted), ``indptr`` and
    ``indices`` (each row's neighbours sorted), ``dist`` (``len(rows) x
    n`` int32, ``UNREACH`` when unreachable) and ``entry`` (``len(rows) x
    n`` bool).  Labels are ``L(v) = {(r_k, dist[k, v]) : entry[k, v]}``;
    highway cells are derived from the rows on load.  The bytes are
    canonical: equal oracles give equal files whatever their update
    history, and a pinned :class:`~repro.serving.snapshot.OracleSnapshot`
    saves to the same bytes as the oracle it was taken from.

    ``meta`` attaches a JSON-encodable dict — the cluster layer records
    the update-log position a checkpoint covers as ``{"log_seq": N}``
    (:mod:`repro.cluster.wal`).

    The write is atomic and durable: it goes to a temporary sibling that
    is flushed, fsynced and ``os.replace``d into place, after which the
    directory is fsynced.  A failed write (``ENOSPC``, an interrupt)
    leaves the previous file intact and no temporary behind.
    """
    rows, csr, dist, entry = oracle.checkpoint_rows()
    ids, col, indptr, indices = csr.canonical()
    shape = (len(rows), len(ids))
    out_dist = np.full(shape, UNREACH, dtype=np.int32)
    out_dist[:, col] = dist
    out_entry = np.zeros(shape, dtype=bool)
    out_entry[:, col] = entry
    header = {
        "landmarks": list(oracle.landmarks),
        "meta": meta or {},
        "rows": rows,
    }
    arrays = (ids, indptr, indices.astype(np.int32), out_dist, out_entry)

    def write(handle) -> None:
        handle.write(MAGIC)
        handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for array in arrays:
            npy.write_array(handle, array, version=(1, 0), allow_pickle=False)

    _write_atomic(Path(path), write)


def _write_atomic(path: Path, write) -> None:
    """Run ``write(handle)`` against a temporary sibling of ``path``, then
    fsync it, rename it over ``path`` and fsync the directory.

    On any failure the temporary is removed and ``path`` is untouched.
    A ``.gz`` name wraps the stream in gzip with a zero timestamp and no
    stored file name, so compressed bytes stay canonical too.
    """
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "xb") as raw:
            if path.name.endswith(".gz"):
                # Level 1: the rows are small integers and shrink ~4.5x
                # already; level 9 spends ~60x the time for 20% less.
                with gzip.GzipFile(
                    filename="", mode="wb", fileobj=raw, compresslevel=1, mtime=0
                ) as handle:
                    write(handle)
            else:
                write(raw)
            raw.flush()
            os.fsync(raw.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    directory = os.open(path.parent, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def load_oracle(path: str | os.PathLike):
    """Read an oracle written by :func:`save_oracle`.

    Round-trips graph, landmark order, highway and every label entry
    exactly; the restored oracle accepts updates immediately, its engine
    already attached from the file's verified rows.  A file that fails
    any check raises :class:`~repro.exceptions.ReproError` naming the
    file and the check — it never yields an oracle.
    """
    return _load(path)[0]


def load_oracle_with_meta(path: str | os.PathLike):
    """Like :func:`load_oracle` but also returns the file's ``meta`` dict
    (``{}`` for files saved without one)."""
    return _load(path)


def _read_record(handle, path, name: str, dtype: np.dtype) -> np.ndarray:
    """One ``.npy`` record, pickle refused, dtype and layout checked."""
    try:
        array = npy.read_array(handle, allow_pickle=False)
    except (ValueError, MemoryError, *STREAM_ERRORS) as exc:
        # MemoryError: a header claiming a shape no file could hold.
        fail(path, f"record {name!r} unreadable ({exc})")
    if array.dtype != dtype or not array.flags.c_contiguous:
        fail(path, f"record {name!r} is not a C-order {dtype} array "
                   f"(got {array.dtype})")
    return array


def _load(path: str | os.PathLike):
    """``(oracle, meta)`` from an oracle file."""
    with open_binary(path) as handle:
        read_magic(handle, path)
        landmarks, rows, meta = read_header(handle, path)
        arrays = {
            name: _read_record(handle, path, name, dtype)
            for name, dtype in _RECORDS
        }
        try:
            trailing = handle.read(1)
        except STREAM_ERRORS as exc:
            fail(path, f"unreadable stream ({exc})")
        if trailing:
            fail(path, "trailing data after the last record")
    return _oracle_from_arrays(path, landmarks, rows, **arrays), meta


def _check_graph(path, ids, indptr, indices) -> tuple[np.ndarray, np.ndarray]:
    """Validate the CSR; returns ``(sources, neighbours)`` as int64 arrays.

    Requires ids sorted, unique and non-negative; ``indptr`` monotone
    from 0 to ``len(indices)``; every index in range; each row strictly
    increasing (sorted, so no duplicate edges) with no self-loop; and a
    symmetric adjacency — the sorted transposed pairs equal the pairs.
    """
    if ids.ndim != 1 or len(ids) == 0:
        fail(path, "ids must be a non-empty vector")
    n = len(ids)
    if ids[0] < 0 or (ids[1:] <= ids[:-1]).any():
        fail(path, "ids are not sorted, unique and non-negative")
    if indptr.shape != (n + 1,) or indices.ndim != 1:
        fail(path, f"indptr/indices shapes {indptr.shape}/{indices.shape} "
                   f"do not fit {n} vertices")
    degrees = np.diff(indptr)
    if indptr[0] != 0 or indptr[-1] != len(indices) or (degrees < 0).any():
        fail(path, "indptr is not monotone from 0 to len(indices)")
    if len(indices) and (indices.min() < 0 or indices.max() >= n):
        fail(path, "neighbour index out of range")
    sources = np.repeat(np.arange(n, dtype=np.int64), degrees)
    neighbours = indices.astype(np.int64)
    if (neighbours == sources).any():
        fail(path, "adjacency has a self-loop")
    same_row = sources[1:] == sources[:-1]
    if (same_row & (neighbours[1:] <= neighbours[:-1])).any():
        fail(path, "neighbour rows are not strictly increasing")
    transposed = neighbours * n + sources
    transposed.sort()
    if not np.array_equal(transposed, sources * n + neighbours):
        fail(path, "adjacency is not symmetric")
    return sources, neighbours


def _check_rows(path, rows, row_cols, sources, neighbours, dist, entry) -> None:
    """Prove each stored row equals its landmark's BFS distances.

    For the row ``D`` of landmark ``r`` (column ``c``) the checks are:
    (a) every value is non-negative; (b) ``D`` has exactly one zero, at
    ``c``; (c) ``|D(u) - D(v)| <= 1`` on every edge unless both ends are
    ``UNREACH``; (d) every finite ``D(v) > 0`` has a neighbour ``u`` with
    ``D(u) = D(v) - 1``.

    Why that suffices: by (d), from a finite ``D(v)`` a chain of
    neighbours strictly descends by one per step; by (a) it ends at a
    zero, which by (b) is ``r`` — a walk of ``D(v)`` edges from ``r``, so
    ``v`` is reachable and ``D(v) >= d(r, v)``, and also ``D(v) < n``.
    Conversely, induct on ``d(r, v)`` along a shortest path: ``D(r) = 0``
    by (b), and if ``D(u) = d(r, u)`` for the predecessor ``u``, then
    ``D(v)`` cannot be ``UNREACH`` (the edge ``(u, v)`` would differ by
    ``UNREACH - D(u) > 1``, violating (c)), so ``D(v) <= D(u) + 1 =
    d(r, v)`` by (c).  Hence ``D = d(r, ·)`` on reachable vertices, and
    unreachable ones cannot be finite (they would be reachable), so they
    hold ``UNREACH``.  Each check is a few vectorized passes over the
    edges, ``O(|rows| * m)`` in all.

    Besides, no label entry may sit in a landmark's column or at an
    unreachable vertex.
    """
    half = sources < neighbours
    tail, head = sources[half], neighbours[half]
    for k, (r, c) in enumerate(zip(rows, row_cols)):
        row = dist[k]
        if (row < 0).any():
            fail(path, f"row of landmark {r} has a negative distance")
        zeros = np.flatnonzero(row == 0)
        if zeros.size != 1 or zeros[0] != c:
            fail(path, f"row of landmark {r} is not zero exactly at {r}")
        d_tail, d_head = row[tail], row[head]
        step = d_tail - d_head
        if ((np.abs(step) > 1) & ((d_tail != UNREACH) | (d_head != UNREACH))).any():
            fail(path, f"row of landmark {r} changes by more than one "
                       f"across an edge")
        has_parent = np.zeros(len(row), dtype=bool)
        has_parent[tail[step == 1]] = True
        has_parent[head[step == -1]] = True
        has_parent[c] = True
        if ((row != UNREACH) & ~has_parent).any():
            fail(path, f"row of landmark {r} has a finite distance with no "
                       f"neighbour one step closer")
        if (entry[k] & (row == UNREACH)).any():
            fail(path, f"row of landmark {r} has a label entry at an "
                       f"unreachable vertex")


def _oracle_from_arrays(path, landmarks, rows, ids, indptr, indices, dist, entry):
    """Validate the decoded records, then attach the oracle's engine from
    the stored rows over the stored CSR, which becomes its graph."""
    from repro.core.dynamic import DynamicHCL
    from repro.graph.dyncsr import DynCSR

    sources, neighbours = _check_graph(path, ids, indptr, indices)
    n = len(ids)
    if dist.shape != (len(rows), n) or entry.shape != dist.shape:
        fail(path, f"dist/entry shapes {dist.shape}/{entry.shape} do not fit "
                   f"{len(rows)} rows x {n} vertices")
    landmark_cols = np.searchsorted(ids, landmarks)
    if not np.array_equal(ids.take(landmark_cols, mode="clip"), landmarks):
        fail(path, "a landmark is not a vertex")
    column = dict(zip(landmarks, landmark_cols.tolist()))
    row_cols = [column[r] for r in rows]
    if entry[:, landmark_cols].any():
        fail(path, "label entry in a landmark's column")
    _check_rows(path, rows, row_cols, sources, neighbours, dist, entry)
    del sources

    dyn = DynCSR.from_arrays(ids, indptr, neighbours)
    return DynamicHCL.from_rows(
        landmarks,
        (dyn, dist, entry),
        owned_landmarks=None if rows == landmarks else rows,
    )
