"""The framing of ``save_oracle`` files, readable without numpy.

A ``repro-oracle-v2`` file starts with a magic line and a one-line JSON
header (``landmarks``, ``rows``, ``meta``); the ``.npy`` records follow
(:mod:`repro.utils.serialization`).  This module reads only the framing,
so the cluster supervisor can learn each checkpoint's ``log_seq`` with
:func:`read_oracle_meta` in a process that never imports numpy.
"""

from __future__ import annotations

import gzip
import json
import os
import zlib
from typing import NoReturn

from repro.exceptions import ReproError

__all__ = ["read_oracle_meta"]

#: First line of a ``repro-oracle-v2`` file.
MAGIC = b"repro-oracle-v2\n"
#: Longest header line a loader accepts.
HEADER_LIMIT = 1 << 24
#: What a truncated or corrupt (gzip) stream raises on read.
STREAM_ERRORS = (EOFError, zlib.error, gzip.BadGzipFile)


def read_oracle_meta(path: str | os.PathLike) -> dict:
    """Only the ``meta`` dict of a ``save_oracle`` file (``{}`` when
    absent), read from the header without touching the arrays — the
    cluster supervisor calls this per checkpoint at start-up."""
    with open_binary(path) as handle:
        read_magic(handle, path)
        return read_header(handle, path)[2]


def open_binary(path: str | os.PathLike):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def fail(path, check: str) -> NoReturn:
    raise ReproError(f"{path}: {check}")


def read_magic(handle, path) -> None:
    """Read the magic line; anything but :data:`MAGIC` is rejected."""
    try:
        head = handle.read(len(MAGIC))
    except STREAM_ERRORS as exc:
        fail(path, f"unreadable stream ({exc})")
    if head != MAGIC:
        fail(path, "bad magic: not a repro oracle file")


def read_header(handle, path) -> tuple[list[int], list[int], dict]:
    """``(landmarks, rows, meta)`` from the header line, type-checked."""
    try:
        line = handle.readline(HEADER_LIMIT)
    except STREAM_ERRORS as exc:
        fail(path, f"unreadable header ({exc})")
    if not line.endswith(b"\n"):
        fail(path, "header truncated or oversized")
    try:
        header = json.loads(line)
    except ValueError as exc:
        fail(path, f"header is not JSON ({exc})")
    if not isinstance(header, dict) or sorted(header) != ["landmarks", "meta", "rows"]:
        fail(path, "header must hold exactly landmarks, meta and rows")
    landmarks, rows, meta = header["landmarks"], header["rows"], header["meta"]
    for name, value in (("landmarks", landmarks), ("rows", rows)):
        if not isinstance(value, list) or not all(
            type(r) is int and 0 <= r < 2**63 for r in value
        ) or len(set(value)) != len(value):
            fail(path, f"header {name} must be a list of unique vertex ids")
    if not landmarks:
        fail(path, "header lists no landmarks")
    if not set(rows) <= set(landmarks):
        fail(path, "header rows are not a subset of the landmarks")
    if not isinstance(meta, dict):
        fail(path, "header meta must be an object")
    return landmarks, rows, meta
