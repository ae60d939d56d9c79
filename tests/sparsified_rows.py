"""Sparsified rows as sets: the oracle of their derivation.

A snapshot graph's :class:`~repro.graph.dyncsr.SparsifiedRows` are
derived at capture from its predecessor's whenever that one holds rows.
:func:`snapshot_row_sets` reads the rows a snapshot searches and
:func:`fresh_row_sets` builds them from scratch off its frozen overlay;
the two must be equal, whatever the row order and the buffer layout.
"""

from __future__ import annotations

import numpy as np


def row_sets(rows) -> list[set[int]]:
    """Every column's row of ``rows``, as a set."""
    return [
        set(rows.indices[start : start + count].tolist())
        for start, count in zip(rows.indptr.tolist(), rows.degree.tolist())
    ]


def snapshot_row_sets(snap) -> list[set[int]]:
    """The rows ``snap``'s search reads (built at this first call, unless
    derived at capture)."""
    return row_sets(snap.graph.sparsified(snap.landmark_set))


def fresh_row_sets(snap) -> list[set[int]]:
    """``snap``'s rows built from scratch off its frozen overlay."""
    graph = snap.graph
    mask = np.zeros(graph.num_vertices, dtype=bool)
    mask[[graph.column(r) for r in snap.landmark_set]] = True
    return row_sets(graph.csr.sparsified(mask))
