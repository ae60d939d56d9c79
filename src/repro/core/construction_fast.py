"""Vectorized construction of a minimal highway cover labelling.

Semantically identical to :func:`repro.core.construction.build_hcl` — the
test-suite asserts exact equality of the produced labelling — but the
per-landmark BFS with cover flags runs on a
:class:`~repro.graph.csr.CSRGraph` snapshot with numpy level sweeps.  This
is the construction counterpart of the CSR fast path: the paper's C++
implementation builds billion-edge labellings offline, and this module is
what lets the Python reproduction build its scaled stand-ins (tens of
thousands of vertices, |R| up to 60) in seconds rather than minutes.

The numpy kernel lives in :func:`repro.core.sweeps.csr_landmark_sweep`
(cover flags propagate as a scatter over the frontier adjacency); each
sweep writes one landmark's dense distance row and label-membership mask,
and :meth:`~repro.core.labelling.HighwayCoverLabelling.from_rows` turns
the rows into the dict labelling.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.labelling import HighwayCoverLabelling
from repro.exceptions import GraphError, VertexNotFoundError
from repro.graph.csr import CSRGraph
from repro.core.sweeps import csr_landmark_sweep

__all__ = ["build_hcl_fast", "build_hcl_fast_rows"]


def build_hcl_fast(
    graph,
    landmarks: Sequence[int] | Iterable[int],
    csr: CSRGraph | None = None,
) -> HighwayCoverLabelling:
    """Build the minimal highway cover labelling on the CSR fast path.

    Produces a labelling equal (entry-for-entry and cell-for-cell) to
    :func:`repro.core.construction.build_hcl` on the same inputs.  Pass a
    pre-built ``csr`` snapshot to amortize snapshotting across calls; it
    must describe the same graph.

    >>> from repro.graph.generators import grid_graph
    >>> from repro.core.construction import build_hcl
    >>> g = grid_graph(4, 4)
    >>> build_hcl_fast(g, [0, 15]) == build_hcl(g, [0, 15])
    True
    """
    landmarks = list(landmarks)
    csr, dist, entry = build_hcl_fast_rows(graph, landmarks, csr)
    return HighwayCoverLabelling.from_rows(landmarks, landmarks, csr.ids, dist, entry)


def build_hcl_fast_rows(
    graph,
    landmarks: Sequence[int] | Iterable[int],
    csr: CSRGraph | None = None,
) -> tuple[CSRGraph, np.ndarray, np.ndarray]:
    """The construction sweeps as dense rows, without a dict labelling.

    Returns ``(csr, dist, entry)``: the CSR snapshot and, per landmark in
    selection order, the BFS distance row (int32,
    :data:`~repro.graph.dyncsr.UNREACH` when unreachable) and the
    label-membership mask over its columns — exactly the dense rows the
    update engine keeps, so :meth:`repro.core.dynamic.DynamicHCL.build`
    attaches the engine from them without a BFS of its own.
    """
    landmark_list = list(landmarks)
    if not landmark_list:
        raise GraphError("at least one landmark is required")
    for r in landmark_list:
        if not graph.has_vertex(r):
            raise VertexNotFoundError(r)

    if csr is None:
        csr = CSRGraph.from_graph(graph)
    is_landmark = np.zeros(csr.num_vertices, dtype=bool)
    for r in landmark_list:
        is_landmark[csr.index(r)] = True

    shape = (len(landmark_list), csr.num_vertices)
    dist = np.empty(shape, dtype=np.int32)
    entry = np.zeros(shape, dtype=bool)
    for k, r in enumerate(landmark_list):
        csr_landmark_sweep(
            csr.indptr, csr.indices, is_landmark, csr.index(r), dist[k], entry[k]
        )
    return csr, dist, entry
