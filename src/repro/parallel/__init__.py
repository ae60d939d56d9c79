"""repro.parallel — the parallel per-landmark execution engine.

Highway cover labellings decompose by landmark: construction is one
independent BFS sweep per landmark, batch-insertion finds are one jumped
multi-seed BFS per landmark, and decremental rebuilds redo single
landmarks in isolation (repairs touch only ``r``-entries, so they commute
— see ``docs/DESIGN.md`` §6).  This package turns that independence into
wall-clock speedup: :class:`LandmarkEngine` fans per-landmark *sweep*
tasks out across a ``fork`` process pool, sharing the read-only graph
snapshot with workers through copy-on-write memory, and the caller merges
the partial results deterministically — so ``workers=N`` produces a
labelling byte-identical to the serial one.

Used by :func:`repro.core.construction.build_hcl`,
:func:`repro.core.construction_fast.build_hcl_fast`,
:func:`repro.core.batch.apply_edge_insertions_batch`,
:func:`repro.core.decremental.apply_edge_deletion`, and
:meth:`repro.core.inchl_fast.FastUpdateEngine.apply_mixed`; surfaced to
users as the ``workers=`` knob on :class:`repro.DynamicHCL` and the
benchmark CLI.

>>> from repro.graph.generators import grid_graph
>>> from repro.core.construction import build_hcl
>>> serial = build_hcl(grid_graph(4, 4), [0, 15])
>>> parallel = build_hcl(grid_graph(4, 4), [0, 15], workers=2)
>>> parallel == serial
True

The engine itself is domain-agnostic:

>>> engine = LandmarkEngine(workers=2)
>>> engine.workers
2
>>> sweep = landmark_sweep({0: [1], 1: [0]}, 0, frozenset({0}))
>>> sweep.levels
[(1, [1])]
"""

from repro.parallel.engine import (
    LandmarkEngine,
    available_parallelism,
    fork_available,
    resolve_workers,
)
from repro.parallel.sweeps import (
    LandmarkSweep,
    csr_find_affected_mixed,
    csr_landmark_sweep,
    csr_repair_affected,
    landmark_sweep,
    merge_sweep,
)

__all__ = [
    "LandmarkEngine",
    "LandmarkSweep",
    "available_parallelism",
    "csr_find_affected_mixed",
    "csr_landmark_sweep",
    "csr_repair_affected",
    "fork_available",
    "landmark_sweep",
    "merge_sweep",
    "resolve_workers",
]
