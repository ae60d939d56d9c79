"""repro.parallel — the per-landmark sweep kernels.

Highway cover labellings decompose by landmark: construction is one
independent BFS sweep per landmark, an update batch is one find and one
repair per landmark, and decremental rebuilds redo single landmarks in
isolation (repairs touch only ``r``-entries, so they commute — see
``docs/DESIGN.md`` §6).  This package holds those per-landmark kernels;
the callers run them one landmark after another in the calling process
and merge the results in landmark order.  Landmark sharding
(:mod:`repro.core.sharding`) is what spreads the landmarks over
processes.

Used by :func:`repro.core.construction.build_hcl`,
:func:`repro.core.construction_fast.build_hcl_fast`,
:func:`repro.core.decremental.apply_edge_deletion` and
:meth:`repro.core.inchl_fast.FastUpdateEngine.apply_mixed`.

>>> sweep = landmark_sweep({0: [1], 1: [0]}, 0, frozenset({0}))
>>> sweep.levels
[(1, [1])]
"""

from repro.parallel.sweeps import (
    LandmarkSweep,
    csr_find_affected_mixed,
    csr_landmark_sweep,
    csr_repair_affected,
    landmark_sweep,
    merge_sweep,
)

__all__ = [
    "LandmarkSweep",
    "csr_find_affected_mixed",
    "csr_landmark_sweep",
    "csr_repair_affected",
    "landmark_sweep",
    "merge_sweep",
]
