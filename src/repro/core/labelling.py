"""The highway cover labelling ``Γ = (H, L)`` (Definition 3.2).

A dict labelling is what the paper's reference kernels read and mutate,
and what :func:`~repro.core.construction.build_hcl` produces.  A served
:class:`~repro.core.dynamic.DynamicHCL` keeps no dict labelling: its
store of record is the update engine's dense rows, and
:meth:`HighwayCoverLabelling.from_rows` materializes a detached dict
labelling from them on demand.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.highway import Highway
from repro.core.labels import LabelStore
from repro.graph.dyncsr import UNREACH

__all__ = ["HighwayCoverLabelling"]


@dataclass
class HighwayCoverLabelling:
    """A highway plus a distance labelling, as one value.

    Instances are produced by :func:`repro.core.construction.build_hcl` and
    mutated in place by :mod:`repro.core.inchl` (IncHL+) and
    :mod:`repro.core.decremental`.
    """

    highway: Highway
    labels: LabelStore

    @classmethod
    def from_rows(
        cls,
        landmarks: Sequence[int],
        rows: Sequence[int],
        ids: np.ndarray,
        dist: np.ndarray,
        entry: np.ndarray,
    ) -> "HighwayCoverLabelling":
        """The labelling that dense landmark rows describe.

        ``dist[k]`` is the distance row ``d(rows[k], ·)`` over the vertex
        ids ``ids`` (:data:`~repro.graph.dyncsr.UNREACH` when
        unreachable) and ``entry[k]`` its label-membership mask: ``L(v)``
        holds ``(rows[k], dist[k, v])`` iff ``entry[k, v]``.  By Eq. (1)
        that is the whole labelling: highway cells ``δ(rows[k], r2)`` are
        the finite row values at the columns of the other landmarks.
        With ``rows`` a subset of ``landmarks`` the result is a landmark
        shard's labelling: the full landmark list, the label entries of
        ``rows`` and the highway cells with an endpoint in ``rows``
        (:mod:`repro.core.sharding`).

        >>> from repro.core.construction import build_hcl
        >>> from repro.core.construction_fast import build_hcl_fast_rows
        >>> from repro.graph.generators import grid_graph
        >>> g = grid_graph(3, 3)
        >>> csr, dist, entry = build_hcl_fast_rows(g, [0, 8])
        >>> HighwayCoverLabelling.from_rows(
        ...     [0, 8], [0, 8], csr.ids, dist, entry) == build_hcl(g, [0, 8])
        True
        """
        landmarks = list(landmarks)
        ids = np.asarray(ids)
        found = np.flatnonzero(np.isin(ids, landmarks))
        column = dict(zip(ids[found].tolist(), found.tolist()))
        landmark_cols = [column[r] for r in landmarks]
        highway = Highway(landmarks)
        labels = LabelStore()
        vertex = ids.tolist().__getitem__
        for k, r in enumerate(rows):
            row = dist[k]
            for r2, d in zip(landmarks, row[landmark_cols].tolist()):
                if r2 != r and d != UNREACH:
                    highway.set_distance(r, r2, d)
            # Label entries, one bulk write per distance level.
            cols = np.flatnonzero(entry[k])
            if not cols.size:
                continue
            depths = row[cols]
            order = np.argsort(depths, kind="stable")
            depths = depths[order]
            members = list(map(vertex, cols[order].tolist()))
            cuts = [0, *(np.flatnonzero(depths[1:] != depths[:-1]) + 1).tolist(),
                    len(members)]
            for a, b in zip(cuts, cuts[1:]):
                labels.bulk_set_new(r, members[a:b], int(depths[a]))
        return cls(highway, labels)

    @property
    def landmarks(self) -> list[int]:
        """Landmarks ``R`` in selection order."""
        return self.highway.landmarks

    @property
    def landmark_set(self) -> frozenset[int]:
        """Frozen landmark set for membership tests."""
        return self.highway.landmark_set

    @property
    def label_entries(self) -> int:
        """``size(L)`` — the paper's labelling-size metric."""
        return self.labels.total_entries

    def size_bytes(self) -> int:
        """Logical byte footprint of labels + highway (Table 1 accounting)."""
        return self.labels.size_bytes() + self.highway.size_bytes()

    def average_label_size(self, num_vertices: int) -> float:
        """``l = size(L) / |V|`` from the paper's complexity analysis."""
        if num_vertices <= 0:
            raise ValueError(f"num_vertices must be positive, got {num_vertices}")
        return self.labels.total_entries / num_vertices

    def copy(self) -> "HighwayCoverLabelling":
        """Independent deep copy (used by tests and what-if analyses)."""
        return HighwayCoverLabelling(self.highway.copy(), self.labels.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HighwayCoverLabelling):
            return NotImplemented
        return self.highway == other.highway and self.labels == other.labels
