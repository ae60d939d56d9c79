"""Immutable, epoch-versioned read snapshots of a dynamic oracle.

Snapshot isolation is what lets readers answer queries *while* the writer
repairs the labelling: a reader pins an :class:`OracleSnapshot` and every
query against it sees the graph and labelling exactly as they stood at the
snapshot's epoch — never a half-applied batch.

The mechanism is copy-on-write at row granularity (docs/DESIGN.md §7).
Capturing a snapshot shallow-copies the three outer maps (adjacency,
label rows, highway rows) — a pointer-level copy, not a deep copy — and
marks every inner row as shared via the freeze hooks
(:meth:`~repro.graph.dynamic_graph.DynamicGraph.snapshot_adjacency`,
:meth:`~repro.core.labelling.HighwayCoverLabelling.freeze`).  The writer
then copies any shared row before mutating it in place, so the rows a
snapshot references are physically immutable for its whole lifetime.
Under CPython's GIL each published reference is observed atomically, so
readers on other threads never block and never tear.

A snapshot also pins a copy of the engine's dense ``d(r, ·)`` rows and a
frozen copy of its CSR overlay, and answers distances through the one
kernel, :func:`repro.core.sharding.shard_query_distance`, sharded or not.
A landmark shard runs the bounded search only for the pairs it owns
(:func:`repro.core.sharding.pair_owners`).
The ``Frozen*`` views duck-type the read surface of the graph and
labelling, so path extraction (:mod:`repro.core.paths`) and
``save_oracle`` read a snapshot as they read the live oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.core.paths import shortest_path as _shortest_path
from repro.core.sharding import pair_owners
from repro.exceptions import NotALandmarkError, VertexNotFoundError
from repro.graph.traversal import INF

__all__ = [
    "FrozenGraph",
    "FrozenHighway",
    "FrozenLabels",
    "FrozenLabelling",
    "OracleSnapshot",
]


class FrozenGraph:
    """Read-only point-in-time view of a :class:`DynamicGraph`.

    Duck-types the read surface of the graph (``adjacency``, ``neighbors``,
    ``has_vertex``, …); offers no mutators.  ``csr`` is the frozen
    :class:`~repro.graph.dyncsr.DynCSR` of the same epoch, which the
    bounded search reads in its numpy phase.
    """

    __slots__ = ("_adj", "_num_edges", "csr", "_landmark_set", "_mask")

    def __init__(
        self,
        adjacency: dict[int, list[int]],
        num_edges: int,
        csr,
        landmark_set: frozenset[int],
    ) -> None:
        self._adj = adjacency
        self._num_edges = num_edges
        self.csr = csr
        self._landmark_set = landmark_set
        mask = np.zeros(csr.num_vertices, dtype=bool)
        mask[csr.indices(landmark_set)] = True
        self._mask = mask

    def skip_mask(self, skip) -> np.ndarray | None:
        """Bool mask of ``skip`` over the columns of :attr:`csr` if ``skip``
        is the landmark set it was built for, else ``None``."""
        return self._mask if skip is self._landmark_set else None

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def vertices(self) -> Iterator[int]:
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def neighbors(self, v: int) -> list[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def degree(self, v: int) -> int:
        try:
            return len(self._adj[v])
        except KeyError:
            raise VertexNotFoundError(v) from None

    def adjacency(self) -> dict[int, list[int]]:
        """Raw adjacency mapping (read-only) for the traversal hot loops."""
        return self._adj

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrozenGraph(|V|={len(self._adj)}, |E|={self._num_edges})"


class FrozenLabels:
    """Read-only point-in-time view of a :class:`LabelStore`."""

    __slots__ = ("_labels", "_total")

    _EMPTY: dict[int, int] = {}

    def __init__(self, rows: dict[int, dict[int, int]], total: int) -> None:
        self._labels = rows
        self._total = total

    def label(self, v: int) -> dict[int, int]:
        return self._labels.get(v, self._EMPTY)

    def entry(self, v: int, r: int) -> int | None:
        return self._labels.get(v, self._EMPTY).get(r)

    def has_entry(self, v: int, r: int) -> bool:
        return r in self._labels.get(v, self._EMPTY)

    def label_size(self, v: int) -> int:
        return len(self._labels.get(v, self._EMPTY))

    @property
    def total_entries(self) -> int:
        return self._total

    def size_bytes(self, bytes_per_entry: int = 8) -> int:
        return self._total * bytes_per_entry

    def vertices_with_labels(self) -> Iterator[int]:
        return iter(self._labels)

    def items(self) -> Iterator[tuple[int, dict[int, int]]]:
        return iter(self._labels.items())

    def __len__(self) -> int:
        return len(self._labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrozenLabels(vertices={len(self._labels)}, entries={self._total})"


class FrozenHighway:
    """Read-only point-in-time view of a :class:`Highway`."""

    __slots__ = ("_landmarks", "_landmark_set", "_dist")

    def __init__(
        self,
        landmarks: list[int],
        landmark_set: frozenset[int],
        rows: dict[int, dict[int, float]],
    ) -> None:
        self._landmarks = landmarks
        self._landmark_set = landmark_set
        self._dist = rows

    @property
    def landmarks(self) -> list[int]:
        return self._landmarks

    @property
    def landmark_set(self) -> frozenset[int]:
        return self._landmark_set

    def __contains__(self, r: int) -> bool:
        return r in self._landmark_set

    def __len__(self) -> int:
        return len(self._landmarks)

    def distance(self, r1: int, r2: int) -> float:
        try:
            row = self._dist[r1]
        except KeyError:
            raise NotALandmarkError(r1) from None
        if r2 not in self._landmark_set:
            raise NotALandmarkError(r2)
        return row.get(r2, INF)

    def row(self, r: int) -> dict[int, float]:
        try:
            return self._dist[r]
        except KeyError:
            raise NotALandmarkError(r) from None

    def as_dict(self) -> dict[int, dict[int, float]]:
        """Raw per-landmark distance rows (read-only), the same read
        surface as :meth:`repro.core.highway.Highway.as_dict`."""
        return self._dist

    def size_bytes(self, bytes_per_distance: int = 4) -> int:
        n = len(self._landmarks)
        return n * (n - 1) // 2 * bytes_per_distance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrozenHighway(|R|={len(self._landmarks)})"


class FrozenLabelling:
    """Read-only ``Γ = (H, L)`` duck-typing :class:`HighwayCoverLabelling`."""

    __slots__ = ("highway", "labels")

    def __init__(self, highway: FrozenHighway, labels: FrozenLabels) -> None:
        self.highway = highway
        self.labels = labels

    @property
    def landmarks(self) -> list[int]:
        return self.highway.landmarks

    @property
    def landmark_set(self) -> frozenset[int]:
        return self.highway.landmark_set

    @property
    def label_entries(self) -> int:
        return self.labels.total_entries

    def size_bytes(self) -> int:
        return self.labels.size_bytes() + self.highway.size_bytes()


class OracleSnapshot:
    """One immutable epoch of a :class:`~repro.core.dynamic.DynamicHCL`.

    Answers the full read API — exact distances, batch distances, path
    extraction — against the graph as it stood at :attr:`epoch`, no matter
    what the writer does afterwards.

    >>> from repro.core.dynamic import DynamicHCL
    >>> from repro.graph.generators import grid_graph
    >>> oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
    >>> snap = oracle.snapshot()
    >>> _ = oracle.insert_edge(0, 8)
    >>> snap.query(0, 8), oracle.query(0, 8)  # snapshot is pinned
    (4, 1)
    """

    __slots__ = (
        "epoch", "graph", "labelling", "shard_rows", "row_landmarks", "owners",
    )

    def __init__(
        self,
        epoch: int,
        graph: FrozenGraph,
        labelling: FrozenLabelling,
        shard_rows,
        row_landmarks: list[int],
    ):
        self.epoch = epoch
        self.graph = graph
        self.labelling = labelling
        #: The landmarks of the rows of ``shard_rows[0]``, in row order.
        self.row_landmarks = row_landmarks
        #: ``(dist, index_of)``: the dense rows of the landmarks the oracle
        #: maintains (:meth:`repro.core.dynamic.DynamicHCL.shard_rows`)
        #: and their column map — the kernel's bound ``d⊤``.  Fewer rows
        #: than landmarks means a landmark shard: answers are exact
        #: through the owned landmarks, with the scatter-gather min over
        #: all shards globally exact (:mod:`repro.core.sharding`).
        self.shard_rows = shard_rows
        #: Which pairs this snapshot searches (all of them unsharded);
        #: on a shard, the others are searched by their owning shard.
        self.owners = pair_owners(labelling.landmarks, row_landmarks)

    @classmethod
    def capture(cls, oracle) -> "OracleSnapshot":
        """Freeze ``oracle`` at its current version (single-writer only:
        must be called from the thread that applies updates)."""
        adjacency = oracle.graph.snapshot_adjacency()
        num_edges = oracle.graph.num_edges
        landmarks, landmark_set, highway_rows, label_rows, entries = (
            oracle.labelling.freeze()
        )
        dist, csr = oracle.shard_rows()
        owned = oracle.owned_landmarks
        return cls(
            oracle.version,
            FrozenGraph(adjacency, num_edges, csr, landmark_set),
            FrozenLabelling(
                FrozenHighway(landmarks, landmark_set, highway_rows),
                FrozenLabels(label_rows, entries),
            ),
            (dist, csr.index_of()),
            owned if owned is not None else landmarks,
        )

    def checkpoint_rows(self):
        """``(row_landmarks, overlay, dist, entry)`` at this epoch, as
        :meth:`repro.core.dynamic.DynamicHCL.checkpoint_rows` returns them
        for the live oracle: the pinned dense rows over the frozen
        overlay's columns, plus the label-membership mask, which a
        snapshot does not pin and so is rebuilt from the frozen labels."""
        dist, index_of = self.shard_rows
        width = dist.shape[1]
        offset = {r: k * width for k, r in enumerate(self.row_landmarks)}
        entry = np.zeros(dist.shape, dtype=bool)
        entry.flat[
            [offset[r] + index_of[v]
             for v, label in self.labelling.labels.items() for r in label]
        ] = True
        return self.row_landmarks, self.graph.csr, dist, entry

    # -- read API ------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def label_entries(self) -> int:
        return self.labelling.label_entries

    def query(self, u: int, v: int) -> float:
        """Exact ``d(u, v)`` at this snapshot's epoch (``inf`` when
        disconnected); shard-local on a landmark shard."""
        return self.query_many([(u, v)])[0]

    def query_many(self, pairs: Iterable[tuple[int, int]]) -> list[float]:
        """Exact distances for a batch of pairs at this epoch."""
        # Resolved at call time: the module attribute may be rebound.
        from repro.core.sharding import shard_query_distances_many

        dist, index_of = self.shard_rows
        return shard_query_distances_many(
            self.graph, self.labelling.landmark_set, dist, index_of, pairs,
            self.owners,
        )

    def shortest_path(self, u: int, v: int) -> list[int] | None:
        """One exact shortest path at this epoch (``None`` if disconnected).

        Landmark shards answer by plain BFS on the (full) frozen graph —
        the greedy label walk needs the full label slice.
        """
        if len(self.shard_rows[0]) < len(self.labelling.landmarks):
            from repro.core.sharding import bfs_shortest_path

            return bfs_shortest_path(self.graph, u, v)
        return _shortest_path(self.graph, self.labelling, u, v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OracleSnapshot(epoch={self.epoch}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, size(L)={self.label_entries})"
        )
