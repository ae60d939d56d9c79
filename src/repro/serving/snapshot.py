"""Immutable, epoch-versioned read snapshots of a dynamic oracle.

Snapshot isolation is what lets readers answer queries *while* the writer
repairs the labelling: a reader pins an :class:`OracleSnapshot` and every
query against it sees the graph and labelling exactly as they stood at the
snapshot's epoch — never a half-applied batch.

The labelling is pinned as arrays (docs/DESIGN.md §7).  By Eq. (1) the
update engine's dense ``d(r, ·)`` rows plus its label-membership mask
*are* the labelling, so capturing a snapshot copies those two arrays of
the landmarks the oracle maintains, and pins the landmark list, a frozen
copy of the engine's CSR overlay and the graph's adjacency.  The graph
parts are copy-on-write at row granularity
(:meth:`~repro.graph.dynamic_graph.DynamicGraph.snapshot_adjacency`,
:meth:`~repro.graph.dyncsr.DynCSR.freeze`): the writer copies any shared
row before mutating it, so what a snapshot references is physically
immutable for its whole lifetime.  Under CPython's GIL each published
reference is observed atomically, so readers on other threads never
block and never tear.

A snapshot answers distances through the one kernel,
:func:`repro.core.sharding.shard_query_distance`, sharded or not.  A
landmark shard runs the bounded search only for the pairs it owns
(:func:`repro.core.sharding.pair_owners`).  :class:`FrozenGraph`
duck-types the read surface of the graph, so traversals and
``save_oracle`` read a snapshot as they read the live oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.core.paths import bfs_leg
from repro.core.sharding import bfs_shortest_path, pair_owners, shard_min_distance
from repro.exceptions import VertexNotFoundError
from repro.graph.traversal import INF

__all__ = ["FrozenGraph", "OracleSnapshot"]


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
        "epoch", "graph", "landmarks", "landmark_set", "shard_rows", "entry",
        "row_landmarks", "owners",
    )

    def __init__(
        self,
        epoch: int,
        graph: FrozenGraph,
        landmarks: list[int],
        landmark_set: frozenset[int],
        shard_rows,
        entry: np.ndarray,
        row_landmarks: list[int],
    ):
        self.epoch = epoch
        self.graph = graph
        #: The full landmark list ``R`` in selection order, and as a set.
        self.landmarks = landmarks
        self.landmark_set = landmark_set
        #: The landmarks of the rows of ``shard_rows[0]``, in row order.
        self.row_landmarks = row_landmarks
        #: ``(dist, index_of)``: the dense rows of the landmarks the oracle
        #: maintains (:meth:`repro.core.dynamic.DynamicHCL.frozen_rows`)
        #: and their column map — the kernel's bound ``d⊤``.  Fewer rows
        #: than landmarks means a landmark shard: answers are exact
        #: through the owned landmarks, with the scatter-gather min over
        #: all shards globally exact (:mod:`repro.core.sharding`).
        self.shard_rows = shard_rows
        #: The label-membership mask of the same rows and columns.
        self.entry = entry
        #: Which pairs this snapshot searches (all of them unsharded);
        #: on a shard, the others are searched by their owning shard.
        self.owners = pair_owners(landmarks, row_landmarks)

    @classmethod
    def capture(cls, oracle) -> "OracleSnapshot":
        """Freeze ``oracle`` at its current version (single-writer only:
        must be called from the thread that applies updates)."""
        graph = oracle.graph
        adjacency = graph.snapshot_adjacency()
        landmarks = list(oracle.landmarks)
        landmark_set = frozenset(landmarks)
        dist, entry, csr = oracle.frozen_rows()
        owned = oracle.owned_landmarks
        return cls(
            oracle.version,
            FrozenGraph(adjacency, graph.num_edges, csr, landmark_set),
            landmarks,
            landmark_set,
            (dist, csr.index_of()),
            entry,
            owned if owned is not None else landmarks,
        )

    def checkpoint_rows(self):
        """``(row_landmarks, overlay, dist, entry)`` at this epoch, as
        :meth:`repro.core.dynamic.DynamicHCL.checkpoint_rows` returns them
        for the live oracle: the pinned dense rows and label mask over
        the frozen overlay's columns."""
        return self.row_landmarks, self.graph.csr, self.shard_rows[0], self.entry

    # -- read API ------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def label_entries(self) -> int:
        """``size(L)`` of the pinned rows: the set bits of the mask."""
        return int(np.count_nonzero(self.entry))

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
            self.graph, self.landmark_set, dist, index_of, pairs, self.owners,
        )

    def distance_bound(self, u: int, v: int) -> float:
        """The upper bound ``d⊤`` (Eq. 2) at this epoch from the pinned
        rows, ``min_r d(r, u) + d(r, v)`` over the held rows — equal to
        the label join of Eq. (2) on a minimal labelling."""
        if u == v:
            return 0
        dist, index_of = self.shard_rows
        return shard_min_distance(dist, index_of, u, v)

    def shortest_path(self, u: int, v: int) -> list[int] | None:
        """One exact shortest path at this epoch (``None`` if disconnected).

        Unsharded, the snapshot's own distance fixes the length and a
        bounded BFS walks one path of it
        (:func:`repro.core.paths.bfs_leg`).  A landmark shard's distance
        is not exact for every pair, so shards answer by plain BFS on
        the (full) frozen graph.
        """
        if len(self.row_landmarks) < len(self.landmarks):
            return bfs_shortest_path(self.graph, u, v)
        total = self.query(u, v)
        if total == INF:
            return None
        return bfs_leg(self.graph, u, v, int(total))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OracleSnapshot(epoch={self.epoch}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, size(L)={self.label_entries})"
        )
