"""Immutable, epoch-versioned read snapshots of a dynamic oracle.

Snapshot isolation is what lets readers answer queries *while* the writer
repairs the labelling: a reader pins an :class:`OracleSnapshot` and every
query against it sees the graph and labelling exactly as they stood at the
snapshot's epoch — never a half-applied batch.

The labelling and the graph are pinned as arrays (docs/DESIGN.md §7).
By Eq. (1) the update engine's dense ``d(r, ·)`` rows plus its
label-membership mask *are* the labelling, so capturing a snapshot
copies those two arrays of the landmarks the oracle maintains, and pins
the landmark list and a frozen copy of the engine's CSR overlay, the
oracle's one graph.  The frozen overlay is copy-on-write
(:meth:`~repro.graph.dyncsr.DynCSR.freeze`): the writer copies a shared
base array or delta list before mutating it, so what a snapshot
references is physically immutable for its whole lifetime.  Under CPython's GIL each published
reference is observed atomically, so readers on other threads never
block and never tear.

A snapshot answers distances through the one kernel,
:func:`repro.core.sharding.shard_query_distance`, sharded or not.  A
landmark shard runs the bounded search only for the pairs it owns
(:func:`repro.core.sharding.pair_owners`).  :class:`FrozenGraph`
answers the read surface of a graph from the frozen CSR, so traversals
and ``save_oracle`` read a snapshot as they read the live oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.core.paths import bfs_leg
from repro.core.sharding import bfs_shortest_path, pair_owners, shard_min_distance
from repro.exceptions import SkipSetError, VertexNotFoundError
from repro.graph.traversal import INF

__all__ = ["FrozenGraph", "OracleSnapshot"]


class FrozenGraph:
    """Read-only point-in-time view of an oracle's graph.

    Answers the read surface of a graph (``has_vertex``, ``has_edge``,
    ``neighbors``, ``vertices``, ``edges``, ``degree``) from ``csr``, a
    frozen :class:`~repro.graph.dyncsr.DynCSR`; offers no mutators.  The
    bounded search reads :meth:`sparsified`, and :meth:`copy` detaches
    a :class:`~repro.graph.dynamic_graph.DynamicGraph` for the reference
    kernels.

    ``previous`` is the view this one succeeds.  When it already holds
    its sparsified rows, this view derives its own from them at once,
    rewriting only the rows that changed in between
    (:meth:`~repro.graph.dyncsr.SparsifiedRows.derive`); otherwise they
    are built at the first search.
    """

    __slots__ = ("csr", "_index_of", "_n", "_landmark_set", "_sparsified")

    def __init__(
        self,
        csr,
        landmark_set: frozenset[int],
        previous: "FrozenGraph | None" = None,
    ) -> None:
        self.csr = csr
        # The live, append-only id map: a column ``>= n`` is a vertex
        # added after this view.
        self._index_of = csr.index_of()
        self._n = csr.num_vertices
        self._landmark_set = landmark_set
        self._sparsified = None
        rows = previous._sparsified if previous is not None else None
        if rows is not None and previous._landmark_set == landmark_set:
            changed = csr.changed_since(previous.csr)
            if changed is not None:
                self._sparsified = rows.derive(csr, changed, self._skip_mask())

    def sparsified(self, skip):
        """The delta-free rows of ``G[V \\ R]`` the bounded search reads
        (:class:`~repro.graph.dyncsr.SparsifiedRows`), built at the first
        call unless derived at construction.  ``skip`` must be this
        view's landmark set ``R``; any other raises
        :class:`~repro.exceptions.SkipSetError`."""
        if skip is not self._landmark_set and skip != self._landmark_set:
            raise SkipSetError(skip, self._landmark_set)
        rows = self._sparsified
        if rows is None:
            # A write-once memo, not a change to what the view answers:
            # readers see ``None`` (and build their own) or whole rows.
            rows = self.csr.sparsified(self._skip_mask())
            self._sparsified = rows  # reprolint: disable=RL002
        return rows

    def _skip_mask(self) -> np.ndarray:
        """The landmark set as a bool mask over the columns."""
        mask = np.zeros(self._n, dtype=bool)
        mask[[self.column(r) for r in self._landmark_set if self.has_vertex(r)]] = True
        return mask

    def column(self, v: int) -> int:
        """The CSR column of vertex ``v``."""
        i = self._index_of.get(v, self._n)
        if i >= self._n:
            raise VertexNotFoundError(v)
        return i

    @property
    def num_vertices(self) -> int:
        return self.csr.num_vertices

    @property
    def num_edges(self) -> int:
        return self.csr.num_edges

    def has_vertex(self, v: int) -> bool:
        return self._index_of.get(v, self._n) < self._n

    def has_edge(self, u: int, v: int) -> bool:
        return self.csr.has_edge(u, v)

    def vertices(self) -> Iterator[int]:
        return iter(self.csr.ids.tolist())

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once, as ``(u, v)`` with ``u < v``."""
        csr = self.csr
        ids = csr.ids
        sources, targets = csr.gather(np.arange(csr.num_vertices))
        us, vs = ids[sources], ids[targets]
        keep = us < vs
        return zip(us[keep].tolist(), vs[keep].tolist())

    def neighbors(self, v: int) -> list[int]:
        csr = self.csr
        return csr.ids[csr.neighbors_compact(self.column(v))].tolist()

    def degree(self, v: int) -> int:
        return len(self.csr.neighbors_compact(self.column(v)))

    def copy(self):
        """A detached, mutable :class:`~repro.graph.dynamic_graph.DynamicGraph`
        of this view (vertices and neighbour lists in sorted order)."""
        from repro.graph.dynamic_graph import DynamicGraph

        ids, _, indptr, indices = self.csr.canonical()
        return DynamicGraph.from_csr(ids.tolist(), indptr, indices)

    __contains__ = has_vertex

    def __len__(self) -> int:
        return self.csr.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrozenGraph(|V|={self.num_vertices}, |E|={self.num_edges})"


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
    def capture(
        cls, oracle, previous: "OracleSnapshot | None" = None
    ) -> "OracleSnapshot":
        """Freeze ``oracle`` at its current version (single-writer only:
        must be called from the thread that applies updates).
        ``previous`` is the oracle's last snapshot, whose graph's
        sparsified rows this one's derives from (:class:`FrozenGraph`)."""
        landmarks = list(oracle.landmarks)
        landmark_set = frozenset(landmarks)
        dist, entry, csr = oracle.frozen_rows()
        owned = oracle.owned_landmarks
        return cls(
            oracle.version,
            FrozenGraph(
                csr, landmark_set, previous.graph if previous is not None else None
            ),
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
