"""DynCSR — an incrementally maintainable CSR overlay for the update path.

:class:`~repro.graph.csr.CSRGraph` is deliberately immutable: construction
and ground-truth sweeps snapshot once and read forever.  The update hot
path (IncHL+ find/repair, :mod:`repro.core.inchl_fast`) cannot afford a
full re-snapshot per insertion — ``CSRGraph.from_graph`` is ``O(m)`` while
an update touches ``O(|Λ|)`` vertices — so this module keeps the CSR shape
*valid across insertions*:

* a **base** CSR (``indptr``/``indices``) holding the bulk of the edges,
  with a per-vertex live length (``base_len``) so deletions shrink a row
  in place instead of forcing a re-snapshot;
* a per-vertex **delta** adjacency (small Python lists, plus a numpy
  ``delta_count`` array so the no-delta common case costs one vectorized
  mask) absorbing insertions;
* periodic **compaction** folding the delta back into a fresh base once it
  grows past a fraction of the base, so gather stays ``O(frontier degree)``
  amortized and the delta never dominates.

Edge deletion (:meth:`remove_edge`) is *swap-removal*: the victim entry in
a vertex's live base slice is overwritten by the slice's last live entry
and the live length drops by one (delta entries are removed from their
list directly).  Neighbour order within a row is therefore not stable
across deletions — no kernel depends on it: affected sets and levels are
sorted before use, and the repair predicate is order-independent.

Vertex ids map to compact indices exactly as in :class:`CSRGraph`, except
the mapping is *append-only*: new vertices (ids unseen at snapshot time)
get the next free index, and the capacity of every per-vertex array grows
geometrically.  Kernels therefore hold plain array views and survive any
number of ``insert_edge`` / ``insert_edges_batch`` calls in between.

>>> from repro.graph.generators import grid_graph
>>> dyn = DynCSR.from_graph(grid_graph(3, 3))
>>> int(dyn.bfs_compact(dyn.index(0))[dyn.index(8)])
4
>>> dyn.insert_edge(0, 8)
>>> int(dyn.bfs_compact(dyn.index(0))[dyn.index(8)])
1
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

import numpy as np

from repro.exceptions import GraphError, VertexNotFoundError
from repro.graph.csr import CSRGraph, distinct_at_depth

__all__ = ["DynCSR", "SparsifiedRows", "UNREACH"]

#: Distance sentinel for "unreachable" in the int32 kernels.  Large enough
#: that ``UNREACH >= depth`` always holds for any real BFS depth, small
#: enough that ``UNREACH + 1`` cannot overflow int32.
UNREACH = np.int32(2**30)


class DynCSR:
    """A CSR snapshot that stays valid across edge insertions.

    The read surface (:meth:`gather`, :meth:`neighbors_compact`,
    :meth:`bfs_compact`) always reflects every insertion applied so far;
    :meth:`compact` (called automatically once the delta outgrows a
    quarter of the base) folds the delta adjacency into a fresh base CSR.
    """

    __slots__ = (
        "_ids",
        "_n",
        "_index_of",
        "_indptr",
        "_base_indices",
        "_base_len",
        "_base_n",
        "_delta",
        "_delta_count",
        "_delta_total",
        "_num_edges",
        "_views",
        "_frozen_delta",
        "_base_shared",
        "_touched",
        "_freezes",
    )

    def __init__(self) -> None:
        self._ids = np.empty(0, dtype=np.int64)  # original id by index
        self._n = 0  # live vertex count (<= capacity)
        self._index_of: dict[int, int] = {}
        # Base CSR.  ``_indptr`` is padded to capacity + 1: indices past
        # ``_base_n`` repeat the total, so vertices added after the last
        # compaction read an empty base slice through the same arrays.
        # ``_base_len[i]`` is the *live* length of row ``i`` — the slice
        # ``indices[indptr[i] : indptr[i] + base_len[i]]`` — which drops
        # below the allocated row width after swap-removals.
        self._indptr = np.zeros(1, dtype=np.int64)
        self._base_indices = np.empty(0, dtype=np.int64)
        self._base_len = np.zeros(0, dtype=np.int64)
        self._base_n = 0  # vertices covered by the base CSR
        # Delta adjacency: compact index -> list of compact neighbour
        # indices, mirrored by a per-vertex count array for cheap masks.
        self._delta: dict[int, list[int]] = {}
        self._delta_count = np.zeros(0, dtype=np.int64)
        self._delta_total = 0  # directed delta entries
        self._num_edges = 0  # undirected edges overall
        self._views = None  # cached scalar_views tuple
        # Copy-on-write state of :meth:`freeze` (see :meth:`_unshared_delta`).
        self._frozen_delta: dict[int, list[int]] = {}
        self._base_shared = False
        # Columns whose rows changed since the last :meth:`freeze`, and
        # the number of freezes taken (see :meth:`changed_since`).
        self._touched: set[int] = set()
        self._freezes = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph) -> "DynCSR":
        """Snapshot a :class:`~repro.graph.dynamic_graph.DynamicGraph`.

        Same layout contract as :meth:`CSRGraph.from_graph` (ids sorted,
        compact indices in sorted-id order) so ground-truth comparisons
        line up index for index.
        """
        csr = CSRGraph.from_graph(graph)
        return cls.from_arrays(csr.ids, csr.indptr, csr.indices)

    @classmethod
    def from_arrays(
        cls, ids: np.ndarray, indptr: np.ndarray, indices: np.ndarray
    ) -> "DynCSR":
        """Adopt a symmetric CSR as the base, without copying it.

        ``ids`` are the vertex ids by compact index, ``indptr``/``indices``
        int64 arrays in compact-index space — the layout of
        :class:`~repro.graph.csr.CSRGraph` and of a ``save_oracle`` file.
        The overlay takes ownership: deletions later swap-remove inside
        ``indices``, so the caller must not keep using the arrays.
        """
        dyn = cls()
        n = len(ids)
        dyn._ids = ids
        dyn._n = n
        dyn._index_of = dict(zip(ids.tolist(), range(n)))
        dyn._indptr = indptr
        dyn._base_indices = indices
        dyn._base_len = np.diff(indptr)
        dyn._base_n = n
        dyn._delta_count = np.zeros(n, dtype=np.int64)
        dyn._num_edges = len(indices) // 2
        return dyn

    def copy(self) -> "DynCSR":
        """An independent, mutable copy (arrays and delta lists copied)."""
        clone = DynCSR()
        clone._n = self._n
        clone._index_of = dict(self._index_of)
        for name in ("_ids", "_indptr", "_base_indices", "_base_len",
                     "_delta_count"):
            setattr(clone, name, getattr(self, name).copy())
        clone._base_n = self._base_n
        clone._delta = {vi: list(extra) for vi, extra in self._delta.items()}
        clone._delta_total = self._delta_total
        clone._num_edges = self._num_edges
        return clone

    def canonical(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """This overlay as a canonical CSR: ``(ids, col, indptr, indices)``.

        Rows follow the registered ids, sorted, and each row's neighbours
        are sorted, so equal graphs give equal arrays whatever their
        update history — append order, delta lists and swap-removals all
        wash out.  ``col[i]`` is the canonical position of compact index
        ``i``, the permutation that carries per-vertex side arrays (the
        update engine's dense rows) into the same order.
        """
        own = self._ids[: self._n]
        ids = np.sort(own)
        col = np.searchsorted(ids, own)
        sources, neighbours = self.gather(np.arange(self._n, dtype=np.int64))
        width = len(ids)
        keys = col[sources] * width + col[neighbours]
        keys.sort()
        indptr = np.zeros(width + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // width, minlength=width), out=indptr[1:])
        return ids, col, indptr, keys % width

    # ------------------------------------------------------------------
    # Size, membership, id mapping
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices currently registered."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Undirected edge count (base + delta)."""
        return self._num_edges

    @property
    def num_delta_edges(self) -> int:
        """Undirected edges still living in the delta overlay."""
        return self._delta_total // 2

    @property
    def capacity(self) -> int:
        """Allocated per-vertex slots (>= :attr:`num_vertices`).

        Consumers that keep per-vertex side arrays (the update engine's
        distance rows and scratch buffers) size them to this so vertex
        growth re-allocates everything in the same geometric steps.
        """
        return len(self._ids)

    @property
    def ids(self) -> np.ndarray:
        """Original vertex ids by compact index.  Must not be mutated."""
        return self._ids[: self._n]

    def index(self, v: int) -> int:
        """Compact index of original vertex id ``v``."""
        try:
            return self._index_of[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def indices(self, vertices) -> np.ndarray:
        """Compact indices of the registered ids in sized ``vertices``."""
        return np.fromiter(
            map(self._index_of.__getitem__, vertices), np.int64, len(vertices)
        )

    def index_of(self) -> dict[int, int]:
        """The live id -> compact-index mapping (read-only use).  It is
        append-only, so a :meth:`freeze` copy of ``n`` vertices reads it
        by treating indices ``>= n`` as absent."""
        return self._index_of

    def vertex(self, i: int) -> int:
        """Original id of compact index ``i``."""
        return int(self._ids[i])

    def __contains__(self, v: int) -> bool:
        index = self._index_of.get(v)
        return index is not None and index < self._n

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` is present (``False``
        when an endpoint is not registered).  Scans the row of the
        endpoint with the smaller degree."""
        index_of = self._index_of
        ui = index_of.get(u)
        vi = index_of.get(v)
        if ui is None or vi is None or max(ui, vi) >= self._n:
            return False
        indptr, base_len, indices, delta, delta_count = self.scalar_views()
        if base_len[vi] + delta_count[vi] < base_len[ui] + delta_count[ui]:
            ui, vi = vi, ui
        start = indptr[ui]
        return vi in indices[start : start + base_len[ui]] or (
            delta_count[ui] > 0 and vi in delta[ui]
        )

    def __len__(self) -> int:
        return self._n

    def freeze(self) -> "DynCSR":
        """A read-only copy pinned at the current state, copy-on-write.

        The copy shares the id map, the base arrays and the delta lists;
        this overlay then copies the base arrays before a swap-removal
        and a delta list before it changes.  Only the delta counts are
        copied eagerly.
        """
        frozen = DynCSR()
        n = frozen._n = self._n
        for name in ("_ids", "_index_of", "_indptr", "_base_indices",
                     "_base_len", "_base_n", "_delta_total", "_num_edges"):
            setattr(frozen, name, getattr(self, name))
        frozen._delta = self._frozen_delta = dict(self._delta)
        frozen._delta_count = self._delta_count[:n].copy()
        frozen._touched = self._touched
        frozen._freezes = self._freezes = self._freezes + 1
        self._touched = set()
        self._base_shared = True
        return frozen

    def changed_since(self, previous: "DynCSR") -> np.ndarray | None:
        """The columns whose rows differ between :meth:`freeze` copies
        ``previous`` and ``self``, or ``None`` unless ``self`` is the
        next freeze of the overlay ``previous`` was frozen from.

        The columns are the endpoints of every edge inserted or removed
        in between plus the vertices registered in between, each once.
        """
        if self._index_of is not previous._index_of or (
            self._freezes != previous._freezes + 1
        ):
            return None
        old = previous._n
        kept = [c for c in self._touched if c < old]
        return np.concatenate([
            np.array(kept, dtype=np.int64),
            np.arange(old, self._n, dtype=np.int64),
        ])

    def _unshared_delta(self, vi: int) -> list[int]:
        """``vi``'s delta list (created if absent), detached from any
        :meth:`freeze` copy: lists older copies share are in the newest's."""
        extra = self._delta.setdefault(vi, [])
        if self._frozen_delta.get(vi) is extra:
            extra = self._delta[vi] = list(extra)
        return extra

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def _grow_to(self, capacity: int) -> None:
        """Geometrically grow every per-vertex array to >= ``capacity``."""
        current = len(self._ids)
        if capacity <= current:
            return
        self._views = None
        new_cap = max(capacity, current * 2, 16)
        ids = np.empty(new_cap, dtype=np.int64)
        ids[:current] = self._ids
        self._ids = ids
        # Pad the base row pointer: new vertices have empty base slices.
        indptr = np.empty(new_cap + 1, dtype=np.int64)
        indptr[: len(self._indptr)] = self._indptr
        indptr[len(self._indptr) :] = self._indptr[-1]
        self._indptr = indptr
        counts = np.zeros(new_cap, dtype=np.int64)
        counts[: len(self._delta_count)] = self._delta_count
        self._delta_count = counts
        base_len = np.zeros(new_cap, dtype=np.int64)
        base_len[: len(self._base_len)] = self._base_len
        self._base_len = base_len

    def ensure_vertex(self, v: int) -> int:
        """Register id ``v`` if unseen; returns its compact index.

        New vertices start isolated; they join the base CSR at the next
        compaction.
        """
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise GraphError(f"vertex ids must be non-negative ints, got {v!r}")
        idx = self._index_of.get(v)
        if idx is not None:
            return idx
        idx = self._n
        self._grow_to(idx + 1)
        self._ids[idx] = v
        self._index_of[v] = idx
        self._n = idx + 1
        return idx

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> None:
        """Insert the undirected edge ``(u, v)`` (by original id).

        Endpoints are registered on demand; duplicate edges and self-loops
        are the caller's responsibility (the owning oracle validates each
        batch first, :meth:`repro.core.dynamic.DynamicHCL.check_events`).
        Triggers compaction when the delta outgrows the base.
        """
        self.insert_edges_batch(((u, v),))

    def insert_edges_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        """Insert a burst of edges (compaction checked once at the end)."""
        self._views = None
        for u, v in edges:
            ui = self.ensure_vertex(u)
            vi = self.ensure_vertex(v)
            self._touched.update((ui, vi))
            self._unshared_delta(ui).append(vi)
            self._unshared_delta(vi).append(ui)
            self._delta_count[ui] += 1
            self._delta_count[vi] += 1
            self._delta_total += 2
            self._num_edges += 1
        if self._delta_total > max(256, len(self._base_indices) >> 2):
            self.compact()

    def _remove_directed(self, ui: int, vi: int) -> None:
        """Drop the directed entry ``ui -> vi`` from delta or base.

        Delta first (a deleted edge that was recently inserted still lives
        there), then the live base slice by swap-removal: the victim slot
        takes the slice's last live entry and ``base_len`` shrinks by one.
        """
        extra = self._delta.get(ui)
        if extra is not None and vi in extra:
            extra = self._unshared_delta(ui)
            extra.remove(vi)
            if not extra:
                del self._delta[ui]
            self._delta_count[ui] -= 1
            self._delta_total -= 1
            return
        if self._base_shared:
            self._base_indices = self._base_indices.copy()
            self._base_len = self._base_len.copy()
            self._base_shared = False
        start = int(self._indptr[ui])
        length = int(self._base_len[ui])
        base = self._base_indices
        for pos in range(start, start + length):
            if base[pos] == vi:
                base[pos] = base[start + length - 1]
                self._base_len[ui] = length - 1
                return
        raise GraphError(
            f"edge ({self.vertex(ui)}, {self.vertex(vi)}) not present"
        )

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the undirected edge ``(u, v)`` (by original id).

        Both endpoints must be registered and the edge present — the
        owning oracle validates first, but the overlay re-raises
        :class:`GraphError` on a missing entry so a desynchronized caller
        fails loudly.  Vertices are never
        unregistered: an isolated index simply reads empty slices.
        """
        self.remove_edges_batch(((u, v),))

    def remove_edges_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        """Remove a burst of edges (no compaction: deletions only shrink)."""
        self._views = None
        for u, v in edges:
            ui = self.index(u)
            vi = self.index(v)
            self._touched.update((ui, vi))
            self._remove_directed(ui, vi)
            self._remove_directed(vi, ui)
            self._num_edges -= 1

    def compact(self) -> None:
        """Fold the delta adjacency into a fresh base CSR.

        ``O(m)``: base entries move with one vectorized scatter (the same
        repeat/cumsum flattening :func:`_gather_neighbors` uses), delta
        entries append per dirty vertex.  After compaction every vertex —
        including ones added since the last snapshot — reads from the base.
        """
        self._views = None
        n = self._n
        base_counts = self._base_len[:n].copy()
        counts = base_counts + self._delta_count[:n]
        new_indptr = np.zeros(len(self._ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=new_indptr[1 : n + 1])
        new_indptr[n + 1 :] = new_indptr[n]
        total = int(new_indptr[n])
        new_indices = np.empty(total, dtype=np.int64)
        base_total = int(base_counts.sum())
        if base_total:
            # Source/target slot of each *live* base entry, row-major: row
            # start in the old/new layout plus the entry's offset within
            # its live slice (dead tail slots left by deletions stay
            # behind).
            live = base_counts > 0
            old_starts = self._indptr[:n][live]
            new_starts = new_indptr[:n][live]
            live_counts = base_counts[live]
            cumulative = np.cumsum(live_counts)
            offsets = np.arange(base_total, dtype=np.int64) - np.repeat(
                cumulative - live_counts, live_counts
            )
            sources = np.repeat(old_starts, live_counts) + offsets
            positions = np.repeat(new_starts, live_counts) + offsets
            new_indices[positions] = self._base_indices[sources]
        for vi, extra in self._delta.items():
            start = int(new_indptr[vi]) + int(base_counts[vi])
            new_indices[start : start + len(extra)] = extra
        self._indptr = new_indptr
        self._base_indices = new_indices
        base_len = np.zeros(len(self._ids), dtype=np.int64)
        base_len[:n] = counts
        self._base_len = base_len
        self._base_n = n
        self._delta = {}
        self._delta_count[:] = 0
        self._delta_total = 0
        self._base_shared = False

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def neighbors_compact(self, i: int) -> np.ndarray:
        """Neighbour indices of compact index ``i`` (base + delta)."""
        start = self._indptr[i]
        base = self._base_indices[start : start + self._base_len[i]]
        extra = self._delta.get(i)
        if extra is None:
            return base
        return np.concatenate([base, np.array(extra, dtype=np.int64)])

    def scalar_views(self):
        """Zero-copy buffers for the scalar kernel paths.

        Returns ``(indptr, base_len, indices, delta, delta_count)`` where
        the array members are memoryviews — scalar reads yield plain
        Python ints at a fraction of a numpy getitem — and ``delta`` is
        the live per-vertex overflow dict.  A vertex's live base slice is
        ``indices[indptr[v] : indptr[v] + base_len[v]]`` (deletions leave
        dead tail slots behind, so ``indptr[v + 1]`` is only an upper
        bound).  The views alias the current arrays: refetch after any
        mutation (compaction swaps the buffers) — or rely on the built-in
        cache, which every mutation drops.
        """
        views = self._views
        if views is None:
            views = self._views = (
                memoryview(self._indptr),
                memoryview(self._base_len),
                memoryview(self._base_indices),
                self._delta,
                memoryview(self._delta_count),
            )
        return views

    def gather(self, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All ``(source, neighbour)`` pairs leaving ``frontier``.

        The base contribution is one vectorized gather; delta lists are
        appended only for frontier vertices that actually have them
        (detected with one mask over ``delta_count``, so an empty delta —
        the common state right after compaction — costs nothing).
        """
        positions, neighbours = self._base_positions(frontier)
        sources = frontier[positions]
        if self._delta_total:
            mask = self._delta_count[frontier] > 0
            if mask.any():
                delta = self._delta
                extra_src: list[int] = []
                extra_nbr: list[int] = []
                for vi in frontier[mask].tolist():
                    nbrs = delta[vi]
                    extra_src.extend([vi] * len(nbrs))
                    extra_nbr.extend(nbrs)
                sources = np.concatenate(
                    [sources, np.array(extra_src, dtype=np.int64)]
                )
                neighbours = np.concatenate(
                    [neighbours, np.array(extra_nbr, dtype=np.int64)]
                )
        return sources, neighbours

    def _base_positions(
        self, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Base-CSR flattening: ``(flat_positions, neighbours)``."""
        counts = self._base_len[frontier]
        neighbours = self._base_neighbours(frontier, counts)
        return np.repeat(np.arange(len(frontier)), counts), neighbours

    def _base_neighbours(
        self, frontier: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """The live base-CSR rows of ``frontier`` (``counts`` long each),
        flattened in order.  Entry ``k`` of the output lies in row ``j``
        at flat slot ``k - first(j)`` past ``start(j)``, so one repeat of
        ``start(j) - first(j)`` turns ``arange`` into the gather index."""
        shift = self._indptr[frontier] - np.cumsum(counts) + counts
        index = np.arange(int(counts.sum()), dtype=np.int64)
        index += np.repeat(shift, counts)
        return self._base_indices[index]

    def gather_with_positions(
        self, frontier: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, neighbours)`` pairs leaving ``frontier``.

        ``positions[k]`` indexes into ``frontier`` (not vertex space) —
        exactly the scatter target the repair kernel needs, saving it a
        searchsorted back-mapping.
        """
        positions, neighbours = self._base_positions(frontier)
        if self._delta_total:
            mask = self._delta_count[frontier] > 0
            if mask.any():
                # The update kernels gather hundreds of delta rows per
                # call: one list of lists and one fromiter beat a Python
                # loop that extends two lists per row.
                rows = np.flatnonzero(mask)
                counts = self._delta_count[frontier[rows]]
                delta = self._delta
                extra = chain.from_iterable(
                    [delta[vi] for vi in frontier[rows].tolist()]
                )
                positions = np.concatenate([positions, np.repeat(rows, counts)])
                neighbours = np.concatenate(
                    [neighbours, np.fromiter(extra, np.int64, int(counts.sum()))]
                )
        return positions, neighbours

    def _rows_without(
        self, rows: np.ndarray, skip: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(counts, flat)``: the rows ``rows`` (live base slice, then
        delta list) without the columns the bool mask ``skip`` marks,
        flattened row after row."""
        base_counts = self._base_len[rows]
        parts = [(base_counts, self._base_neighbours(rows, base_counts))]
        if self._delta_total:
            delta_counts = self._delta_count[rows]
            delta = self._delta
            extra = chain.from_iterable(
                [delta[vi] for vi in rows[delta_counts > 0].tolist()]
            )
            parts.append(
                (delta_counts, np.fromiter(extra, np.int64, int(delta_counts.sum())))
            )
        kept = []
        for part_counts, values in parts:
            keep = ~skip[values]
            owner = np.repeat(np.arange(rows.size), part_counts)[keep]
            kept.append((np.bincount(owner, minlength=rows.size), values[keep]))
        counts = sum(part_counts for part_counts, _ in kept)
        flat = np.empty(int(counts.sum()), dtype=np.int64)
        starts = np.cumsum(counts) - counts
        for part_counts, values in kept:
            _scatter_rows(flat, starts, part_counts, values)
            starts += part_counts
        return counts, flat

    def sparsified(self, skip: np.ndarray) -> "SparsifiedRows":
        """This overlay without the columns the bool mask ``skip`` marks,
        as fresh :class:`SparsifiedRows`, rows back to back.

        One pass over the rows and no sort, in chunks of at most
        :data:`_REWRITE_CHUNK` entries, so no temporary grows with the
        graph.  Headroom past the rows takes the rows later freezes
        rewrite (:meth:`SparsifiedRows.derive`).
        """
        n = self._n
        widths = np.cumsum(self._base_len[:n] + self._delta_count[:n])
        total = int(widths[-1]) if n else 0
        indices = np.empty(total + max(total >> 3, 1024), dtype=np.int64)
        indptr = np.empty(n, dtype=np.int64)
        degree = np.empty(n, dtype=np.int64)
        end = 0
        cuts = np.searchsorted(widths, np.arange(_REWRITE_CHUNK, total, _REWRITE_CHUNK))
        for chunk in np.split(np.arange(n), cuts):
            counts, flat = self._rows_without(chunk, skip)
            indptr[chunk] = end + np.cumsum(counts) - counts
            degree[chunk] = counts
            indices[end : end + flat.size] = flat
            end += flat.size
        return SparsifiedRows(indptr, degree, indices, end, [end])

    def bfs_compact(self, source_index: int) -> np.ndarray:
        """Distances from ``source_index`` over base + delta edges.

        Returns an int32 array with :data:`UNREACH` for unreachable
        vertices — the layout the update kernels keep per landmark.
        """
        dist = np.full(self._n, UNREACH, dtype=np.int32)
        dist[source_index] = 0
        frontier = np.array([source_index], dtype=np.int64)
        depth = 0
        while frontier.size:
            depth += 1
            _, neighbours = self.gather(frontier)
            if neighbours.size == 0:
                break
            neighbours = neighbours[dist[neighbours] == UNREACH]
            if neighbours.size == 0:
                break
            frontier = distinct_at_depth(dist, neighbours, depth)
        return dist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynCSR(|V|={self._n}, |E|={self._num_edges}, "
            f"delta={self.num_delta_edges})"
        )


#: Most row entries :meth:`DynCSR.sparsified` filters at once, which
#: bounds its temporaries.
_REWRITE_CHUNK = 1 << 12


def _scatter_rows(
    out: np.ndarray, starts: np.ndarray, counts: np.ndarray, values: np.ndarray
) -> None:
    """Write the rows of ``values`` (``counts[j]`` entries for row ``j``,
    back to back) to ``out`` from ``starts[j]`` on."""
    index = np.arange(values.size, dtype=np.int64)
    index += np.repeat(starts - np.cumsum(counts) + counts, counts)
    out[index] = values


class SparsifiedRows:
    """Delta-free rows of ``G[V \\ R]`` over a frozen overlay's columns.

    Row ``v`` is ``indices[indptr[v] : indptr[v] + degree[v]]``, the
    neighbours of column ``v`` outside the skipped columns ``R``, in
    int64 like every CSR array here (numpy casts any other index dtype
    on every gather).  Skipped columns keep their rows too, so a search
    can leave an endpoint in ``R``; no row holds one, so it is entered
    only from its own row.  :attr:`views` are the memoryviews the scalar
    search reads.

    Built once per overlay by :meth:`DynCSR.sparsified`, then carried
    from freeze to freeze by :meth:`derive`: a derived copy rewrites
    only the rows that changed, appended past the end of the ``indices``
    buffer it shares with its predecessor, whose rows all lie before
    that end and so stay as they are.
    """

    __slots__ = ("indptr", "degree", "indices", "views", "_end", "_fill")

    def __init__(self, indptr, degree, indices, end: int, fill: list[int]) -> None:
        self.indptr = indptr
        self.degree = degree
        self.indices = indices
        self.views = (memoryview(indptr), memoryview(degree), memoryview(indices))
        self._end = end  # this copy's rows lie in indices[:end]
        self._fill = fill  # [entries written to the shared buffer]

    def gather(
        self, frontier: np.ndarray, counts: np.ndarray, total: int
    ) -> np.ndarray:
        """The rows of ``frontier`` flattened; ``counts`` is
        ``degree[frontier]`` and ``total`` its sum."""
        index = np.arange(total, dtype=np.int64)
        index += np.repeat(self.indptr[frontier] - np.cumsum(counts) + counts, counts)
        return self.indices[index]

    def derive(
        self, csr: DynCSR, changed: np.ndarray, skip: np.ndarray
    ) -> "SparsifiedRows":
        """These rows carried to ``csr``, a later freeze of the overlay
        they were built from: only the rows of the columns ``changed``
        (:meth:`DynCSR.changed_since`) are rewritten, without the columns
        ``skip`` marks.  O(|V| + their degrees); a full
        :meth:`DynCSR.sparsified` once the buffer's headroom runs out."""
        counts, flat = csr._rows_without(changed, skip)
        end = self._end
        new_end = end + flat.size
        if self._fill[0] != end or new_end > self.indices.size:
            return csr.sparsified(skip)
        self.indices[end:new_end] = flat
        self._fill[0] = new_end
        n = csr.num_vertices
        old = self.indptr.size
        indptr = np.empty(n, dtype=np.int64)
        indptr[:old] = self.indptr
        indptr[changed] = end + np.cumsum(counts) - counts
        degree = np.empty(n, dtype=np.int64)
        degree[:old] = self.degree
        degree[changed] = counts
        return SparsifiedRows(indptr, degree, self.indices, new_end, self._fill)
