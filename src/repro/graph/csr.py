"""Compressed-sparse-row graph snapshots with numpy-vectorized BFS.

The paper's implementation is C++ compiled with ``-O3``; the calibration
note for this reproduction ("interpreter too slow for large-graph
labelling; needs C extensions") anticipates that pure-Python BFS limits
the graph sizes the harness can drive.  This module is the substitute for
those C extensions: an immutable CSR snapshot of a
:class:`~repro.graph.dynamic_graph.DynamicGraph` whose BFS runs as a
handful of numpy array operations per level instead of one Python
iteration per edge.

A snapshot is *static* by design — updates go through the dynamic graph
and a new snapshot is taken when a fresh bulk computation is needed.  This
mirrors how the paper separates index construction (offline, bulk) from
maintenance (online, incremental): the CSR fast path serves construction
and ground-truth computations, while IncHL+ works on the mutable graph.

>>> from repro.graph.generators import grid_graph
>>> csr = CSRGraph.from_graph(grid_graph(3, 3))
>>> int(csr.bfs(0)[csr.index(8)])
4
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import GraphError, VertexNotFoundError

__all__ = ["CSRGraph", "distinct_at_depth"]


def distinct_at_depth(
    dist: np.ndarray, candidates: np.ndarray, depth: int
) -> np.ndarray:
    """The distinct entries among ``candidates``, their slots in ``dist``
    set to ``depth``.  Dedupes by scatter, not by sort (``np.unique`` is
    hash-based and slow on small arrays): every candidate writes its own
    negative mark into its slot, and the candidate whose mark survives
    stands for the slot."""
    marks = np.arange(-1, -1 - candidates.size, -1, dtype=dist.dtype)
    dist[candidates] = marks
    entries = candidates[dist[candidates] == marks]
    dist[entries] = depth
    return entries


def _gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All ``(source, neighbour)`` pairs leaving ``frontier``, flattened.

    Returns ``(sources, neighbours)`` where ``sources[k]`` is the frontier
    vertex whose adjacency slice contributed ``neighbours[k]``.  This is
    the standard repeat/cumsum flattening that turns per-vertex adjacency
    slices into one fancy-indexing gather.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=indices.dtype)
        return empty, empty
    cumulative = np.cumsum(counts)
    offsets = np.arange(total, dtype=starts.dtype) - np.repeat(
        cumulative - counts, counts
    )
    positions = np.repeat(starts, counts) + offsets
    return np.repeat(frontier, counts), indices[positions]


class CSRGraph:
    """An immutable CSR snapshot of an undirected graph.

    Vertex ids need not be contiguous: the snapshot maps original ids to
    compact indices ``0..n-1`` (in sorted id order) and exposes the mapping
    through :meth:`index` and :meth:`vertex`.  All array-returning methods
    work in compact index space.
    """

    __slots__ = ("_ids", "_indptr", "_indices", "_index_of")

    def __init__(
        self, ids: np.ndarray, indptr: np.ndarray, indices: np.ndarray
    ) -> None:
        self._ids = ids
        self._indptr = indptr
        self._indices = indices
        self._index_of = {int(v): i for i, v in enumerate(ids)}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph) -> "CSRGraph":
        """Snapshot a :class:`~repro.graph.dynamic_graph.DynamicGraph`.

        One pass over the adjacency; isolated vertices are kept.  The
        original-id → compact-index remap runs as one ``searchsorted``
        over the flattened neighbour array (``ids`` is sorted, so the
        insertion position of an existing id *is* its index), keeping the
        snapshot cost numpy-bound rather than dict-lookup-bound.
        """
        from itertools import chain

        adj = graph.adjacency()
        if not adj:
            raise GraphError("cannot snapshot an empty graph")
        ids = np.array(sorted(adj), dtype=np.int64)
        degrees = np.fromiter(
            (len(adj[int(v)]) for v in ids), dtype=np.int64, count=len(ids)
        )
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        total = int(indptr[-1])
        flat = np.fromiter(
            chain.from_iterable(adj[int(v)] for v in ids),
            dtype=np.int64,
            count=total,
        )
        indices = np.searchsorted(ids, flat)
        return cls(ids, indptr, indices)

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], num_vertices: int | None = None
    ) -> "CSRGraph":
        """Snapshot an edge list directly (both directions are added).

        ``num_vertices`` pre-registers ids ``0..num_vertices-1`` so that
        isolated vertices survive, as in ``DynamicGraph.from_edges``.
        """
        edge_list = list(edges)
        seen: set[int] = set(range(num_vertices)) if num_vertices else set()
        for u, v in edge_list:
            seen.add(u)
            seen.add(v)
        if not seen:
            raise GraphError("cannot snapshot an empty graph")
        ids = np.array(sorted(seen), dtype=np.int64)
        index_of = {int(v): i for i, v in enumerate(ids)}
        if edge_list:
            endpoint_u = np.fromiter(
                (index_of[u] for u, _ in edge_list), dtype=np.int64
            )
            endpoint_v = np.fromiter(
                (index_of[v] for _, v in edge_list), dtype=np.int64
            )
            sources = np.concatenate([endpoint_u, endpoint_v])
            targets = np.concatenate([endpoint_v, endpoint_u])
        else:
            sources = np.empty(0, dtype=np.int64)
            targets = np.empty(0, dtype=np.int64)
        order = np.argsort(sources, kind="stable")
        sources = sources[order]
        targets = targets[order]
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=len(ids)), out=indptr[1:])
        return cls(ids, indptr, targets)

    # ------------------------------------------------------------------
    # Size, membership, id mapping
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the snapshot."""
        return len(self._ids)

    @property
    def num_edges(self) -> int:
        """Undirected edge count (each edge stored twice internally)."""
        return len(self._indices) // 2

    @property
    def ids(self) -> np.ndarray:
        """Original vertex ids by compact index.  Must not be mutated."""
        return self._ids

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer (read-only)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column indices in compact space (read-only)."""
        return self._indices

    def index(self, v: int) -> int:
        """Compact index of original vertex id ``v``."""
        try:
            return self._index_of[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def vertex(self, i: int) -> int:
        """Original id of compact index ``i``."""
        return int(self._ids[i])

    def __contains__(self, v: int) -> bool:
        return v in self._index_of

    def __len__(self) -> int:
        return len(self._ids)

    def degree_array(self) -> np.ndarray:
        """Vertex degrees by compact index."""
        return np.diff(self._indptr)

    def neighbors(self, i: int) -> np.ndarray:
        """Compact neighbour indices of compact index ``i`` (read-only)."""
        return self._indices[self._indptr[i] : self._indptr[i + 1]]

    # ------------------------------------------------------------------
    # Vectorized traversal
    # ------------------------------------------------------------------
    def bfs(self, source_id: int) -> np.ndarray:
        """Distances from ``source_id`` by compact index; ``-1`` unreachable."""
        return self.bfs_compact(self.index(source_id))

    def bfs_compact(self, source_index: int) -> np.ndarray:
        """Distances from compact index ``source_index``; ``-1`` unreachable."""
        dist = np.full(self.num_vertices, -1, dtype=np.int32)
        dist[source_index] = 0
        frontier = np.array([source_index], dtype=np.int64)
        depth = 0
        while frontier.size:
            depth += 1
            _, neighbours = _gather_neighbors(self._indptr, self._indices, frontier)
            if neighbours.size == 0:
                break
            neighbours = neighbours[dist[neighbours] < 0]
            if neighbours.size == 0:
                break
            frontier = distinct_at_depth(dist, neighbours, depth)
        return dist

    def bfs_many(self, source_ids: Sequence[int]) -> np.ndarray:
        """Stacked BFS distances, one row per source id."""
        if len(source_ids) == 0:
            return np.empty((0, self.num_vertices), dtype=np.int32)
        return np.stack([self.bfs(s) for s in source_ids])

    def multi_source_bfs(self, source_ids: Sequence[int]) -> np.ndarray:
        """Distance to the *nearest* of several sources (compact space)."""
        if not source_ids:
            raise GraphError("multi_source_bfs needs at least one source")
        dist = np.full(self.num_vertices, -1, dtype=np.int32)
        sources = np.fromiter((self.index(s) for s in source_ids), dtype=np.int64)
        frontier = distinct_at_depth(dist, sources, 0)
        depth = 0
        while frontier.size:
            depth += 1
            _, neighbours = _gather_neighbors(self._indptr, self._indices, frontier)
            if neighbours.size == 0:
                break
            neighbours = neighbours[dist[neighbours] < 0]
            if neighbours.size == 0:
                break
            frontier = distinct_at_depth(dist, neighbours, depth)
        return dist

    def distances_from(self, source_id: int) -> dict[int, int]:
        """BFS distances as ``{original_id: distance}`` (reachable only).

        Interop helper for code written against the dict-returning
        :func:`repro.graph.traversal.bfs_distances`.
        """
        dist = self.bfs(source_id)
        reachable = np.nonzero(dist >= 0)[0]
        ids = self._ids
        return {int(ids[i]): int(dist[i]) for i in reachable}

    def eccentricity(self, source_id: int) -> int:
        """Largest finite BFS distance from ``source_id``."""
        return int(self.bfs(source_id).max())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges})"
