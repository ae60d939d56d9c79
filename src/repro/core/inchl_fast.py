"""Vectorized update engine: one find/repair sweep per landmark, any batch.

The pure-Python implementation of Section 4 (:mod:`repro.core.inchl`,
:mod:`repro.core.batch`, :mod:`repro.core.dechl`) recomputes every "old
distance" it needs through label queries — ``O(l)`` dict work per
scanned vertex — and walks adjacency one Python iteration per edge.
This module is the update-path counterpart of
:mod:`repro.core.construction_fast`: the same three-phase algorithm, but

* the graph is read through a :class:`~repro.graph.dyncsr.DynCSR` overlay
  that stays valid across updates (no per-update re-snapshot);
* old distances come from **dense per-landmark distance rows** maintained
  incrementally — by Eq. (1) a landmark query against a valid minimal
  labelling *is* the exact distance ``d_G(r, v)``, so seeding the rows
  exactly once — handed over by the CSR construction sweeps or a
  verified checkpoint, else one CSR BFS per landmark — and overwriting
  exactly the affected entries after each repair keeps them equal to
  what the dict kernels would derive from labels, at ``O(1)`` per lookup;
* the labelling itself is those rows plus a per-landmark
  label-membership mask: the engine keeps no dict labelling, and
  :meth:`~repro.core.labelling.HighwayCoverLabelling.from_rows`
  materializes one from the rows when a caller asks;
* find and repair run as the hybrid scalar/numpy level kernels
  :func:`~repro.parallel.sweeps.csr_find_affected_mixed` /
  :func:`~repro.parallel.sweeps.csr_repair_affected`.

:meth:`FastUpdateEngine.apply_mixed` is the engine's only update entry
point.  It absorbs a single insertion, an insertion burst, a deletion or
a mixed insert/delete batch alike — the BatchHL-style unified sweep of
``docs/DESIGN.md`` §10, whose find degenerates to IncHL+'s jumped BFS
(Lemma 4.4) when the batch holds no deletion — and keeps the dense rows
exact across every event kind.  Since the minimal labelling is a
canonical function of the graph and landmark set, the result equals the
sequential IncHL+/DecHL replay byte for byte — same affected sets, same
new distances, same covered verdicts, same entry/highway changes
(``docs/DESIGN.md`` §8; asserted exhaustively by ``tests/proptest``).
Every edge update of the owning :class:`~repro.core.dynamic.DynamicHCL`
runs here; landmark maintenance and vertex removal run the reference
kernels on a detached dict graph and labelling and seed a new engine
from them.
"""

from __future__ import annotations

from collections.abc import Iterable
from time import perf_counter

import numpy as np

from repro.core.batch import MixedUpdateStats
from repro.exceptions import InvariantViolationError
from repro.graph.dyncsr import UNREACH, DynCSR
from repro.parallel.sweeps import csr_find_affected_mixed, csr_repair_affected

__all__ = ["FastUpdateEngine"]


def _fit(rows: np.ndarray, capacity: int, fill) -> np.ndarray:
    """``rows`` widened to ``capacity`` columns (padded with ``fill``);
    adopted as-is when already that wide and C-contiguous."""
    if rows.shape[1] == capacity and rows.flags.c_contiguous:
        return rows
    out = np.full((rows.shape[0], capacity), fill, dtype=rows.dtype)
    out[:, : rows.shape[1]] = rows
    return out


class FastUpdateEngine:
    """Per-oracle state of the vectorized update path.

    Owns the :class:`DynCSR` overlay, the dense ``|R| x n`` distance
    matrix, the label-membership mask and the reusable scratch buffers.
    The rows *are* the labelling (Eq. 1): ``(r, dist[k, v]) ∈ L(v)`` iff
    ``has_entry[k, v]``, and the highway cells are the rows at the
    landmark columns.  Create the engine from ``rows=(overlay, dist,
    has_entry)`` known exact for the overlay's graph (``graph`` is then
    unused), or from a dict ``graph`` and the label store ``labels`` of a
    labelling valid and minimal for it (the overlay copies the graph, one
    BFS per landmark seeds the distances).  The overlay is the graph from
    then on: apply every subsequent edge update through
    :meth:`apply_mixed`, which applies the batch to the overlay and
    repairs the rows, and register an isolated vertex with
    :meth:`add_vertex`.

    >>> from repro.core.construction import build_hcl
    >>> from repro.core.inchl import apply_edge_insertion
    >>> from repro.core.labelling import HighwayCoverLabelling
    >>> from repro.graph.generators import grid_graph
    >>> g_fast, g_ref = grid_graph(3, 3), grid_graph(3, 3)
    >>> hcl_ref = build_hcl(g_ref, [0, 8])
    >>> engine = FastUpdateEngine(g_fast, [0, 8], labels=hcl_ref.labels)
    >>> g_ref.add_edge(0, 8)
    >>> _ = engine.apply_mixed([(0, 8)], [])
    >>> _ = apply_edge_insertion(g_ref, hcl_ref, 0, 8)
    >>> rows = engine.owned_landmarks
    >>> dist, entry = engine.rows(rows)
    >>> HighwayCoverLabelling.from_rows(
    ...     engine.landmarks, rows, engine.dyn.ids, dist, entry) == hcl_ref
    True
    """

    __slots__ = (
        "_landmarks",
        "_full",
        "_dyn",
        "_dist",
        "_is_landmark",
        "_has_entry",
        "_new_dist",
        "_covered",
        "_del_mask",
        "_row_views",
        "_scratch_views",
        "_cell_sources",
    )

    def __init__(
        self,
        graph,
        landmarks: Iterable[int],
        owned: Iterable[int] | None = None,
        rows: tuple[DynCSR, np.ndarray, np.ndarray] | None = None,
        labels=None,
    ) -> None:
        self._full = list(landmarks)
        if len(set(self._full)) != len(self._full):
            raise ValueError("duplicate landmarks")
        if owned is None:
            self._landmarks = self._full
        else:
            # Landmark-sharded mode: maintain only the owned landmarks'
            # rows, while the sparsifying ``is_landmark`` mask below still
            # covers the FULL landmark set so repairs see the same pruned
            # searches as the unsharded engine.
            self._landmarks = list(owned)
            full_set = set(self._full)
            for r in self._landmarks:
                if r not in full_set:
                    raise InvariantViolationError(
                        f"owned landmark {r} not in the labelling's landmarks"
                    )
        if rows is None:
            self._dyn = DynCSR.from_graph(graph)
            self._seed_rows(labels)
        else:
            # Attach from known-exact rows (a construction sweep's BFS
            # distances, a verified checkpoint, or another engine's rows
            # over the same overlay): no BFS, no label scan.
            self._dyn, dist, has_entry = rows
            shape = (len(self._landmarks), self._dyn.num_vertices)
            if dist.shape[0] != shape[0] or dist.shape[1] < shape[1] or (
                has_entry.shape != dist.shape
            ):
                raise InvariantViolationError(
                    f"engine rows of shape {dist.shape}/{has_entry.shape} "
                    f"do not fit {shape[0]} landmarks x {shape[1]} vertices"
                )
            capacity = self._dyn.capacity
            self._dist = _fit(dist, capacity, UNREACH)
            self._has_entry = _fit(has_entry.view(np.uint8), capacity, 0)
        dyn = self._dyn
        capacity = dyn.capacity
        self._is_landmark = np.zeros(capacity, dtype=bool)
        for r in self._full:
            self._is_landmark[dyn.index(r)] = True
        self._new_dist = np.full(capacity, -1, dtype=np.int32)
        self._covered = np.zeros(capacity, dtype=np.uint8)
        self._del_mask = np.zeros(capacity, dtype=np.uint8)
        self._rebuild_views()

    def _seed_rows(self, labels) -> None:
        """Seed the dense rows: one CSR BFS per landmark for the distances,
        one scan of the label store ``labels`` for the membership mask
        (``has_entry[k][i] == 1`` iff the k-th landmark has an entry on
        vertex ``ids[i]``, kept true by the repair kernel from then on)."""
        dyn = self._dyn
        capacity = dyn.capacity
        self._dist = np.full(
            (len(self._landmarks), capacity), UNREACH, dtype=np.int32
        )
        for k, r in enumerate(self._landmarks):
            self._dist[k, : dyn.num_vertices] = dyn.bfs_compact(dyn.index(r))
        self._has_entry = np.zeros((len(self._landmarks), capacity), dtype=np.uint8)
        position = {r: k for k, r in enumerate(self._landmarks)}
        columns: list[list[int]] = [[] for _ in self._landmarks]
        index_of = dyn.index
        for v, label in labels.items():
            vi = index_of(v)
            for r in label:
                k = position.get(r)
                if k is not None:
                    columns[k].append(vi)
        for k, column in enumerate(columns):
            if column:
                self._has_entry[k, column] = 1

    def _rebuild_views(self) -> None:
        """Cache the memoryviews the scalar kernel paths read.

        ``_row_views[k]`` is ``(dist_row_mv, has_entry_row_mv)``;
        ``_scratch_views`` is ``(new_dist_mv, covered_mv, landmark_mv,
        del_mask_mv)``; ``_cell_sources[k]`` lists, per other landmark
        ``w``, ``(column of w, view, index)`` such that ``view[index]`` is
        the highway cell ``δ(r_k, w)``: ``w``'s own row at ``r_k``'s
        column when this engine keeps it, else ``r_k``'s row at ``w``.
        Rebuilt whenever the backing arrays are re-allocated
        (:meth:`_ensure_capacity`).
        """
        self._row_views = [
            (memoryview(self._dist[k]), memoryview(self._has_entry[k]))
            for k in range(len(self._landmarks))
        ]
        self._scratch_views = (
            memoryview(self._new_dist),
            memoryview(self._covered),
            memoryview(self._is_landmark),
            memoryview(self._del_mask),
        )
        index = self._dyn.index
        own = {r: views[0] for r, views in zip(self._landmarks, self._row_views)}
        self._cell_sources = [
            [
                (index(w), own[w], index(r)) if w in own
                else (index(w), self._row_views[k][0], index(w))
                for w in self._full if w != r
            ]
            for k, r in enumerate(self._landmarks)
        ]

    @property
    def landmarks(self) -> list[int]:
        """The full landmark list ``R`` in selection order (read-only)."""
        return self._full

    @property
    def owned_landmarks(self) -> list[int]:
        """The landmarks whose rows this engine maintains (all of them
        outside sharded mode)."""
        return list(self._landmarks)

    def freeze_rows(self) -> tuple[np.ndarray, np.ndarray, DynCSR]:
        """Pinned copies of the dense rows and the overlay for queries.

        Returns ``(dist, has_entry, csr)``: ``(num_owned, num_vertices)``
        copies of the int32 distance rows and the bool label-membership
        mask, and a :meth:`DynCSR.freeze` copy of the overlay.  Kernels
        mutate all three in place, so a published snapshot
        (:meth:`repro.serving.snapshot.OracleSnapshot.capture`) must carry
        its own copies.
        """
        n = self._dyn.num_vertices
        return (
            self._dist[:, :n].copy(),
            self._has_entry[:, :n].view(bool).copy(),
            self._dyn.freeze(),
        )

    @property
    def label_entries(self) -> int:
        """``size(L)`` of the owned rows: the set bits of the mask."""
        return int(np.count_nonzero(self._has_entry))

    def rows(self, landmarks: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the dense ``(dist, has_entry)`` rows of ``landmarks``
        (a subset of :attr:`owned_landmarks`) over the registered
        vertices: int32 distances (:data:`UNREACH` when unreachable) and
        a bool label-membership mask, columns in overlay order."""
        index = self._landmarks.index
        try:
            picked = [index(r) for r in landmarks]
        except ValueError:
            raise InvariantViolationError(
                f"engine keeps no row for some of {list(landmarks)}"
            ) from None
        n = self._dyn.num_vertices
        return self._dist[picked, :n], self._has_entry[picked, :n].view(bool)

    @property
    def dyn(self) -> DynCSR:
        """The CSR overlay (read-only use)."""
        return self._dyn

    def old_distance(self, r: int, v: int) -> float:
        """``d_G(r, v)`` from the dense rows (``inf`` when unreachable).

        Exposed for tests/validation; the kernels read the rows directly.
        """
        d = self._dist[self._landmarks.index(r), self._dyn.index(v)]
        return float("inf") if d == UNREACH else int(d)

    def _ensure_capacity(self) -> None:
        """Grow the distance matrix and scratch to the overlay's capacity."""
        capacity = self._dyn.capacity
        if self._dist.shape[1] >= capacity:
            return
        dist = np.full((len(self._landmarks), capacity), UNREACH, dtype=np.int32)
        dist[:, : self._dist.shape[1]] = self._dist
        self._dist = dist
        has_entry = np.zeros((len(self._landmarks), capacity), dtype=np.uint8)
        has_entry[:, : self._has_entry.shape[1]] = self._has_entry
        self._has_entry = has_entry
        is_landmark = np.zeros(capacity, dtype=bool)
        is_landmark[: len(self._is_landmark)] = self._is_landmark
        self._is_landmark = is_landmark
        new_dist = np.full(capacity, -1, dtype=np.int32)
        new_dist[: len(self._new_dist)] = self._new_dist
        self._new_dist = new_dist
        covered = np.zeros(capacity, dtype=np.uint8)
        covered[: len(self._covered)] = self._covered
        self._covered = covered
        self._del_mask = np.zeros(capacity, dtype=np.uint8)
        self._rebuild_views()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_vertex(self, v: int) -> None:
        """Register ``v`` as an isolated vertex: unreachable from every
        landmark and without label entries, so no row changes."""
        self._dyn.ensure_vertex(v)
        self._ensure_capacity()

    def apply_mixed(
        self,
        inserts: Iterable[tuple[int, int]],
        deletes: Iterable[tuple[int, int]],
    ) -> MixedUpdateStats:
        """BatchHL-style repair for an insert/delete batch of any shape.

        The batch must be valid for the overlay (inserts absent, deletes
        present, no self-loops; new endpoints are registered).  The two
        edge sets must be disjoint and *net* — the caller
        (:meth:`repro.core.dynamic.DynamicHCL.apply_events_batch`)
        collapses insert-then-delete churn before calling in.  Phase A
        resolves the deletion orientations per landmark from the dense
        rows (``|old(a) - old(b)| == 1`` is the only shape the old
        shortest-path DAG admits; insertion orientations are
        deletion-region-dependent and resolve inside the kernel) and
        skips landmarks the batch cannot affect.  Phase B/C then run
        find and repair one landmark at a time on the engine's own
        scratch, in landmark order.  Repair folds the new distances —
        including :data:`UNREACH` for disconnected vertices — back into
        the dense rows.
        """
        ins_list = [(int(a), int(b)) for a, b in inserts]
        del_list = [(int(a), int(b)) for a, b in deletes]
        if not ins_list and not del_list:
            raise InvariantViolationError("update batch needs at least one event")
        find_start = perf_counter()
        dyn = self._dyn
        if ins_list:
            dyn.insert_edges_batch(ins_list)
        if del_list:
            dyn.remove_edges_batch(del_list)
        self._ensure_capacity()
        index = dyn.index
        ins_idx = [(index(a), index(b)) for a, b in ins_list]
        del_idx = [(index(a), index(b)) for a, b in del_list]

        stats = MixedUpdateStats(ins_list, del_list)
        stats.affected_per_landmark = dict.fromkeys(self._landmarks, 0)
        plans: list[tuple[int, list, list]] = []
        for k, (row_mv, _) in enumerate(self._row_views):
            if del_idx:
                del_seeds: list[tuple[int, int]] = []
                for ai, bi in del_idx:
                    da = row_mv[ai]
                    db = row_mv[bi]
                    # |old(a) - old(b)| == 1 is the only orientation the
                    # old SP DAG admits; both-unreachable fails it because
                    # UNREACH + 1 != UNREACH (unlike inf + 1 == inf, see
                    # dechl).
                    if da + 1 == db:
                        del_seeds.append((bi, db))
                    elif db + 1 == da:
                        del_seeds.append((ai, da))
                if del_seeds:
                    plans.append((k, ins_idx, del_seeds))
                    continue
            for ai, bi in ins_idx:
                # Without a deletion region, an insertion matters to this
                # landmark iff one endpoint is strictly closer.
                if row_mv[ai] != row_mv[bi]:
                    plans.append((k, ins_idx, []))
                    break

        union: set[int] = set()
        find_s = perf_counter() - find_start
        repair_s = 0.0
        new_dist = self._new_dist
        del_mask = self._del_mask
        new_mv, _, _, del_mv = self._scratch_views
        for k, ins_edges, del_seeds in plans:
            t0 = perf_counter()
            # The highway cells of r_k as the dict kernels would read them:
            # before the find overwrites the row's closure slots, after
            # the earlier landmarks of this batch repaired their rows.
            cells = {c: view[i] for c, view, i in self._cell_sources[k]}
            levels, removed = csr_find_affected_mixed(
                dyn,
                self._dist[k],
                ins_edges,
                del_seeds,
                new_dist,
                del_mask,
                views=(self._row_views[k][0], new_mv, del_mv),
            )
            t1 = perf_counter()
            self._repair_landmark(k, levels, removed, stats, union, cells)
            find_s += t1 - t0
            repair_s += perf_counter() - t1
        stats.affected_union = len(union)
        stats.phases = {"find": find_s, "repair": repair_s}
        return stats

    def _repair_landmark(
        self, k: int, levels, removed, stats, union, cells
    ) -> None:
        """Phase C for the ``k``-th landmark: disconnect, repair, refresh
        the dense row, reset scratch, and record ``|Λ_r|`` (settled +
        disconnected) in ``stats``.

        Vertices the batch cut off from the landmark lose their entry
        (or, for landmarks, their highway cell) outright — mirroring
        :func:`repro.core.dechl.repair_affected_deletion` — and their
        dense slot goes to :data:`UNREACH` *before* the level sweep, so
        the parent predicate never reads a stale finite distance.  The
        level sweep is :func:`csr_repair_affected`: deletions flip cover
        verdicts in either direction, but the parent predicate
        re-derives them from scratch anyway.  ``cells`` holds the
        landmark's highway cells as they stood before its find, for the
        ``highway_updates`` count.
        """
        r = self._landmarks[k]
        row = self._dist[k]
        new_dist = self._new_dist
        covered = self._covered
        row_mv, has_mv = self._row_views[k]
        new_mv, covered_mv, landmark_mv, _ = self._scratch_views
        if removed:
            unreachable = int(UNREACH)
            for v in removed:
                row_mv[v] = unreachable
                if landmark_mv[v]:
                    if cells[v] != unreachable:
                        stats.highway_updates += 1
                elif has_mv[v]:
                    has_mv[v] = 0
                    stats.entries_removed += 1
            stats.disconnected += len(removed)
            union.update(removed)
        csr_repair_affected(
            self._dyn,
            r,
            levels,
            row,
            new_dist,
            self._is_landmark,
            covered,
            self._has_entry[k],
            stats,
            views=(row_mv, new_mv, landmark_mv, covered_mv, has_mv),
            highway_cells=cells,
        )
        affected = len(removed)
        for depth, verts in levels:
            if isinstance(verts, list):
                affected += len(verts)
                union.update(verts)
                for v in verts:
                    row_mv[v] = depth
                    new_mv[v] = -1
                    covered_mv[v] = 0
            else:
                affected += verts.size
                union.update(verts.tolist())
                row[verts] = depth
                new_dist[verts] = -1
                covered[verts] = 0
        stats.affected_per_landmark[r] = affected
