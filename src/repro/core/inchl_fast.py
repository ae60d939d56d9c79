"""Vectorized update engine: one stacked find and one stacked repair per batch.

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
* find and repair run once per batch for every landmark at once, as
  the landmark-stacked level kernels
  :func:`~repro.core.sweeps.stacked_find_affected` /
  :class:`~repro.core.sweeps.StackedRepair` over the flat
  index ``k * capacity + v`` of the dense rows: one numpy level per
  BFS depth, not one scalar pass per landmark.

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
from repro.core.sweeps import StackedRepair, stacked_find_affected

__all__ = ["FastUpdateEngine"]


def _fit(rows: np.ndarray, capacity: int, fill) -> np.ndarray:
    """``rows`` widened to ``capacity`` columns (padded with ``fill``);
    adopted as-is when already that wide and C-contiguous."""
    if rows.shape[1] == capacity and rows.flags.c_contiguous:
        return rows
    out = np.full((rows.shape[0], capacity), fill, dtype=rows.dtype)
    out[:, : rows.shape[1]] = rows
    return out


def _compact_edges(dyn: DynCSR, edges: list[tuple[int, int]]) -> np.ndarray:
    """``edges`` as an ``(m, 2)`` int64 array of compact indices."""
    return dyn.indices([v for edge in edges for v in edge]).reshape(-1, 2)


class FastUpdateEngine:
    """Per-oracle state of the vectorized update path.

    Owns the :class:`DynCSR` overlay, the dense ``|R| x n`` distance
    matrix and the label-membership mask; an update keeps no other state
    between batches.
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
        "_cell_columns",
        "_cell_pairs",
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
        self._cell_columns = dyn.indices(self._full)
        self._is_landmark = np.zeros(dyn.capacity, dtype=bool)
        self._is_landmark[self._cell_columns] = True
        # The highway cells are the rows at the landmark columns.  An
        # unordered pair {r, w} with r owned counts once: in r's row,
        # unless w's row is kept here too and comes first.
        rank = {r: k for k, r in enumerate(self._landmarks)}
        order = np.array([rank.get(w, len(rank)) for w in self._full])
        self._cell_pairs = order > np.arange(len(self._landmarks))[:, None]

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
        """Grow the dense rows and the landmark mask to the overlay's
        capacity."""
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
        collapses insert-then-delete churn before calling in.  One
        stacked find (:func:`~repro.core.sweeps.stacked_find_affected`)
        resolves the deletion orientations and insertion seeds of every
        landmark with a vector compare on the dense rows, skipping the
        landmarks the batch cannot affect, and writes the new distances —
        :data:`UNREACH` for disconnected vertices — into the rows.  One
        stacked repair then rewrites the label-membership mask.
        ``highway_updates`` counts the unordered landmark pairs ``{r, w}``
        (``r`` owned) whose cell differs before and after the batch.
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
        cells = self._dist[:, self._cell_columns]
        stats = MixedUpdateStats(ins_list, del_list)
        repair = StackedRepair(
            self._dist,
            self._has_entry,
            self._is_landmark,
            stats,
            self._landmarks,
            dyn.ids,
        )
        removed = stacked_find_affected(
            dyn,
            self._dist,
            _compact_edges(dyn, ins_list),
            _compact_edges(dyn, del_list),
            repair.repair_level,
        )
        repair.repair_removed(removed)
        changed = self._dist[:, self._cell_columns] != cells
        stats.highway_updates = int(np.count_nonzero(changed & self._cell_pairs))
        elapsed = perf_counter() - find_start
        stats.phases = {"find": elapsed - repair.seconds, "repair": repair.seconds}
        return stats
