"""Sweep kernels: per-landmark construction sweeps and the
landmark-stacked update find/repair.

A *sweep* is everything one landmark contributes to a highway cover
labelling, computed from read-only inputs and returned as a compact
:class:`LandmarkSweep` value.  Sweeps are **pure** (no mutation of the
shared :class:`~repro.core.highway.Highway` / label store); the caller
folds them back in with :func:`merge_sweep`, in landmark order
(``docs/DESIGN.md`` §6).

Two kernels compute the same sweep:

* :func:`landmark_sweep` — the reference pure-Python level-synchronous BFS
  with cover flags (Theorem 5.2's minimality characterization);
* :func:`csr_landmark_sweep` — the numpy formulation over a
  :class:`~repro.graph.csr.CSRGraph` snapshot, which writes the sweep as
  the dense distance row and label-membership mask the update engine
  keeps.

The update engine (:mod:`repro.core.inchl_fast`) repairs a batch with
:func:`stacked_find_affected` and :class:`StackedRepair`, which run
every landmark's find and repair in one numpy pass over the flat index
of its ``(R, capacity)`` rows, each level repaired as soon as it settles (``docs/DESIGN.md`` §8, §10).

>>> adj = {0: [1], 1: [0, 2], 2: [1]}          # path 0 - 1 - 2
>>> sweep = landmark_sweep(adj, 0, frozenset({0, 2}))
>>> sweep.highway_cells                        # other landmarks reached
[(2, 2)]
>>> sweep.levels                               # uncovered vertices by depth
[(1, [1])]
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple

import numpy as np

from repro.exceptions import InvariantViolationError
from repro.graph.csr import _gather_neighbors, distinct_at_depth
from repro.graph.dyncsr import UNREACH

__all__ = [
    "LandmarkSweep",
    "landmark_sweep",
    "csr_landmark_sweep",
    "merge_sweep",
    "StackedLevel",
    "stacked_find_affected",
    "StackedRepair",
]


class LandmarkSweep(NamedTuple):
    """Everything landmark ``root`` contributes to the labelling.

    ``highway_cells`` are ``(other_landmark, distance)`` pairs for the
    highway row of ``root``; ``levels`` are ``(depth, vertices)`` groups of
    the label entries ``(root, depth) ∈ L(v)``, in BFS level order.
    """

    root: int
    highway_cells: list[tuple[int, int]]
    levels: list[tuple[int, list[int]]]

    @property
    def num_entries(self) -> int:
        """Label entries this sweep emits (``Σ_level |vertices|``)."""
        return sum(len(vertices) for _, vertices in self.levels)


def landmark_sweep(
    adj: dict[int, list[int]], root: int, landmark_set: frozenset[int]
) -> LandmarkSweep:
    """Full BFS from ``root`` with landmark-on-a-shortest-path flags.

    ``has_lm[v]`` = "some shortest path from ``root`` to ``v`` contains a
    landmark in ``R \\ {root}`` (possibly ``v`` itself)".  The flag of a
    level-``d`` vertex is final once all level-``d-1`` parents have been
    expanded, which the level-synchronous sweep guarantees; a vertex is
    labelled iff its flag stays false (the minimality characterization of
    Theorem 5.2).  Pure: reads ``adj`` only, returns the partial result.
    """
    dist: dict[int, int] = {root: 0}
    has_lm: dict[int, bool] = {root: False}
    cells: list[tuple[int, int]] = []
    levels: list[tuple[int, list[int]]] = []
    frontier = [root]
    depth = 0
    while frontier:
        depth += 1
        next_frontier: list[int] = []
        for v in frontier:
            flag = has_lm[v]
            for w in adj[v]:
                seen = dist.get(w)
                if seen is None:
                    dist[w] = depth
                    has_lm[w] = flag
                    next_frontier.append(w)
                elif seen == depth and flag and not has_lm[w]:
                    # Another shortest-path parent contributes a landmark.
                    has_lm[w] = True
        # Levels are complete here: record highway cells, force flags of
        # landmark vertices (paths *through* them are covered), collect
        # label entries of flag-free non-landmarks.
        labelled: list[int] = []
        for w in next_frontier:
            if w in landmark_set:
                cells.append((w, depth))
                has_lm[w] = True
            elif not has_lm[w]:
                labelled.append(w)
        if labelled:
            levels.append((depth, labelled))
        frontier = next_frontier
    return LandmarkSweep(root, cells, levels)


def csr_landmark_sweep(
    indptr, indices, is_landmark, root_index: int, dist, entry
) -> None:
    """The numpy formulation of :func:`landmark_sweep`, written as rows.

    Fills the caller-owned int32 row ``dist`` with the BFS distances from
    ``root_index`` (:data:`~repro.graph.dyncsr.UNREACH` when unreachable)
    and sets the bool row ``entry`` (all false on entry) at exactly the
    vertices :func:`landmark_sweep` labels — the dense rows the update
    engine keeps.  The sweep's highway cells are ``dist`` at the other
    landmarks' columns
    (:meth:`repro.core.labelling.HighwayCoverLabelling.from_rows`).  Per
    BFS level the cover flag propagates as one scatter over the frontier
    adjacency instead of a Python loop per edge.  ``indptr``/``indices``
    are the raw arrays of a :class:`~repro.graph.csr.CSRGraph`.
    """
    num_vertices = len(dist)
    dist.fill(UNREACH)
    flag = np.zeros(num_vertices, dtype=np.uint8)
    member = np.zeros(num_vertices, dtype=bool)
    dist[root_index] = 0
    frontier = np.array([root_index], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        sources, neighbours = _gather_neighbors(indptr, indices, frontier)
        if neighbours.size == 0:
            break
        unseen = dist[neighbours] == UNREACH
        sources = sources[unseen]
        neighbours = neighbours[unseen]
        if neighbours.size == 0:
            break
        # Mask-scatter dedup (cheaper than np.unique on heavy levels).
        member[neighbours] = True
        new_level = np.nonzero(member)[0]
        member[new_level] = False
        dist[new_level] = depth
        # OR of parent flags over every shortest-path (frontier -> new
        # level) edge: scatter 1 to every neighbour reached from a flagged
        # parent.  Landmarks on the level cover everything behind them.
        flag[neighbours[flag[sources] != 0]] = 1
        level_landmarks = new_level[is_landmark[new_level]]
        flag[level_landmarks] = 1
        entry[new_level[(flag[new_level] == 0) & ~is_landmark[new_level]]] = True
        frontier = new_level


def merge_sweep(highway, labels, sweep: LandmarkSweep) -> None:
    """Fold one sweep into the shared highway / label stores.

    The bulk label write relies on the sweep invariant that a BFS emits
    each vertex at most once and the caller's guarantee that ``sweep.root``
    currently has no entries (fresh landmark, or row cleared before the
    rebuild) — the same precondition as
    :meth:`repro.core.labels.LabelStore.bulk_set_new`.
    """
    root = sweep.root
    for other, distance in sweep.highway_cells:
        highway.set_distance(root, other, distance)
    for depth, vertices in sweep.levels:
        labels.bulk_set_new(root, vertices, depth)




# ---------------------------------------------------------------------------
# Landmark-stacked update kernels (find/repair over the engine's dense rows)
# ---------------------------------------------------------------------------
class StackedLevel(NamedTuple):
    """A chunk of one depth of a stacked find: up to :data:`_CHUNK`
    ``(landmark, vertex)`` entries that settled there, and every edge
    leaving them.

    ``entries`` are distinct flat indices ``k * capacity + v`` into the
    engine's ``(R, capacity)`` rows.  ``positions[i]`` indexes into
    ``entries`` and ``neighbours[i]`` is the flat index, in the same
    landmark's row, of that edge's other end: the find expands through
    this gather and the repair reads its parents from it.
    """

    depth: int
    entries: np.ndarray
    positions: np.ndarray
    neighbours: np.ndarray


#: Entries gathered at once.  A web-graph batch can settle 10^5
#: (landmark, vertex) entries with 10^6 edges between them; gathering a
#: level in chunks keeps the transient arrays near a megabyte instead of
#: growing with the level.
_CHUNK = 2048


def _gathers(dyn, entries: np.ndarray, capacity: int):
    """``(chunk, positions, neighbours)`` for consecutive chunks of the
    flat ``entries``: ``positions`` indexes into ``chunk`` and
    ``neighbours`` holds the flat index ``k * capacity + w`` of each
    neighbour ``w`` in the entry's own row.  The overlay gathers the
    entries' columns as they come, a column shared by several rows once
    per row: the base CSR gathers repeats natively, and on flickr-s this
    measured faster than gathering each distinct column once and
    broadcasting it back onto the rows."""
    for start in range(0, entries.size, _CHUNK):
        chunk = entries[start : start + _CHUNK]
        columns = chunk % capacity
        positions, neighbours = dyn.gather_with_positions(columns)
        yield chunk, positions, (chunk - columns)[positions] + neighbours


def _push(queue: dict, entries: np.ndarray, depths: np.ndarray) -> None:
    """File ``entries`` into the depth-keyed bucket ``queue``, each at
    its own depth in ``depths``."""
    for depth in set(depths.tolist()):
        queue.setdefault(depth, []).append(entries[depths == depth])


def _pop(queue: dict) -> tuple[int, np.ndarray]:
    """The smallest depth of ``queue`` and its candidates (duplicates
    included), removed from the queue."""
    depth = min(queue)
    parts = queue.pop(depth)
    return depth, parts[0] if len(parts) == 1 else np.concatenate(parts)


def stacked_find_affected(
    dyn, dist: np.ndarray, inserts: np.ndarray, deletes: np.ndarray, visit
) -> np.ndarray:
    """Affected-region search of an insert/delete batch for every
    landmark row at once.

    The BatchHL-style unified find (``docs/DESIGN.md`` §10) stacked over
    the landmarks: the array formulation of
    :func:`repro.core.batch.find_affected_batch` (insertions) and of
    :func:`repro.core.dechl.find_affected_deletion` (deletions), run on
    the flat index ``k * capacity + v`` of the engine's ``(R, capacity)``
    int32 matrix ``dist`` (:data:`~repro.graph.dyncsr.UNREACH` for
    unreachable; exact by Eq. (1) before the batch).  ``dyn`` must
    already reflect the whole batch; ``inserts`` and ``deletes`` are
    ``(m, 2)`` int64 arrays of compact-index edges.  One stacked level
    covers every landmark, so the number of levels is bounded by the
    depths reached, not by ``R``.

    1. **Closure** — the deletion roots are the ends ``b`` of a deleted
       edge with ``dist[k, a] + 1 == dist[k, b]`` (one vector compare per
       orientation; the only shape the old shortest-path DAG admits).
       Their descendants in the old DAG (``old(w) == old(v) + 1`` over
       the post-batch adjacency, one level per old depth) may move away
       or become unreachable.  Over-inclusion through inserted edges is
       harmless: repair re-derives an unchanged vertex identically.  The
       closure slots of ``dist`` are then set to ``UNREACH``.
    2. **Seeding** — on those cleared rows both seed kinds are one
       rule.  An inserted edge seeds its strictly farther end at ``1 +``
       the nearer end's distance, which skips every landmark the edge
       cannot affect (``dist[k, a] == dist[k, b]``) and every anchor
       inside the closure.  A closure vertex re-enters at ``1 +`` the
       smallest finite distance among its neighbours, read from one more
       gather of the closure.
    3. **Jumped bucket-queue BFS** (Lemma 4.4, multi-seed form) — an
       entry settles at the first popped depth ``<= dist[k, v]``, and its
       slot takes that depth at once, so a settled entry fails every
       later test and the expansion keeps only neighbours with
       ``dist > depth``.  Popping depths in increasing order settles every
       entry at its exact post-batch distance, even when another edge of
       the batch lowered its anchor.

    Each level is handed to ``visit`` as soon as it settles, as
    :class:`StackedLevel` chunks of at most :data:`_CHUNK` entries, in
    increasing depth — ``Λ_r`` of every landmark with exact new
    distances, written into ``dist``; :meth:`StackedRepair.repair_level`
    repairs them there, so no level outlives its chunk.  Returns the flat
    indices of the closure entries that never settled, the pairs the
    batch disconnected, whose slots stay ``UNREACH``.
    """
    capacity = dist.shape[1]
    flat = dist.reshape(-1)
    offsets = np.arange(dist.shape[0], dtype=np.int64) * capacity
    queue: dict[int, list[np.ndarray]] = {}
    closure = np.empty(0, dtype=np.int64)
    if deletes.size:
        for end, anchor in ((1, 0), (0, 1)):
            far = dist[:, deletes[:, end]]
            k, j = np.nonzero(dist[:, deletes[:, anchor]] + 1 == far)
            _push(queue, offsets[k] + deletes[j, end], far[k, j])
        groups = []
        while queue:
            depth, group = _pop(queue)
            group = distinct_at_depth(flat, group, depth)
            groups.append(group)
            for _, _, neighbours in _gathers(dyn, group, capacity):
                children = neighbours[flat[neighbours] == depth + 1]
                if children.size:
                    queue.setdefault(depth + 1, []).append(children)
        if groups:
            closure = np.concatenate(groups)
            flat[closure] = UNREACH
        for chunk, positions, neighbours in _gathers(dyn, closure, capacity):
            reach = flat[neighbours]
            finite = reach != UNREACH
            best = np.full(chunk.size, UNREACH, dtype=np.int32)
            np.minimum.at(best, positions[finite], reach[finite])
            entered = best != UNREACH
            _push(queue, chunk[entered], best[entered] + 1)
    if inserts.size:
        for end, anchor in ((1, 0), (0, 1)):
            near = dist[:, inserts[:, anchor]]
            k, j = np.nonzero(near < dist[:, inserts[:, end]])
            _push(queue, offsets[k] + inserts[j, end], near[k, j] + 1)

    while queue:
        depth, candidates = _pop(queue)
        candidates = candidates[flat[candidates] >= depth]
        if not candidates.size:
            continue
        entries = distinct_at_depth(flat, candidates, depth)
        for chunk, positions, neighbours in _gathers(dyn, entries, capacity):
            onward = neighbours[flat[neighbours] > depth]
            if onward.size:
                queue.setdefault(depth + 1, []).append(onward)
            visit(StackedLevel(depth, chunk, positions, neighbours))
    return closure[flat[closure] == UNREACH]


class StackedRepair:
    """Level-order repair (Lemma 4.6) of every landmark row at once.

    The array formulation of :func:`repro.core.inchl.repair_affected`:
    :func:`stacked_find_affected` hands :meth:`repair_level` each settled
    level chunk, in increasing depth, while ``dist`` holds the new
    distance at every
    entry settled so far and the old one everywhere else.  A parent of
    an entry at depth ``d`` is any gathered neighbour at ``d - 1``; a
    landmark entry is covered outright, any other is covered when some
    parent covers it.  A border parent covers when it is a landmark or
    lacks an ``r``-entry, and so does an affected one: its level,
    repaired just before, dropped the ``r``-entry exactly when it came
    out covered.  So one predicate over the live ``has_entry`` serves
    both kinds.  ``r`` itself never covers; it is the only parent of a
    depth-1 entry.

    ``has_entry`` (``(R, capacity)`` uint8) is rewritten in one scatter
    per chunk: covered entries lose their ``r``-entry, uncovered ones get
    one, and :meth:`repair_removed` drops the entries of the disconnected
    pairs.  ``stats`` (a :class:`~repro.core.batch.MixedUpdateStats`) receives
    the entry additions, modifications and removals, ``disconnected``,
    ``affected_per_landmark`` (``|Λ_r|`` settled plus disconnected, keyed
    by ``landmarks``, the rows' landmarks) and ``affected_union``.
    ``ids`` (compact index -> vertex id) only names a vertex without a
    shortest-path parent in the :class:`InvariantViolationError` raised
    when the rows are out of sync with the graph.  ``seconds`` is the
    time spent repairing.
    """

    def __init__(self, dist, has_entry, is_landmark, stats, landmarks, ids) -> None:
        self._capacity = dist.shape[1]
        self._flat = dist.reshape(-1)
        self._has = has_entry.reshape(-1)
        self._is_landmark = is_landmark
        self._stats = stats
        self._landmarks = landmarks
        self._ids = ids
        self._counts = np.zeros(len(landmarks), dtype=np.int64)
        self._touched = np.zeros(self._capacity, dtype=bool)
        self.seconds = 0.0

    def _record(self, entries: np.ndarray) -> None:
        self._counts += np.bincount(
            entries // self._capacity, minlength=len(self._landmarks)
        )
        self._touched[entries % self._capacity] = True

    def repair_level(self, level: StackedLevel) -> None:
        """Repair one settled level chunk."""
        start = perf_counter()
        capacity, has, stats = self._capacity, self._has, self._stats
        depth, entries = level.depth, level.entries
        landmark = self._is_landmark[entries % capacity]
        parent = self._flat[level.neighbours] == depth - 1
        positions = level.positions[parent]
        orphan = ~landmark
        orphan[positions] = False
        if orphan.any():
            entry = int(entries[orphan][0])
            raise InvariantViolationError(
                f"affected vertex {int(self._ids[entry % capacity])} at new "
                f"depth {depth} (landmark {self._landmarks[entry // capacity]}) "
                f"has no shortest-path parent — labelling out of sync with graph"
            )
        covered = landmark.copy()
        if depth > 1:
            parents = level.neighbours[parent]
            covers = self._is_landmark[parents % capacity] | (has[parents] == 0)
            covered[positions[covers]] = True
        cut = entries[covered & ~landmark]
        kept = entries[~covered]
        stats.entries_removed += int(np.count_nonzero(has[cut]))
        modified = int(np.count_nonzero(has[kept]))
        stats.entries_modified += modified
        stats.entries_added += int(kept.size) - modified
        has[cut] = 0
        has[kept] = 1
        self._record(entries)
        self.seconds += perf_counter() - start

    def repair_removed(self, removed: np.ndarray) -> None:
        """Drop the entries of the disconnected pairs ``removed`` and
        fill the affected counts."""
        start = perf_counter()
        stats = self._stats
        cut = removed[~self._is_landmark[removed % self._capacity]]
        stats.entries_removed += int(np.count_nonzero(self._has[cut]))
        self._has[cut] = 0
        stats.disconnected += int(removed.size)
        self._record(removed)
        stats.affected_per_landmark = dict(zip(self._landmarks, self._counts.tolist()))
        stats.affected_union = int(np.count_nonzero(self._touched))
        self.seconds += perf_counter() - start
