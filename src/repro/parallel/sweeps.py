"""Per-landmark sweep kernels: construction sweeps and update find/repair.

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

>>> adj = {0: [1], 1: [0, 2], 2: [1]}          # path 0 - 1 - 2
>>> sweep = landmark_sweep(adj, 0, frozenset({0, 2}))
>>> sweep.highway_cells                        # other landmarks reached
[(2, 2)]
>>> sweep.levels                               # uncovered vertices by depth
[(1, [1])]
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "LandmarkSweep",
    "landmark_sweep",
    "csr_landmark_sweep",
    "merge_sweep",
    "csr_find_affected_mixed",
    "csr_repair_affected",
]

#: Frontier size below which the update kernels drop to scalar loops: a
#: handful of numpy calls costs more than a few dict-free Python
#: iterations, and single-edge insertions mostly touch tiny regions.
_SCALAR_CUTOFF = 32


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
    import numpy as np

    from repro.graph.csr import _gather_neighbors
    from repro.graph.dyncsr import UNREACH

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
# Incremental-update kernels (find/repair over DynCSR arrays)
# ---------------------------------------------------------------------------
def csr_find_affected_mixed(
    dyn, old_dist, ins_edges, del_seeds, new_dist=None, del_mask=None, views=None
):
    """Affected-region search for one landmark of an insert/delete batch.

    The BatchHL-style unified find (``docs/DESIGN.md`` §10); the array
    formulation of :func:`repro.core.batch.find_affected_batch` when the
    batch holds only insertions.  ``dyn`` must already reflect the whole
    batch (inserted edges present, deleted edges gone) while ``old_dist``
    is still the landmark's pre-batch dense distance row (int32,
    :data:`~repro.graph.dyncsr.UNREACH` for unreachable — exact by
    Eq. (1)).  ``ins_edges`` are inserted edges as ``(ai, bi)``
    compact-index pairs (orientation is resolved here, because it depends
    on deletion-affected membership); ``del_seeds`` are ``(root_index,
    old_depth)`` pairs, one per surviving orientation of a deleted edge
    (``old(anchor) + 1 == old(root)``), as produced by the engine's
    Phase A over the dense rows.

    Three stages:

    1. **Closure** — descendants of the deletion roots in the old
       shortest-path DAG (``old(w) == old(v) + 1`` level sweep over the
       post-batch adjacency; hops across deleted edges are covered
       because every deleted-edge orientation seeds its own root).  These
       are the vertices whose distance may *increase or become infinite*;
       they are marked in ``del_mask`` while stage 2 runs.
       Over-inclusion through inserted edges is harmless: repair
       re-derives an unchanged vertex identically.
    2. **Seeding** — insertion anchors: the strictly closer endpoint of
       an inserted edge seeds the other at ``old(anchor) + 1`` (an anchor
       inside the deletion region contributes through expansion instead:
       its own settled depth is the only sound candidate), plus, per
       closure vertex, the cheapest re-entry candidate ``old(u) + 1``
       over its unaffected neighbours ``u`` (their distances can only
       have *decreased*, so the candidate never underestimates and
       monotonicity repairs any overestimate).  Then every closure slot
       of ``old_dist`` is set to ``UNREACH`` and the mask is cleared.
    3. **Jumped bucket-queue BFS** (Lemma 4.4, multi-seed form) — a
       vertex settles at the first popped depth with ``old >= depth``.
       Closure vertices pass that test at any depth, so they settle at
       their exact new distance however it compares to the old one.  A
       bucket queue keyed on candidate depth settles vertices in
       monotonically increasing depth, so a seed whose anchor distance
       dropped because of *another* edge in the batch is discovered
       before the stale seed pops.

    Returns ``(levels, removed)``: ``(depth, vertices)`` pairs in
    increasing new depth — ``Λ_r`` with exact post-batch distances — and
    the sorted closure vertices that never settled, exactly the vertices
    the batch disconnected from the landmark.  ``vertices`` is a sorted
    Python list for small levels and a sorted int64 array for large ones:
    buckets at or below :data:`_SCALAR_CUTOFF` candidates run as plain
    loops over memoryviews of the same buffers (small updates touch a
    handful of vertices, where one numpy call costs more than the whole
    level), larger buckets run as numpy level sweeps.  Both paths apply
    the same settle test to the same shared scratch, so the affected set
    does not depend on which one ran.

    ``new_dist`` (int32, every entry ``-1``) and ``del_mask`` (uint8,
    zeroed) are optional scratch arrays reused across calls.  On return
    ``new_dist`` holds the new depth at every settled index for the
    caller to repair from and reset, and ``del_mask`` is zeroed again.
    The closure slots of ``old_dist`` are left at ``UNREACH``: the caller
    rewrites every one of them when it folds the result back (settled
    vertices get their new depth, removed ones stay unreachable).
    ``views`` is an optional pre-built ``(old_mv, new_mv, del_mv)``
    memoryview bundle over the three arrays, cached by the owning
    engine; without it the views are built here.
    """
    import numpy as np

    if new_dist is None:
        new_dist = np.full(dyn.num_vertices, -1, dtype=np.int32)
    if del_mask is None:
        del_mask = np.zeros(dyn.num_vertices, dtype=np.uint8)
    if views is None:
        old_mv = memoryview(old_dist)
        new_mv = memoryview(new_dist)
        del_mv = memoryview(del_mask)
    else:
        old_mv, new_mv, del_mv = views
    indptr, base_len, indices, delta, delta_count = dyn.scalar_views()

    # Bucket value = (scalar candidates, array candidates): the scalar
    # path extends the first, the vectorized path appends whole frontier
    # arrays to the second, and a pop never has to type-inspect elements.
    buckets: dict[int, tuple[list[int], list]] = {}
    affected: list[int] = []
    if del_seeds:
        from repro.graph.dyncsr import UNREACH

        unreachable = int(UNREACH)
        # Stage 1: closure of the deletion roots over the old SP DAG.
        closure: dict[int, list[int]] = {}
        for root, depth in del_seeds:
            closure.setdefault(int(depth), []).append(int(root))
        while closure:
            depth = min(closure)
            group = closure.pop(depth)
            child_depth = depth + 1
            pushed: list[int] = []
            for v in group:
                if del_mv[v]:
                    continue
                del_mv[v] = 1
                affected.append(v)
                start = indptr[v]
                for w in indices[start : start + base_len[v]]:
                    if old_mv[w] == child_depth and not del_mv[w]:
                        pushed.append(w)
                if delta_count[v]:
                    for w in delta[v]:
                        if old_mv[w] == child_depth and not del_mv[w]:
                            pushed.append(w)
            if pushed:
                closure.setdefault(child_depth, []).extend(pushed)

        # Stage 2: insertion anchors outside the region, then re-entry
        # candidates of the closure vertices.
        for ai, bi in ins_edges:
            da = old_mv[ai]
            db = old_mv[bi]
            if not del_mv[ai] and da != unreachable:
                cand = da + 1
                if del_mv[bi] or cand <= db:
                    buckets.setdefault(cand, ([], []))[0].append(bi)
            if not del_mv[bi] and db != unreachable:
                cand = db + 1
                if del_mv[ai] or cand <= da:
                    buckets.setdefault(cand, ([], []))[0].append(ai)
        for v in affected:
            best = -1
            start = indptr[v]
            for w in indices[start : start + base_len[v]]:
                if not del_mv[w]:
                    dw = old_mv[w]
                    if dw != unreachable and (best < 0 or dw + 1 < best):
                        best = dw + 1
            if delta_count[v]:
                for w in delta[v]:
                    if not del_mv[w]:
                        dw = old_mv[w]
                        if dw != unreachable and (best < 0 or dw + 1 < best):
                            best = dw + 1
            if best >= 0:
                buckets.setdefault(best, ([], []))[0].append(v)
        for v in affected:
            old_mv[v] = unreachable
            del_mv[v] = 0
    else:
        # Stage 2 without a deletion region: only the orientation whose
        # anchor is strictly closer can carry a new shortest path (and
        # that anchor is then necessarily reachable).
        for ai, bi in ins_edges:
            da = old_mv[ai]
            db = old_mv[bi]
            if da < db:
                buckets.setdefault(da + 1, ([], []))[0].append(bi)
            elif db < da:
                buckets.setdefault(db + 1, ([], []))[0].append(ai)

    # Stage 3: jumped monotone bucket-queue BFS.
    levels: list[tuple[int, object]] = []
    while buckets:
        depth = min(buckets)
        ints, arrays = buckets.pop(depth)
        size = len(ints)
        for a in arrays:
            size += len(a)
        if size <= _SCALAR_CUTOFF:
            # Scalar pop: settle (writing the shared scratch immediately,
            # which also dedups within the bucket), then expand through
            # the raw CSR views.
            for a in arrays:
                ints.extend(a.tolist())
            settled: list[int] = []
            for v in ints:
                if new_mv[v] < 0 and old_mv[v] >= depth:
                    new_mv[v] = depth
                    settled.append(v)
            if not settled:
                continue
            settled.sort()
            levels.append((depth, settled))
            next_depth = depth + 1
            pushed = []
            for v in settled:
                # Test the old distance first: most scanned neighbours are
                # unaffected border vertices, which fail it on one read.
                start = indptr[v]
                for w in indices[start : start + base_len[v]]:
                    if old_mv[w] >= next_depth and new_mv[w] < 0:
                        pushed.append(w)
                if delta_count[v]:
                    for w in delta[v]:
                        if old_mv[w] >= next_depth and new_mv[w] < 0:
                            pushed.append(w)
            if pushed:
                bucket = buckets.get(next_depth)
                if bucket is None:
                    buckets[next_depth] = (pushed, [])
                else:
                    bucket[0].extend(pushed)
            continue
        if ints:
            arrays.append(np.array(ints, dtype=np.int64))
        cand = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        cand = cand[(new_dist[cand] < 0) & (old_dist[cand] >= depth)]
        if cand.size == 0:
            continue
        level = np.unique(cand)
        new_dist[level] = depth
        levels.append((depth, level))
        neighbours = dyn.gather_neighbours(level)
        if neighbours.size:
            neighbours = neighbours[
                (new_dist[neighbours] < 0) & (old_dist[neighbours] >= depth + 1)
            ]
            if neighbours.size:
                bucket = buckets.get(depth + 1)
                if bucket is None:
                    buckets[depth + 1] = ([], [neighbours])
                else:
                    bucket[1].append(neighbours)

    if not affected:
        return levels, affected
    removed = [v for v in affected if new_mv[v] < 0]
    removed.sort()
    return levels, removed


def csr_repair_affected(
    dyn,
    r,
    levels,
    old_dist,
    new_dist,
    is_landmark,
    covered,
    has_entry,
    stats=None,
    views=None,
    highway_cells=None,
):
    """Level-order repair (Lemma 4.6) from kernel find results.

    The array formulation of :func:`repro.core.inchl.repair_affected`:
    sweeps ``levels`` in increasing depth and evaluates the *covered*
    predicate of each affected vertex over its shortest-path parents —
    affected parents at ``depth - 1`` read their just-computed cover flag,
    unaffected parents at old distance ``depth - 1`` cover iff they are a
    landmark (other than ``r``) or lack an ``r``-entry.  The dict kernel
    consults ``border_old``, which records exactly the unaffected
    neighbours of the affected region with their unchanged distances;
    ``old_dist`` holds those same values for every unaffected vertex (the
    predicate never reads it at an affected one), so the parent sets
    coincide and the two kernels reach the same entry
    additions/modifications/removals and highway updates.

    ``new_dist`` must hold the find results (affected index -> new depth,
    ``-1`` elsewhere); ``covered`` is a zeroed uint8 scratch.  Both are
    left populated at affected indices for the caller to reset.
    ``has_entry`` is the landmark's dense label-membership row (uint8:
    ``has_entry[i] == 1`` iff ``(r, ·) ∈ L(ids[i])``); the kernel rewrites
    it at the affected vertices, and with the caller's refresh of
    ``old_dist`` to the new depths that *is* the repaired labelling of
    ``r``.  ``stats`` counts the entry changes like the dict kernel, and
    a highway cell ``δ(r, w)`` of an affected landmark ``w`` as updated
    when it differs from the new depth; ``highway_cells`` (landmark
    column -> current cell value, :data:`~repro.graph.dyncsr.UNREACH`
    when unreachable) must then hold the cells as they stood before the
    find overwrote ``old_dist``.

    Levels arrive in the hybrid representation of
    :func:`csr_find_affected_mixed` (lists for small levels, arrays for large
    ones) and are repaired scalar or vectorized accordingly; the two
    paths evaluate the same predicate over the same shared buffers.

    ``views`` is an optional pre-built ``(old_mv, new_mv, landmark_mv,
    covered_mv, has_mv)`` memoryview bundle over the same five arrays,
    cached by the owning engine; without it the views are built here.
    """
    import numpy as np

    from repro.exceptions import InvariantViolationError

    ids = dyn.ids
    r_index = dyn.index(r)
    if views is None:
        old_mv = memoryview(old_dist)
        new_mv = memoryview(new_dist)
        landmark_mv = memoryview(is_landmark)
        covered_mv = memoryview(covered)
        has_mv = memoryview(has_entry)
    else:
        old_mv, new_mv, landmark_mv, covered_mv, has_mv = views
    indptr, base_len, indices, delta, delta_count = dyn.scalar_views()

    # "A border parent at the right depth covers its child" depends only
    # on landmark membership and r-entry presence — and repair never
    # touches a border vertex's r-entry — so for the vectorized levels
    # the whole predicate collapses into one per-vertex vector, computed
    # lazily (small updates never pay the O(n) ops).  ``r`` itself never
    # covers: a shortest path whose only landmark is r is exactly what an
    # r-entry witnesses.
    border_covers = None

    for depth, verts in levels:
        parent_depth = depth - 1
        if isinstance(verts, list):
            for v in verts:
                if landmark_mv[v]:
                    covered_mv[v] = 1
                    if stats is not None and highway_cells[v] != depth:
                        stats.highway_updates += 1
                    continue
                is_covered = False
                has_parent = False
                start = indptr[v]
                neighbours = indices[start : start + base_len[v]]
                if delta_count[v]:
                    neighbours = list(neighbours) + delta[v]
                for u in neighbours:
                    du = new_mv[u]
                    if du >= 0:
                        if du != parent_depth:
                            continue
                        has_parent = True
                        if covered_mv[u]:
                            is_covered = True
                            break
                        continue
                    if u == r_index:
                        if parent_depth == 0:
                            has_parent = True
                        continue
                    if old_mv[u] != parent_depth:
                        continue
                    has_parent = True
                    if landmark_mv[u] or not has_mv[u]:
                        is_covered = True
                        break
                if not has_parent:
                    raise InvariantViolationError(
                        f"affected vertex {int(ids[v])} at new depth {depth} "
                        f"(landmark {r}) has no shortest-path parent — "
                        f"labelling out of sync with graph"
                    )
                if is_covered:
                    covered_mv[v] = 1
                    if has_mv[v]:
                        has_mv[v] = 0
                        if stats is not None:
                            stats.entries_removed += 1
                else:
                    if stats is not None:
                        if has_mv[v]:
                            stats.entries_modified += 1
                        else:
                            stats.entries_added += 1
                    has_mv[v] = 1
            continue

        lm_mask = is_landmark[verts]
        level_landmarks = verts[lm_mask]
        if level_landmarks.size:
            covered[level_landmarks] = 1
            if stats is not None:
                stats.highway_updates += sum(
                    highway_cells[v] != depth for v in level_landmarks.tolist()
                )
        others = verts[~lm_mask]
        if others.size == 0:
            continue
        if border_covers is None:
            border_covers = is_landmark | (has_entry == 0)
            border_covers[r_index] = False
        position, nbrs = dyn.gather_with_positions(others)
        nd = new_dist[nbrs]
        affected_parent = nd == parent_depth
        # r itself classifies uniformly: it is unaffected with old
        # distance 0, so it parents exactly the depth-1 vertices — the
        # dict kernel's explicit r-branch — and never covers (above).
        unaffected_parent = (nd < 0) & (old_dist[nbrs] == parent_depth)
        parent = affected_parent | unaffected_parent
        contrib = (affected_parent & (covered[nbrs] != 0)) | (
            unaffected_parent & border_covers[nbrs]
        )
        has_parent_v = np.zeros(len(others), dtype=bool)
        has_parent_v[position[parent]] = True
        if not has_parent_v.all():
            v = int(others[~has_parent_v][0])
            raise InvariantViolationError(
                f"affected vertex {int(ids[v])} at new depth {depth} "
                f"(landmark {r}) has no shortest-path parent — labelling "
                f"out of sync with graph"
            )
        covered_v = np.zeros(len(others), dtype=bool)
        covered_v[position[contrib]] = True
        covered_verts = others[covered_v]
        if covered_verts.size:
            covered[covered_verts] = 1
            if stats is not None:
                stats.entries_removed += int(
                    np.count_nonzero(has_entry[covered_verts])
                )
            has_entry[covered_verts] = 0
        uncovered_verts = others[~covered_v]
        if uncovered_verts.size:
            if stats is not None:
                modified = int(np.count_nonzero(has_entry[uncovered_verts]))
                stats.entries_added += uncovered_verts.size - modified
                stats.entries_modified += modified
            has_entry[uncovered_verts] = 1
