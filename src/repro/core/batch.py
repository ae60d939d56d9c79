"""Batch edge insertion — one find/repair sweep per landmark.

The paper's model is strictly online: IncHL+ repairs the labelling after
*each* edge insertion, so a batch of ``k`` edges costs ``k`` per-landmark
sweeps.  Real update streams often arrive in bursts (the scalability test
of Figure 4 replays 10,000 insertions), and the affected regions of
nearby insertions overlap heavily.  This module generalizes Algorithms
2–3 to a *set* of inserted edges so each landmark pays one combined sweep:

* **Find** becomes a multi-seed jumped BFS driven by a bucket queue keyed
  on candidate depth.  Every inserted edge ``(x, y)`` seeds both
  orientations with ``old(x) + 1`` (kept only when ``≤ old(y)`` —
  the batch form of Lemma 4.4; the single-edge skip rule
  ``d_G(r,a) = d_G(r,b) ⇒ Λ_r = ∅`` falls out as the seed being
  discarded).  Processing buckets in increasing depth handles the
  interaction the sequential algorithm never sees: a seed's anchor
  distance may itself drop because of *another* edge in the batch, which
  the queue discovers before the stale seed is popped.
* **Repair** is unchanged: the combined affected set with exact new
  distances and recorded border distances is exactly the
  :class:`~repro.core.inchl.AffectedSearch` shape, so the batch reuses
  :func:`repro.core.inchl.repair_affected` verbatim.

The result is *identical* to applying the edges one at a time (both equal
the canonical minimal labelling of the final graph); the test-suite
asserts this, and the ablation benchmark measures the sweep-sharing win.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.dechl import apply_edge_deletion_partial
from repro.core.inchl import (
    AffectedSearch,
    UpdateStats,
    apply_edge_insertion,
    repair_affected,
)
from repro.core.labelling import HighwayCoverLabelling
from repro.core.query import landmark_distance
from repro.exceptions import InvariantViolationError
from repro.graph.traversal import INF

__all__ = [
    "BatchUpdateStats",
    "MixedUpdateStats",
    "replay_events",
    "find_affected_batch",
    "apply_edge_insertions_batch",
]


class BatchUpdateStats(UpdateStats):
    """Statistics of one batch update; ``edge`` holds the first edge and
    :attr:`edges` the whole batch."""

    def __init__(self, edges: Sequence[tuple[int, int]]) -> None:
        super().__init__(edge=edges[0], affected_per_landmark={})
        self.edges = list(edges)

    @property
    def batch_size(self) -> int:
        """Number of edges in this batch."""
        return len(self.edges)


class MixedUpdateStats(UpdateStats):
    """Statistics of one mixed insert/delete batch.

    ``inserts``/``deletes`` hold the batch's net edge sets;
    ``disconnected`` counts (landmark, vertex) pairs the batch cut off.
    The inherited counters aggregate the per-landmark repairs exactly as
    for pure insertion batches.
    """

    def __init__(
        self,
        inserts: Sequence[tuple[int, int]],
        deletes: Sequence[tuple[int, int]],
    ) -> None:
        self.inserts = [tuple(e) for e in inserts]
        self.deletes = [tuple(e) for e in deletes]
        edges = self.inserts or self.deletes
        super().__init__(
            edge=edges[0] if edges else (-1, -1), affected_per_landmark={}
        )
        self.disconnected = 0

    @property
    def batch_size(self) -> int:
        """Number of net events in this batch."""
        return len(self.inserts) + len(self.deletes)


def replay_events(graph, labelling: HighwayCoverLabelling, events) -> MixedUpdateStats:
    """The paper's one-change-at-a-time replay of an insert/delete stream.

    ``events`` are :class:`~repro.workloads.streams.UpdateEvent` objects
    or plain ``(kind, (u, v))`` pairs; each one is repaired on its own,
    insertions by IncHL+ (:func:`~repro.core.inchl.apply_edge_insertion`)
    and deletions by DecHL
    (:func:`~repro.core.dechl.apply_edge_deletion_partial`).  The two
    kernels split the graph mutation differently: DecHL removes the edge
    itself, IncHL+ expects it already present, so the edge is added here
    first.  Nothing is validated — the events must be applicable in
    order.  This is the reference the vectorized engine behind
    :meth:`repro.core.dynamic.DynamicHCL.apply_events_batch` is checked
    against; the per-event statistics are summed into one
    :class:`MixedUpdateStats` listing every event.
    """
    pairs = [(e.kind, e.edge) if hasattr(e, "kind") else e for e in events]
    stats = MixedUpdateStats(
        [edge for kind, edge in pairs if kind == "insert"],
        [edge for kind, edge in pairs if kind != "insert"],
    )
    for kind, (u, v) in pairs:
        if kind == "insert":
            graph.add_edge(u, v)
            step = apply_edge_insertion(graph, labelling, u, v)
        else:
            step = apply_edge_deletion_partial(graph, labelling, u, v)
        for r, count in step.affected_per_landmark.items():
            stats.affected_per_landmark[r] = (
                stats.affected_per_landmark.get(r, 0) + count
            )
        stats.affected_union += step.affected_union
        stats.entries_added += step.entries_added
        stats.entries_modified += step.entries_modified
        stats.entries_removed += step.entries_removed
        stats.highway_updates += step.highway_updates
    return stats


def find_affected_batch(
    graph,
    labelling: HighwayCoverLabelling,
    r: int,
    seeds: Sequence[tuple[int, int, float]],
) -> AffectedSearch:
    """Multi-seed FindAffected w.r.t. landmark ``r``.

    ``seeds`` are ``(anchor, root, anchor_dist)`` triples, one per
    orientation of an inserted edge that survives the Lemma 4.4 filter
    (``anchor_dist + 1 <= old(root)``).  ``graph`` must already contain
    every inserted edge; ``labelling`` must be pristine w.r.t. ``r``.

    Returns the union affected set with exact new distances, plus the old
    distances of all scanned unaffected border vertices — the same
    contract as the single-edge :func:`repro.core.inchl.find_affected`.
    """
    adj = graph.adjacency()
    labels = labelling.labels
    highway = labelling.highway
    row = highway.row(r)
    landmark_set = highway.landmark_set

    search = AffectedSearch(landmark=r)
    new_dist = search.new_dist
    border_old = search.border_old

    def old_distance(w: int) -> float:
        # Inline landmark_distance — the batch-update hot path.
        if w == r:
            return 0.0
        if w in landmark_set:
            return row.get(w, INF)
        best = INF
        for ri, delta in labels.label(w).items():
            via = row.get(ri)
            if via is not None and via + delta < best:
                best = via + delta
        return best

    # Bucket queue keyed by candidate depth.  Unit edge weights mean a
    # popped depth never exceeds pending depths by more than one, but
    # seeds may start at arbitrary depths, so a dict-of-buckets swept in
    # increasing key order is the simplest monotone structure.
    buckets: dict[int, list[int]] = {}
    for anchor, root, anchor_dist in seeds:
        border_old.setdefault(anchor, anchor_dist)
        depth = int(anchor_dist) + 1
        buckets.setdefault(depth, []).append(root)

    while buckets:
        depth = min(buckets)
        frontier = buckets.pop(depth)
        next_depth = depth + 1
        settled: list[int] = []
        for v in frontier:
            known = new_dist.get(v)
            if known is not None and known <= depth:
                continue  # already settled at this or a smaller depth
            # A seed can still be stale: its root may have been reached
            # more cheaply through another inserted edge.  The bucket
            # order guarantees the cheaper path was settled first, so the
            # stale candidate is simply skipped above; the remaining case
            # is the Lemma 4.3 test against the old distance.
            if old_distance(v) < depth:
                border_old.setdefault(v, old_distance(v))
                continue
            new_dist[v] = depth
            settled.append(v)
        if not settled:
            continue
        bucket = buckets.setdefault(next_depth, [])
        for v in settled:
            for w in adj[v]:
                known = new_dist.get(w)
                if known is not None and known <= next_depth:
                    continue
                old = border_old.get(w)
                if old is None:
                    old = old_distance(w)
                if old >= next_depth:
                    bucket.append(w)
                else:
                    border_old.setdefault(w, old)
        if not bucket:
            del buckets[next_depth]
    # Seeds recorded as borders that later turned out affected are noise;
    # repair reads borders only for unaffected vertices, but keep the
    # invariant tight anyway.
    for v in new_dist:
        border_old.pop(v, None)
    return search


def apply_edge_insertions_batch(
    graph,
    labelling: HighwayCoverLabelling,
    edges: Iterable[tuple[int, int]],
) -> BatchUpdateStats:
    """IncHL+ for a batch of edge insertions, one sweep per landmark.

    ``graph`` must already contain every edge of the batch (it is ``G'``);
    the labelling is updated in place from a valid minimal labelling of
    ``G`` to a valid minimal labelling of ``G'`` — the same postcondition
    as ``k`` sequential :func:`~repro.core.inchl.apply_edge_insertion`
    calls, at one find/repair sweep per landmark instead of ``k``.

    Every Phase B find reads only the post-insertion graph and the
    pristine labelling, so all finds run before any Phase C repair; the
    repairs commute and are applied in landmark order.
    """
    edge_list = [(int(a), int(b)) for a, b in edges]
    if not edge_list:
        raise InvariantViolationError("batch insertion needs at least one edge")
    for a, b in edge_list:
        if not graph.has_edge(a, b):
            raise InvariantViolationError(
                f"apply_edge_insertions_batch expects edge ({a}, {b}) to be "
                f"present in the graph (G') before the labelling update"
            )

    stats = BatchUpdateStats(edge_list)

    # Phase A: snapshot old endpoint distances per landmark on the
    # pristine labelling and keep the seed orientations that can carry a
    # new shortest path (batch Lemma 4.4).
    plans: dict[int, list[tuple[int, int, float]]] = {}
    for r in labelling.landmarks:
        seeds: list[tuple[int, int, float]] = []
        for a, b in edge_list:
            da = landmark_distance(labelling, r, a)
            db = landmark_distance(labelling, r, b)
            # A seed anchor must be reachable: inf + 1 <= inf would
            # otherwise seed components the landmark cannot reach at all.
            if da != INF and da + 1 <= db:
                seeds.append((a, b, da))
            if db != INF and db + 1 <= da:
                seeds.append((b, a, db))
        stats.affected_per_landmark[r] = 0
        if seeds:
            plans[r] = seeds

    # Phase B: all finds on the pristine labelling, before any repair.
    searches = [
        find_affected_batch(graph, labelling, r, seeds) for r, seeds in plans.items()
    ]

    # Phase C: repairs touch only r-entries, so order is irrelevant.
    union: set[int] = set()
    for search in searches:
        stats.affected_per_landmark[search.landmark] = search.num_affected
        union.update(search.new_dist)
        repair_affected(graph, labelling, search, stats)
    stats.affected_union = len(union)
    return stats
