"""Decremental updates — the paper's stated future work, as an extension.

Section 7: "In future, we plan to further investigate the effects of
decremental updates on graphs since they are also commonly used in
practice."  This module provides a *correct* decremental maintenance so the
library supports fully dynamic graphs; it deliberately favours simplicity
over the per-vertex surgery an IncHL+-style decrement would need.

Strategy
--------
Deleting edge ``(a, b)`` can only change the labelling w.r.t. a landmark
``r`` if some *old* shortest path from ``r`` ran through the edge, which
requires ``|d_G(r,a) - d_G(r,b)| == 1`` (consecutive BFS levels).  For each
such *relevant* landmark the labelling is recomputed by one fresh labelling
BFS (clearing the old row/entries first); irrelevant landmarks keep their
rows and entries untouched — their shortest-path sets are provably
unchanged.  Cost: ``O(|R_relevant| (n + m))`` per deletion, against
``O(|R| (n + m))`` for a full rebuild.

Note the subtlety that makes decremental updates genuinely harder than
incremental ones (and why the paper deferred them): a deletion can force
entries to be *added* — destroying the only shortest path that passed
through another landmark un-covers a vertex — so repairing cannot be
confined to vertices whose distance changed.  The per-landmark rebuild
sidesteps that case soundly, and the test-suite verifies equality with a
from-scratch rebuild after random deletion sequences.
"""

from __future__ import annotations

from repro.core.construction import _labelling_bfs
from repro.core.labelling import HighwayCoverLabelling
from repro.core.query import landmark_distance
from repro.exceptions import InvariantViolationError

__all__ = ["apply_edge_deletion", "relevant_landmarks_for_deletion"]


def relevant_landmarks_for_deletion(
    labelling: HighwayCoverLabelling, a: int, b: int
) -> list[int]:
    """Landmarks whose shortest-path DAG may contain the edge ``(a, b)``.

    Evaluated on the *pre-deletion* labelling: landmark queries are exact
    (Eq. 1), and only landmarks with ``|d(r,a) - d(r,b)| == 1`` can route a
    shortest path through the edge.
    """
    relevant = []
    for r in labelling.landmarks:
        da = landmark_distance(labelling, r, a)
        db = landmark_distance(labelling, r, b)
        if da == db:
            # Equal (including both unreachable): BFS levels coincide, so no
            # shortest path can traverse the edge.
            continue
        if da + 1 == db or db + 1 == da:
            relevant.append(r)
    return relevant


def apply_edge_deletion(
    graph,
    labelling: HighwayCoverLabelling,
    a: int,
    b: int,
) -> list[int]:
    """Remove edge ``(a, b)`` from ``graph`` and repair the labelling.

    The edge must be present; returns the landmarks that were recomputed.
    Rebuild sweeps read only the post-deletion adjacency, so they are
    independent; all relevant rows are cleared up front, then the sweeps
    merge back in landmark order — any highway cell two rebuilds both
    touch is written with the same exact distance.
    """
    if not graph.has_edge(a, b):
        raise InvariantViolationError(
            f"apply_edge_deletion expects edge ({a}, {b}) to be present"
        )
    relevant = relevant_landmarks_for_deletion(labelling, a, b)
    graph.remove_edge(a, b)
    if not relevant:
        return relevant
    adj = graph.adjacency()
    landmark_set = labelling.landmark_set
    highway = labelling.highway
    labels = labelling.labels
    for r in relevant:
        labels.clear_landmark(r)
        highway.clear_row(r)
    for r in relevant:
        _labelling_bfs(adj, r, landmark_set, highway, labels)
    return relevant
