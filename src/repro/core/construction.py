"""Static construction of a minimal highway cover labelling.

Implements the construction of Farhan et al. (EDBT 2019) that the paper
builds on, in the formulation used by Theorem 5.2's minimality argument:

    the entry ``(r, d_G(r, v))`` belongs to ``L(v)`` **iff** ``v ∉ R`` and
    no shortest path between ``r`` and ``v`` contains a landmark other
    than ``r``.

One *full* BFS per landmark carries a boolean "some shortest path to here
passes through another landmark" flag across the shortest-path DAG; a vertex
is labelled iff its flag stays false.  A full (unpruned) BFS keeps every
landmark-pair distance exact, so the highway needs no separate pass.  Total
cost ``O(|R| (n + m))``; independent of landmark order (the flag of a vertex
depends only on the DAG, not on processing order) — matching the labelling's
order-independence property.

The per-landmark BFS kernel itself lives in
:func:`repro.core.sweeps.landmark_sweep`; each sweep is merged into the
shared stores in landmark order.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.highway import Highway
from repro.core.labelling import HighwayCoverLabelling
from repro.core.labels import LabelStore
from repro.exceptions import GraphError, VertexNotFoundError
from repro.core.sweeps import landmark_sweep, merge_sweep

__all__ = ["build_hcl"]


def build_hcl(
    graph,
    landmarks: Sequence[int] | Iterable[int],
) -> HighwayCoverLabelling:
    """Build the minimal highway cover labelling of ``graph`` for ``landmarks``.

    >>> from repro.graph.generators import ring_of_cliques
    >>> g = ring_of_cliques(3, 4)
    >>> gamma = build_hcl(g, [0, 4])
    >>> gamma.highway.distance(0, 4)
    2
    """
    landmark_list = list(landmarks)
    if not landmark_list:
        raise GraphError("at least one landmark is required")
    for r in landmark_list:
        if not graph.has_vertex(r):
            raise VertexNotFoundError(r)

    highway = Highway(landmark_list)
    labels = LabelStore()
    landmark_set = highway.landmark_set
    adj = graph.adjacency()

    for r in landmark_list:
        _labelling_bfs(adj, r, landmark_set, highway, labels)
    return HighwayCoverLabelling(highway, labels)


def _labelling_bfs(
    adj: dict[int, list[int]],
    r: int,
    landmark_set: frozenset[int],
    highway: Highway,
    labels: LabelStore,
) -> None:
    """One in-place labelling BFS from landmark ``r`` (single-landmark form).

    Thin wrapper over the pure kernel that merges one landmark's sweep
    into live stores (construction, decremental rebuilds, landmark
    maintenance).  Precondition: ``r`` currently has no label entries —
    a fresh landmark, or one whose row/entries were just cleared.
    """
    merge_sweep(highway, labels, landmark_sweep(adj, r, landmark_set))
