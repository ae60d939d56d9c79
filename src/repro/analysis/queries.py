"""Query-cost decomposition over a workload of vertex pairs.

Section 6.1.3 of the paper attributes query time to labelling size and
explains the stability of IncHL+'s query times by the stability of its
labelling.  This module measures the mechanism directly: for a sample of
queries, how much label-join work was done, how often the bound ``d⊤``
alone was already exact (a shortest path met a landmark — the fraction
the highway cover actually covers), and how often the bounded sparsified
search improved on it, on the reference kernels of :mod:`repro.core.query`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.labelling import HighwayCoverLabelling
from repro.core.query import landmark_distance, upper_bound
from repro.exceptions import VertexNotFoundError
from repro.graph.traversal import INF, bidirectional_bfs

__all__ = [
    "QueryCostProfile",
    "QueryProbe",
    "query_cost_profile",
    "query_distance_probed",
]


@dataclass(frozen=True)
class QueryProbe:
    """Cost decomposition of one ``Q(u, v, Γ)`` evaluation: the label-join
    work behind ``d⊤`` and whether the bounded sparsified search improved
    on the bound."""

    distance: float
    bound: float
    label_join_ops: int
    landmark_endpoint: bool
    search_won: bool

    @property
    def bound_was_exact(self) -> bool:
        """Whether ``d⊤`` alone was the (finite) answer — some shortest
        path met a landmark.  A disconnected pair is never bound-exact."""
        return self.distance == self.bound != INF


def query_distance_probed(
    graph, labelling: HighwayCoverLabelling, u: int, v: int
) -> QueryProbe:
    """``Q(u, v, Γ)`` with its cost decomposition, on the reference
    kernels (same answer as :func:`repro.core.query.query_distance`)."""
    for w in (u, v):
        if not graph.has_vertex(w):
            raise VertexNotFoundError(w)
    if u == v:
        return QueryProbe(0, 0, 0, False, False)
    landmark_set = labelling.landmark_set
    label_size = labelling.labels.label_size
    if u in landmark_set or v in landmark_set:
        r, w = (u, v) if u in landmark_set else (v, u)
        distance = landmark_distance(labelling, r, w)
        return QueryProbe(distance, distance, label_size(w) or 1, True, False)
    bound = upper_bound(labelling, u, v)
    sparsified = bidirectional_bfs(graph, u, v, bound=bound, skip=landmark_set)
    return QueryProbe(
        distance=sparsified if sparsified < bound else bound,
        bound=bound,
        label_join_ops=label_size(u) * label_size(v),
        landmark_endpoint=False,
        search_won=sparsified < bound,
    )


@dataclass(frozen=True)
class QueryCostProfile:
    """Aggregated cost decomposition of a query workload.

    Every query lands in exactly one of three outcomes, so
    ``bound_exact + search_won + unreachable == num_queries``: the bound
    ``d⊤`` alone was the (finite) answer, the sparsified search beat it,
    or the pair is disconnected.  Landmark-endpoint and ``u == v``
    queries count as bound-exact when reachable.
    """

    num_queries: int
    landmark_endpoint_queries: int
    bound_exact_queries: int
    search_won_queries: int
    mean_label_join_ops: float
    unreachable_queries: int

    @property
    def bound_exact_fraction(self) -> float:
        """Fraction of queries the label bound alone answered exactly —
        the empirical coverage of the highway cover."""
        if self.num_queries == 0:
            return 0.0
        return self.bound_exact_queries / self.num_queries

    @property
    def search_won_fraction(self) -> float:
        """Fraction where the sparsified search beat the bound (the
        landmark-free shortest-path case)."""
        if self.num_queries == 0:
            return 0.0
        return self.search_won_queries / self.num_queries


def query_cost_profile(
    graph,
    labelling: HighwayCoverLabelling,
    pairs: Sequence[tuple[int, int]],
) -> QueryCostProfile:
    """Probe every pair and aggregate the cost decomposition."""
    probes = [query_distance_probed(graph, labelling, u, v) for u, v in pairs]
    n = len(probes)
    return QueryCostProfile(
        num_queries=n,
        landmark_endpoint_queries=sum(p.landmark_endpoint for p in probes),
        bound_exact_queries=sum(p.bound_was_exact for p in probes),
        search_won_queries=sum(p.search_won for p in probes),
        mean_label_join_ops=sum(p.label_join_ops for p in probes) / n if n else 0.0,
        unreachable_queries=sum(p.distance == INF for p in probes),
    )
