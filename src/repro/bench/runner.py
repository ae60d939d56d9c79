"""Shared experiment plumbing: build oracles, time update/query batches.

Every experiment follows the paper's protocol: instantiate a dataset,
build each method's index on it, replay the *same* update stream through
each method (timing per update), then the same query stream (timing per
query), and finally read off index sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.baselines.fd import FullDynamicOracle
from repro.baselines.incpll import IncPLL
from repro.core.dynamic import DynamicHCL
from repro.core.inchl import apply_edge_insertion
from repro.exceptions import ConstructionBudgetExceeded
from repro.graph.dynamic_graph import DynamicGraph
from repro.utils.timing import Stopwatch, TimingStats
from repro.workloads.datasets import DatasetSpec

__all__ = [
    "OracleFactory",
    "BuiltOracle",
    "build_oracles",
    "PaperInsert",
    "paper_insert",
    "time_updates",
    "time_queries",
]


@dataclass(frozen=True)
class OracleFactory:
    """How to build one method's oracle for a dataset."""

    name: str
    build: Callable[[DynamicGraph, DatasetSpec], object]


@dataclass
class BuiltOracle:
    """A constructed oracle plus its build time; ``oracle=None`` records an
    honest construction failure (the paper's '-' cells)."""

    name: str
    oracle: object | None
    build_seconds: float
    failure: str | None = None


def _build_inchl(graph: DynamicGraph, spec: DatasetSpec) -> DynamicHCL:
    return DynamicHCL.build(graph, num_landmarks=spec.num_landmarks)


def _build_incfd(graph: DynamicGraph, spec: DatasetSpec) -> FullDynamicOracle:
    return FullDynamicOracle(graph, num_landmarks=spec.num_landmarks)


def default_factories(pll_budget_s: float | None = None) -> list[OracleFactory]:
    """The paper's three methods, in Table 1 column order."""

    def build_incpll(graph: DynamicGraph, spec: DatasetSpec) -> IncPLL:
        """IncPLL oracle factory honouring the construction budget."""
        if not spec.pll_feasible:
            raise ConstructionBudgetExceeded(
                f"IncPLL on {spec.name} (mirrors the paper: IncPLL fails on "
                f"7 of 12 datasets)", 0.0,
            )
        return IncPLL(graph, time_budget_s=pll_budget_s)

    return [
        OracleFactory("IncHL+", _build_inchl),
        OracleFactory("IncFD", _build_incfd),
        OracleFactory("IncPLL", build_incpll),
    ]


def build_oracles(
    spec: DatasetSpec,
    graph: DynamicGraph,
    factories: list[OracleFactory],
) -> list[BuiltOracle]:
    """Build every method on its own *copy* of ``graph`` (updates must not
    leak between methods), recording build times and honest failures."""
    built = []
    for factory in factories:
        working_copy = graph.copy()
        try:
            with Stopwatch() as sw:
                oracle = factory.build(working_copy, spec)
        except ConstructionBudgetExceeded as exc:
            built.append(
                BuiltOracle(factory.name, None, 0.0, failure=str(exc))
            )
            continue
        built.append(BuiltOracle(factory.name, oracle, sw.elapsed))
    return built


class PaperInsert:
    """The paper's IncHL+ on a detached graph and labelling.

    Each call adds the edge to :attr:`graph`, then runs
    :func:`repro.core.inchl.apply_edge_insertion` on :attr:`labelling`;
    both are copies materialized from the oracle once.  The oracle itself
    does not see these insertions: once the stream is done,
    :meth:`oracle` seeds a new oracle from the kernel's result.
    """

    def __init__(self, oracle: DynamicHCL) -> None:
        self.graph = oracle.graph.copy()
        self.labelling = oracle.labelling

    def __call__(self, u: int, v: int):
        self.graph.add_edge(u, v)
        return apply_edge_insertion(self.graph, self.labelling, u, v)

    def oracle(self) -> DynamicHCL:
        """An oracle for the graph and labelling as the kernel left them."""
        return DynamicHCL(self.graph, self.labelling)


def paper_insert(oracle) -> Callable[[int, int], object]:
    """The per-edge insertion the reproduction times for ``oracle``.

    Baselines time their own ``insert_edge``.  ``DynamicHCL`` updates run
    on the vectorized engine, so for IncHL+ this returns the paper's
    Python kernel instead, as a :class:`PaperInsert`.
    """
    if not isinstance(oracle, DynamicHCL):
        return oracle.insert_edge
    return PaperInsert(oracle)


def time_updates(
    insert: Callable[[int, int], object], insertions: list[tuple[int, int]]
) -> TimingStats:
    """Apply the edge-insertion stream through ``insert(u, v)``, timing
    each update individually."""
    stats = TimingStats()
    for u, v in insertions:
        stats.time(insert, u, v)
    return stats


def time_queries(oracle, pairs: list[tuple[int, int]]) -> TimingStats:
    """Answer the query stream, timing each query individually."""
    stats = TimingStats()
    for u, v in pairs:
        stats.time(oracle.query, u, v)
    return stats


def fresh_rng(seed_parts: tuple) -> random.Random:
    """Deterministic RNG derived from hashable experiment coordinates."""
    return random.Random(hash(seed_parts) & 0x7FFFFFFF)
