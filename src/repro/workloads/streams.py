"""Typed update streams: mixed insert/delete workloads and replay.

The paper evaluates pure insertion streams (Section 6, "Updates and
queries"); its conclusion names decremental updates as future work.  This
module generates the richer workloads the extensions need:

* :func:`insertion_stream` — the paper's workload as events;
* :func:`mixed_stream` — interleaved insertions and deletions at a
  configurable ratio (deletions pick live edges, insertions pick live
  non-edges, both against the *evolving* graph);
* :func:`densification_stream` — preferential-attachment-biased
  insertions, modelling the densification law the paper cites for why
  real networks mainly grow [Leskovec et al., TKDD 2007];
* :func:`sliding_window_stream` — each arrival inserts a fresh edge and
  evicts the oldest live one, the bounded-memory streaming model;
* :func:`replay` — drive any oracle with a stream, timing each event.

All generators are deterministic under a seed and validate against the
provided graph *simulation* so that a generated stream is always
applicable in order (no duplicate inserts, no deletes of absent edges).
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from time import perf_counter

from repro.exceptions import WorkloadError
from repro.utils.rng import ensure_rng

__all__ = [
    "UpdateEvent",
    "valid_vertex_id",
    "ReplayRecord",
    "insertion_stream",
    "mixed_stream",
    "densification_stream",
    "sliding_window_stream",
    "replay",
    "split_events",
]

INSERT = "insert"
DELETE = "delete"


def valid_vertex_id(x) -> bool:
    """Whether ``x`` may name a vertex: an int in ``[0, 2**63)``, the
    range of the int64 ids the graph stores (checked *before* any graph
    mutation, so a half-valid event can never leave side effects)."""
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < 2**63


@dataclass(frozen=True)
class UpdateEvent:
    """One update: ``kind`` is ``"insert"`` or ``"delete"``."""

    kind: str
    edge: tuple[int, int]

    def __post_init__(self) -> None:
        if self.kind not in (INSERT, DELETE):
            raise WorkloadError(f"unknown event kind {self.kind!r}")

    @property
    def is_insert(self) -> bool:
        """Whether this event is an insertion."""
        return self.kind == INSERT


@dataclass(frozen=True)
class ReplayRecord:
    """Timing of one replayed event."""

    event: UpdateEvent
    seconds: float


def _sample_non_edge(
    graph_sim: "_GraphSimulation", rng: random.Random, max_tries: int = 200
) -> tuple[int, int] | None:
    vertices = graph_sim.vertex_list
    for _ in range(max_tries):
        u = rng.choice(vertices)
        v = rng.choice(vertices)
        if u != v and not graph_sim.has_edge(u, v):
            return (u, v) if u < v else (v, u)
    return None


class _GraphSimulation:
    """A cheap edge-set mirror of the evolving graph.

    Stream generation must not mutate the caller's graph, so the
    generators evolve this simulation instead and emit events the real
    graph can replay in order.
    """

    def __init__(self, graph) -> None:
        self.vertex_list = sorted(graph.vertices())
        self.edges = {self._key(u, v) for u, v in graph.edges()}
        self.degrees = {v: graph.degree(v) for v in self.vertex_list}

    @staticmethod
    def _key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def has_edge(self, u: int, v: int) -> bool:
        return self._key(u, v) in self.edges

    def insert(self, u: int, v: int) -> None:
        self.edges.add(self._key(u, v))
        self.degrees[u] += 1
        self.degrees[v] += 1

    def delete(self, u: int, v: int) -> None:
        self.edges.remove(self._key(u, v))
        self.degrees[u] -= 1
        self.degrees[v] -= 1


def insertion_stream(
    graph, count: int, rng: int | random.Random | None = None
) -> list[UpdateEvent]:
    """``count`` edge-insertion events with ``EI ∩ E = ∅`` (Section 6).

    Later insertions avoid earlier ones as well as the original edges, so
    the stream replays without duplicates.
    """
    rng = ensure_rng(rng)
    sim = _GraphSimulation(graph)
    events: list[UpdateEvent] = []
    for _ in range(count):
        edge = _sample_non_edge(sim, rng)
        if edge is None:
            raise WorkloadError(
                f"graph too dense to sample {count} distinct non-edges"
            )
        sim.insert(*edge)
        events.append(UpdateEvent(INSERT, edge))
    return events


def mixed_stream(
    graph,
    count: int,
    insert_ratio: float = 0.8,
    rng: int | random.Random | None = None,
) -> list[UpdateEvent]:
    """Interleaved insert/delete events against the evolving graph.

    ``insert_ratio`` is the probability of an insertion per event (the
    paper observes real networks are insertion-dominated, so the default
    is biased accordingly).  Deletions never remove an original-graph
    bridge blindly — they pick uniformly among *live* edges, which may
    disconnect the graph; that is intended, the decremental algorithms
    must handle it.
    """
    if not 0.0 <= insert_ratio <= 1.0:
        raise WorkloadError(f"insert_ratio must be in [0, 1], got {insert_ratio}")
    rng = ensure_rng(rng)
    sim = _GraphSimulation(graph)
    events: list[UpdateEvent] = []
    for _ in range(count):
        do_insert = rng.random() < insert_ratio or not sim.edges
        if do_insert:
            edge = _sample_non_edge(sim, rng)
            if edge is None:
                do_insert = False  # dense graph: fall back to a deletion
        if do_insert:
            sim.insert(*edge)
            events.append(UpdateEvent(INSERT, edge))
        else:
            if not sim.edges:
                raise WorkloadError("no edges left to delete")
            edge = rng.choice(sorted(sim.edges))
            sim.delete(*edge)
            events.append(UpdateEvent(DELETE, edge))
    return events


def densification_stream(
    graph, count: int, rng: int | random.Random | None = None
) -> list[UpdateEvent]:
    """Degree-biased insertion events (densification / rich-get-richer).

    Each event picks both endpoints with probability proportional to
    their *current* degree plus one, then retries until the pair is a
    non-edge — a discrete-time approximation of the densification power
    law on a fixed vertex set.
    """
    rng = ensure_rng(rng)
    sim = _GraphSimulation(graph)
    events: list[UpdateEvent] = []

    def weighted_vertex() -> int:
        total = sum(sim.degrees[v] + 1 for v in sim.vertex_list)
        target = rng.random() * total
        acc = 0.0
        for v in sim.vertex_list:
            acc += sim.degrees[v] + 1
            if acc >= target:
                return v
        return sim.vertex_list[-1]

    for _ in range(count):
        edge = None
        for _ in range(200):
            u, v = weighted_vertex(), weighted_vertex()
            if u != v and not sim.has_edge(u, v):
                edge = (u, v) if u < v else (v, u)
                break
        if edge is None:
            raise WorkloadError(
                f"graph too dense to sample {count} degree-biased non-edges"
            )
        sim.insert(*edge)
        events.append(UpdateEvent(INSERT, edge))
    return events


def sliding_window_stream(
    graph,
    count: int,
    window: int | None = None,
    rng: int | random.Random | None = None,
) -> list[UpdateEvent]:
    """Insert a fresh edge per step; evict the oldest once ``window`` is full.

    The classic bounded-memory streaming model: the first ``window``
    events are pure insertions, after which every step emits an insert
    *and* a delete (the oldest live inserted edge).  ``window`` defaults
    to ``count // 2``.
    """
    if window is None:
        window = max(1, count // 2)
    if window < 1:
        raise WorkloadError(f"window must be >= 1, got {window}")
    rng = ensure_rng(rng)
    sim = _GraphSimulation(graph)
    live: deque[tuple[int, int]] = deque()
    events: list[UpdateEvent] = []
    for _ in range(count):
        edge = _sample_non_edge(sim, rng)
        if edge is None:
            raise WorkloadError("graph too dense for a sliding-window stream")
        sim.insert(*edge)
        live.append(edge)
        events.append(UpdateEvent(INSERT, edge))
        if len(live) > window:
            old = live.popleft()
            sim.delete(*old)
            events.append(UpdateEvent(DELETE, old))
    return events


def replay(oracle, events: Iterable[UpdateEvent]) -> list[ReplayRecord]:
    """Apply a stream to an oracle, timing each event.

    The oracle must expose ``insert_edge(u, v)`` and ``remove_edge(u, v)``
    (:class:`~repro.core.dynamic.DynamicHCL` and the baseline oracles do).
    """
    records: list[ReplayRecord] = []
    for event in events:
        u, v = event.edge
        start = perf_counter()
        if event.is_insert:
            oracle.insert_edge(u, v)
        else:
            oracle.remove_edge(u, v)
        records.append(ReplayRecord(event, perf_counter() - start))
    return records


def split_events(
    events: Sequence[UpdateEvent],
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Partition a stream into (insertions, deletions) edge lists."""
    inserts = [e.edge for e in events if e.is_insert]
    deletes = [e.edge for e in events if not e.is_insert]
    return inserts, deletes
