"""DynamicHCL — the user-facing dynamic distance oracle.

Wraps the vectorized update engine
(:class:`~repro.core.inchl_fast.FastUpdateEngine`), whose CSR overlay is
the oracle's one graph and whose dense rows are its one labelling, and
maintains both through the paper's update operations plus this
repository's extensions:

* :meth:`DynamicHCL.insert_edge` — IncHL+ edge insertion (Section 4);
* :meth:`DynamicHCL.insert_vertex` — vertex insertion, decomposed into edge
  insertions (Section 3);
* :meth:`DynamicHCL.insert_edges_batch` — one find and one repair
  pass, over every landmark at once, for a whole burst of insertions;
* :meth:`DynamicHCL.remove_edge` / :meth:`DynamicHCL.remove_vertex` — the
  decremental extension (paper's future work);
* :meth:`DynamicHCL.remove_edges_batch` / :meth:`DynamicHCL.apply_events_batch`
  — fully-dynamic mixed insert/delete batches, one BatchHL-style
  combined sweep stacked over the landmarks (``docs/DESIGN.md`` §10);
* :meth:`DynamicHCL.add_landmark` / :meth:`DynamicHCL.remove_landmark` —
  online landmark-set resizing (:mod:`repro.landmarks.maintenance`);
* :meth:`DynamicHCL.shortest_path` — path extraction on top of the
  distance oracle.

Queries are answered exactly at any point between updates.  Every sweep
(construction and updates alike) runs in the calling process.

The engine's dense rows are the oracle's only labelling: by Eq. (1) the
distance rows ``d(r, ·)`` plus a label-membership mask determine
``Γ = (H, L)``.  :attr:`DynamicHCL.labelling` materializes a detached
:class:`~repro.core.labelling.HighwayCoverLabelling` from them on demand.
Likewise the engine's :class:`~repro.graph.dyncsr.DynCSR` is the oracle's
only graph: a :class:`~repro.graph.dynamic_graph.DynamicGraph` is an
input (:meth:`DynamicHCL.build`, the constructor), which updates do not
mutate, and :attr:`DynamicHCL.graph` is a read-only
:class:`~repro.serving.snapshot.FrozenGraph` over the CSR, whose
``copy()`` detaches a dict graph.

Every edge update is validated once (:meth:`DynamicHCL.check_events`,
one edge-state lookup per event) and goes through one private helper
into :meth:`~repro.core.inchl_fast.FastUpdateEngine.apply_mixed`.  The
labelling it maintains is byte-identical to the paper's Python kernels
(IncHL+ in :mod:`repro.core.inchl`, batch IncHL+ in
:mod:`repro.core.batch`, DecHL in :mod:`repro.core.dechl`), which stay
plain functions over dict graphs and labellings: the test oracle and the
timed reproduction call them directly
(:func:`repro.core.batch.replay_events` replays a mixed stream through
them).  The operations that only the reference kernels implement —
vertex removal and landmark maintenance — run the kernel on a detached
dict graph and labelling and seed a new engine from the result.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

from repro.core.construction import build_hcl
from repro.core.inchl import UpdateStats
from repro.core.inchl_fast import FastUpdateEngine
from repro.core.labelling import HighwayCoverLabelling
from repro.exceptions import (
    EdgeExistsError,
    EdgeNotFoundError,
    GraphError,
    SelfLoopError,
)
from repro.graph.dynamic_graph import DynamicGraph, check_vertex_insertion
from repro.landmarks.selection import select_landmarks
from repro.workloads.streams import valid_vertex_id

__all__ = ["CheckedEvents", "DynamicHCL"]


class CheckedEvents(list):
    """The events of one batch that :meth:`DynamicHCL.check_events`
    accepted, as ``(kind, (u, v))`` pairs in order, plus what the check
    found: ``errors`` (one :class:`GraphError` per rejected event), the
    endpoints of accepted inserts the graph does not hold yet
    (``new_vertices``), and the net edge sets ``inserts``/``deletes`` of
    the accepted events.  It stays valid for the oracle that checked it
    while that oracle's version does not move.
    """

    def __init__(self, oracle, version: int) -> None:
        super().__init__()
        self.oracle = oracle
        self.version = version
        self.errors: list[GraphError] = []
        self.new_vertices: dict[int, None] = {}
        self.inserts: list[tuple[int, int]] = []
        self.deletes: list[tuple[int, int]] = []


class DynamicHCL:
    """A dynamic graph with an incrementally maintained distance labelling.

    >>> from repro.graph.generators import grid_graph
    >>> oracle = DynamicHCL.build(grid_graph(3, 3), num_landmarks=2)
    >>> oracle.query(0, 8)
    4
    >>> _ = oracle.insert_edge(0, 8)
    >>> oracle.query(0, 8)
    1
    """

    def __init__(
        self,
        graph: DynamicGraph,
        labelling: HighwayCoverLabelling,
        owned_landmarks: Sequence[int] | None = None,
    ) -> None:
        """An oracle for ``graph`` and a labelling valid and minimal for it.

        The engine copies ``graph`` into its CSR overlay and seeds its
        rows from ``labelling`` (one BFS per landmark, one scan of the
        labels); it keeps no reference to either.
        With ``owned_landmarks`` the oracle is a landmark shard
        (:mod:`repro.core.sharding`): it maintains only those landmarks'
        rows, its queries are shard-local (exact through owned
        landmarks; the scatter-gather min over all shards is globally
        exact), and every update runs on the engine restricted to the
        owned rows.
        """
        owned = list(owned_landmarks) if owned_landmarks is not None else None
        self._setup(owned, FastUpdateEngine(
            graph, labelling.landmarks, owned=owned, labels=labelling.labels
        ))

    @classmethod
    def from_rows(
        cls,
        landmarks: Sequence[int],
        rows: tuple,
        owned_landmarks: Sequence[int] | None = None,
    ) -> "DynamicHCL":
        """An oracle attached from dense rows: ``rows=(overlay, dist,
        has_entry)`` known exact for the overlay's graph and
        ``landmarks`` — the construction sweeps, a verified checkpoint,
        or an engine's rows sliced to a shard.  The overlay becomes the
        oracle's graph.  No BFS runs and no dict graph or labelling is
        built.
        """
        oracle = cls.__new__(cls)
        owned = list(owned_landmarks) if owned_landmarks is not None else None
        oracle._setup(owned, FastUpdateEngine(
            None, landmarks, owned=owned, rows=rows
        ))
        return oracle

    def _setup(self, owned, engine) -> None:
        self._owned = owned
        self._engine = engine
        self._version = 0
        self._snapshot_cache = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: DynamicGraph,
        num_landmarks: int = 20,
        strategy: str = "degree",
        landmarks: Sequence[int] | None = None,
        rng: int | random.Random | None = None,
        construction: str = "python",
    ) -> "DynamicHCL":
        """Build the labelling for ``graph`` and wrap both in an oracle.

        Either pass explicit ``landmarks`` or let the named selection
        ``strategy`` pick ``num_landmarks`` of them (paper default: the 20
        highest-degree vertices).  ``graph`` is only read: the oracle keeps
        its own copy of it as a CSR, and updates through the oracle leave
        ``graph`` as it was.

        ``construction`` selects the builder: ``"python"`` (reference) or
        ``"csr"`` (the numpy fast path of
        :func:`repro.core.construction_fast.build_hcl_fast`; same labelling,
        much faster on large graphs).  The ``"csr"`` builder hands its
        sweeps' rows to the update engine, which attaches from them
        without a BFS of its own and without a dict labelling.
        """
        if landmarks is None:
            landmarks = select_landmarks(graph, num_landmarks, strategy, rng=rng)
        if construction == "python":
            return cls(graph, build_hcl(graph, landmarks))
        if construction == "csr":
            from repro.core.construction_fast import build_hcl_fast_rows
            from repro.graph.dyncsr import DynCSR

            csr, dist, entry = build_hcl_fast_rows(graph, landmarks)
            dyn = DynCSR.from_arrays(csr.ids, csr.indptr, csr.indices)
            return cls.from_rows(landmarks, (dyn, dist, entry))
        raise ValueError(
            f"unknown construction {construction!r}; use 'python' or 'csr'"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The graph at the current :attr:`version`: the read-only
        :class:`~repro.serving.snapshot.FrozenGraph` of :meth:`snapshot`
        (so, like it, read only from the thread that applies updates).
        Its ``copy()`` is a detached, mutable
        :class:`~repro.graph.dynamic_graph.DynamicGraph`."""
        return self.snapshot().graph

    @property
    def labelling(self) -> HighwayCoverLabelling:
        """The maintained labelling ``Γ = (H, L)``, materialized from the
        engine's rows as a fresh, detached copy: mutating it does not
        touch the oracle.  On a landmark shard it keeps the full landmark
        list but only the owned landmarks' label entries and the highway
        cells with an owned endpoint (:mod:`repro.core.sharding`)."""
        engine = self._engine
        rows = engine.owned_landmarks
        dist, entry = engine.rows(rows)
        return HighwayCoverLabelling.from_rows(
            engine.landmarks, rows, engine.dyn.ids, dist, entry
        )

    @property
    def landmarks(self) -> list[int]:
        """Landmarks ``R`` in selection order."""
        return self._engine.landmarks

    @property
    def owned_landmarks(self) -> list[int] | None:
        """The landmark subset this oracle maintains, or ``None`` when it
        is an ordinary unsharded oracle owning all of them."""
        return list(self._owned) if self._owned is not None else None

    @property
    def label_entries(self) -> int:
        """``size(L)`` — the paper's labelling-size metric (of the owned
        rows on a landmark shard)."""
        return self._engine.label_entries

    def size_bytes(self) -> int:
        """Logical labelling footprint in bytes (Table 1 accounting)."""
        return self.labelling.size_bytes()

    @property
    def version(self) -> int:
        """Monotonic update epoch: bumped once per mutating operation.

        A snapshot taken at epoch ``e`` answers queries against the graph
        exactly as it stood at ``e``; ``oracle.version > snap.epoch`` means
        the snapshot is stale (but still perfectly consistent).
        """
        return self._version

    def snapshot(self):
        """An immutable point-in-time read view of this oracle.

        Returns an :class:`repro.serving.snapshot.OracleSnapshot` pinned to
        the current :attr:`version`.  Snapshots are cheap (copies of the
        dense rows, a copy-on-write freeze of the CSR) and never
        block or observe later updates — the serving layer's readers query
        snapshots while the single writer mutates the oracle.  Repeated
        calls between updates return the same cached snapshot object.
        """
        from repro.serving.snapshot import OracleSnapshot

        cached = self._snapshot_cache
        if cached is not None and cached.epoch == self._version:
            return cached
        snap = OracleSnapshot.capture(self, cached)
        self._snapshot_cache = snap
        return snap

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, path, meta: dict | None = None) -> None:
        """Persist graph + labelling to ``path`` (a ``save_oracle`` file).

        ``meta`` rides along in the file — the cluster layer stamps the
        update-log position the checkpoint covers (``{"log_seq": N}``) so
        a replica can warm-start from the checkpoint and replay only the
        log suffix (:mod:`repro.cluster`).
        """
        from repro.utils.serialization import save_oracle

        save_oracle(self, path, meta=meta)

    @classmethod
    def restore(cls, path) -> tuple["DynamicHCL", dict]:
        """Load a :meth:`checkpoint` file; returns ``(oracle, meta)``.

        ``meta`` is ``{}`` for files saved without one (plain
        ``save_oracle`` output warm-starts the same way).
        """
        from repro.utils.serialization import load_oracle_with_meta

        return load_oracle_with_meta(path)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, u: int, v: int) -> float:
        """Exact distance ``d_G(u, v)``; ``inf`` when disconnected.

        Answered on :meth:`snapshot` by the one query kernel
        (:mod:`repro.core.sharding`).  On a landmark shard the answer is
        *shard-local*: exact whenever some shortest path meets an owned
        landmark, or meets no landmark at all and the shard owns the pair
        (:func:`~repro.core.sharding.pair_owners`); an overestimate
        otherwise — the element-wise min across all shards is the exact
        distance.
        """
        return self.snapshot().query(u, v)

    def query_many(self, pairs: Iterable[tuple[int, int]]) -> list[float]:
        """Exact distances for a batch of ``(u, v)`` pairs."""
        return self.snapshot().query_many(pairs)

    def frozen_rows(self):
        """Pinned ``(dist, entry, csr)`` query state at this version: copies
        of the dense rows and label mask of the owned landmarks (all of
        them when unsharded) and a frozen copy of the graph overlay
        (:meth:`~repro.core.inchl_fast.FastUpdateEngine.freeze_rows`).
        """
        return self._engine.freeze_rows()

    def checkpoint_rows(self, landmarks: Sequence[int] | None = None):
        """``(row_landmarks, overlay, dist, entry)``: the engine's dense
        rows for ``landmarks`` (default: every landmark this oracle
        maintains) as copies over the overlay's columns — what
        :func:`repro.utils.serialization.save_oracle` writes, and what
        :func:`repro.cluster.shards.make_shard_oracle` slices a shard's
        engine from.  The overlay is live: read only."""
        engine = self._engine
        rows = engine.owned_landmarks if landmarks is None else list(landmarks)
        dist, entry = engine.rows(rows)
        return rows, engine.dyn, dist, entry

    def distance_bound(self, u: int, v: int) -> float:
        """The label-only upper bound ``d⊤`` (Eq. 2) — useful on its own as
        a fast approximate distance.  Read from the snapshot's rows as
        ``min_r d(r, u) + d(r, v)``, which equals Eq. (2) on a minimal
        labelling (through the owned landmarks on a shard)."""
        return self.snapshot().distance_bound(u, v)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _apply(self, inserts, deletes, events: int):
        """The one update route every edge mutator takes.

        Stamps ``events`` epochs and hands the net edge sets
        ``inserts``/``deletes`` (already validated) to
        :meth:`~repro.core.inchl_fast.FastUpdateEngine.apply_mixed`,
        which applies them to the CSR and repairs the rows.
        """
        self._version += events
        return self._engine.apply_mixed(inserts, deletes)

    def _run_reference(self, kernel, *args):
        """Run a reference ``kernel(graph, labelling, *args)`` on a
        detached dict graph and labelling, then seed a new engine from
        its result (one BFS per landmark)."""
        graph = self.graph.copy()
        labelling = self.labelling
        result = kernel(graph, labelling, *args)
        self._version += 1
        self._engine = FastUpdateEngine(
            graph, labelling.landmarks, owned=self._owned,
            labels=labelling.labels,
        )
        return result

    def _require_unsharded(self, operation: str) -> None:
        if self._owned is not None:
            raise GraphError(
                f"{operation} is not supported on a landmark shard; apply it "
                f"to the unsharded oracle and re-shard"
            )

    def insert_edge(self, u: int, v: int) -> UpdateStats:
        """Insert edge ``(u, v)`` and repair the labelling (IncHL+).

        Raises like :meth:`apply_events_batch`; an endpoint the graph
        does not hold yet is registered.  Returns the update statistics
        (affected counts per landmark).
        """
        return self.apply_events_batch([("insert", (u, v))])

    def insert_vertex(self, v: int, neighbors: Iterable[int]) -> list[UpdateStats]:
        """The paper's vertex insertion: new vertex ``v`` plus edges to
        existing vertices, processed as a sequence of edge insertions.

        The whole neighbour list is checked first: a bad list raises what
        :meth:`DynamicGraph.insert_vertex` raises for it and leaves the
        graph, the labelling and :attr:`version` unchanged.
        """
        self._require_unsharded("insert_vertex")
        neighbor_list = list(neighbors)
        check_vertex_insertion(self._engine.dyn, v, neighbor_list)
        if not valid_vertex_id(v):
            raise ValueError(f"invalid vertex id {v!r}")
        self._engine.add_vertex(v)
        self._version += 1
        return [self._apply([(v, w)], [], 1) for w in neighbor_list]

    def insert_edges(self, edges: Iterable[tuple[int, int]]) -> list[UpdateStats]:
        """Batch convenience: apply a stream of edge insertions in order.

        The paper's model is strictly online (one repair per change), so
        this simply loops :meth:`insert_edge`; it exists so workloads can be
        replayed in one call.  For one *combined* sweep of the whole burst use
        :meth:`insert_edges_batch` instead.
        """
        return [self.insert_edge(u, v) for u, v in edges]

    def insert_edges_batch(
        self,
        edges: Iterable[tuple[int, int]],
    ) -> UpdateStats:
        """Insert a burst of edges with one combined find/repair sweep.

        Semantically identical to :meth:`insert_edges` (both end on the
        canonical minimal labelling of the final graph) but the affected
        regions of the whole batch are discovered and repaired together.
        The batch is validated as a whole before anything is mutated —
        see :meth:`apply_events_batch`, which it delegates to.  Returns a
        :class:`~repro.core.batch.MixedUpdateStats`.
        """
        return self.apply_events_batch([("insert", (u, v)) for u, v in edges])

    def remove_edge(self, u: int, v: int):
        """Decremental update (the paper's stated future work).

        Deletes edge ``(u, v)`` and repairs the labelling to the exact
        minimal labelling of the new graph — the same result as the
        fine-grained DecHL of :mod:`repro.core.dechl`.  Raises like
        :meth:`apply_events_batch`.
        """
        return self.apply_events_batch([("delete", (u, v))])

    def remove_edges_batch(self, edges: Iterable[tuple[int, int]]):
        """Delete a burst of edges with one combined find/repair sweep.

        The decremental counterpart of :meth:`insert_edges_batch`, also
        validated as a whole before anything is mutated.  Returns a
        :class:`~repro.core.batch.MixedUpdateStats`.
        """
        return self.apply_events_batch([("delete", (u, v)) for u, v in edges])

    def check_events(self, events) -> CheckedEvents:
        """Validate an event batch, rejecting instead of raising; mutates
        nothing.

        Each event (an :class:`~repro.workloads.streams.UpdateEvent` or a
        ``(kind, (u, v))`` pair) is checked against the edge state its
        accepted predecessors produce, with at most one edge-state lookup
        per event.  It is rejected for an invalid id
        (:func:`~repro.workloads.streams.valid_vertex_id`) or kind, a
        self-loop, an insert of a present edge or a delete of an absent
        one.  Inserts may name new vertices, which applying registers
        even when a later delete cancels the edge.
        """
        dyn = self._engine.dyn
        has_edge = dyn.has_edge
        checked = CheckedEvents(self, self._version)
        state: dict[tuple[int, int], list] = {}
        for event in events:
            kind, (u, v) = (
                (event.kind, event.edge) if hasattr(event, "kind") else event
            )
            error: GraphError | None = None
            if not (valid_vertex_id(u) and valid_vertex_id(v)):
                error = GraphError(f"{kind} {event!r} names an invalid vertex id")
            elif kind not in ("insert", "delete"):
                error = GraphError(f"unknown event kind {kind!r}")
            elif kind == "insert" and u == v:
                error = SelfLoopError(u)
            else:
                key = (u, v) if u < v else (v, u)
                entry = state.get(key)
                if entry is None:
                    present = has_edge(u, v)
                    # [present before the batch, present now, last edge]
                    entry = state[key] = [present, present, (u, v)]
                if kind == "insert" and entry[1]:
                    error = EdgeExistsError(u, v)
                elif kind == "delete" and not entry[1]:
                    error = EdgeNotFoundError(u, v)
                else:
                    entry[1] = kind == "insert"
                    entry[2] = (u, v)
                    if entry[1]:
                        for x in (u, v):
                            if x not in dyn:
                                checked.new_vertices[x] = None
            if error is None:
                checked.append((kind, (u, v)))
            else:
                checked.errors.append(error)
        for before, after, edge in state.values():
            if before != after:
                (checked.inserts if after else checked.deletes).append(edge)
        return checked

    def apply_events_batch(self, events):
        """Apply a mixed insert/delete event batch in one combined repair.

        ``events`` is a sequence of
        :class:`~repro.workloads.streams.UpdateEvent` (or plain
        ``(kind, (u, v))`` pairs) applied *as if sequentially*, and
        :attr:`version` advances by ``len(events)`` — the same epochs a
        one-at-a-time replay would stamp.  The batch is validated as a
        whole by :meth:`check_events`; the first invalid transition
        (inserting a present edge, deleting an absent one, a self-loop,
        an invalid id or kind) raises its :class:`GraphError` before
        anything is mutated.  A :class:`CheckedEvents` this oracle
        returned at its current version is applied as it stands, without
        a second check: its rejected events are simply not in it.

        The batch's net edge sets are handed to the engine as one
        BatchHL-style sweep stacked over the landmarks.  The result equals the
        one-at-a-time IncHL+/DecHL replay
        (:func:`repro.core.batch.replay_events`) byte for byte.
        Returns a :class:`~repro.core.batch.MixedUpdateStats`.
        """
        from repro.core.batch import MixedUpdateStats

        if not (
            isinstance(events, CheckedEvents)
            and events.oracle is self
            and events.version == self._version
        ):
            events = self.check_events(events)
            if events.errors:
                raise events.errors[0]
        for v in events.new_vertices:
            self._engine.add_vertex(v)
        if events.inserts or events.deletes:
            return self._apply(events.inserts, events.deletes, len(events))
        self._version += len(events)
        return MixedUpdateStats([], [])

    def remove_vertex(self, v: int) -> None:
        """Remove a vertex and all incident edges (decremental extension).

        Landmarks must be demoted first (:meth:`remove_landmark`).
        """
        self._require_unsharded("remove_vertex")
        from repro.core.dechl import apply_vertex_deletion

        self._run_reference(apply_vertex_deletion, v)

    # ------------------------------------------------------------------
    # Landmark maintenance
    # ------------------------------------------------------------------
    def add_landmark(self, v: int) -> int:
        """Promote ``v`` to a landmark online (extension).

        Returns the number of now-covered entries removed; see
        :mod:`repro.landmarks.maintenance`.
        """
        self._require_unsharded("add_landmark")
        from repro.landmarks.maintenance import add_landmark

        return self._run_reference(add_landmark, v)

    def remove_landmark(self, v: int) -> list[int]:
        """Demote landmark ``v`` online (extension).

        Returns the landmarks whose labellings were rebuilt.
        """
        self._require_unsharded("remove_landmark")
        from repro.landmarks.maintenance import remove_landmark

        return self._run_reference(remove_landmark, v)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def shortest_path(self, u: int, v: int) -> list[int] | None:
        """One exact shortest path (``None`` when disconnected), answered
        on :meth:`snapshot` (:meth:`OracleSnapshot.shortest_path
        <repro.serving.snapshot.OracleSnapshot.shortest_path>`)."""
        return self.snapshot().shortest_path(u, v)

    def approximate_path(self, u: int, v: int) -> list[int] | None:
        """A landmark-routed path of length ``d⊤`` (Eq. 2) — cheap, exact
        whenever some shortest path meets a landmark."""
        from repro.core.paths import approximate_path_via_landmarks

        return approximate_path_via_landmarks(self.graph, self.labelling, u, v)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dyn = self._engine.dyn
        return (
            f"DynamicHCL(|V|={dyn.num_vertices}, "
            f"|E|={dyn.num_edges}, |R|={len(self.landmarks)}, "
            f"size(L)={self.label_entries})"
        )
