"""Tests for the fully-dynamic mixed insert/delete batch engine.

The contract is the same byte-identity the insert-only fast path ships
with, extended to deletions: every mixed batch applied through
``FastUpdateEngine.apply_mixed`` (and the ``DynamicHCL`` wrappers over
it) must leave the labelling exactly equal to a sequential replay —
inserts through IncHL+, deletes through DecHL — and must keep the
engine's dense per-landmark distance rows exact against BFS, including
after disconnections (rows go to unreachable, entries/highway rows are
dropped) and re-connections.
"""

import random

import pytest

from repro.core.batch import replay_events
from repro.core.construction import build_hcl
from repro.core.dechl import apply_edge_deletion_partial
from repro.core.dynamic import DynamicHCL
from repro.core.inchl import apply_edge_insertion
from repro.core.inchl_fast import FastUpdateEngine
from repro.core.validation import check_matches_rebuild, check_query_exactness
from repro.exceptions import GraphError, InvariantViolationError
from repro.graph.generators import grid_graph, ring_of_cliques
from repro.graph.traversal import bfs_distances
from repro.landmarks.selection import top_degree_landmarks

from tests.conftest import engine_labelling, non_edges, random_connected_graph

UNREACH_SENTINEL = 2**30


def assert_rows_exact(engine, graph, landmarks):
    """The engine's dense distance rows must equal BFS on the live graph."""
    for k, r in enumerate(landmarks):
        table = bfs_distances(graph, r)
        row = engine._dist[k]
        for v in graph.vertices():
            i = engine._dyn.index(v)
            expected = table.get(v)
            if expected is None:
                assert row[i] >= UNREACH_SENTINEL, (r, v)
            else:
                assert row[i] == expected, (r, v)


def sequential_reference(graph, landmarks, inserts, deletes):
    """Inserts (IncHL+) then deletes (DecHL), one at a time."""
    hcl = build_hcl(graph, landmarks)
    for u, v in inserts:
        graph.add_edge(u, v)
        apply_edge_insertion(graph, hcl, u, v)
    for u, v in deletes:
        apply_edge_deletion_partial(graph, hcl, u, v)
    return hcl


class TestEngineMixed:
    def test_single_deletion_matches_dechl(self):
        for seed in (0, 3, 9):
            g_fast = random_connected_graph(seed, n_min=14, n_max=22, density=2.2)
            g_ref = g_fast.copy()
            landmarks = top_degree_landmarks(g_fast, 4)
            hcl_ref = build_hcl(g_ref, landmarks)
            engine = FastUpdateEngine(g_fast, landmarks, labels=hcl_ref.labels)
            rng = random.Random(seed)
            for _ in range(6):
                u, v = rng.choice(sorted(g_fast.edges()))
                g_fast.remove_edge(u, v)
                engine.apply_mixed([], [(u, v)])
                apply_edge_deletion_partial(g_ref, hcl_ref, u, v)
                assert engine_labelling(engine) == hcl_ref
                assert_rows_exact(engine, g_fast, landmarks)

    def test_mixed_batch_matches_sequential_reference(self):
        for seed in (2, 5, 8):
            g_fast = random_connected_graph(seed, n_min=16, n_max=24, density=2.0)
            g_ref = g_fast.copy()
            landmarks = top_degree_landmarks(g_fast, 4)
            engine = FastUpdateEngine(
                g_fast, landmarks, labels=build_hcl(g_fast, landmarks).labels
            )
            rng = random.Random(seed)
            inserts = non_edges(g_fast)[:5]
            deletes = rng.sample(sorted(g_fast.edges()), 4)
            for u, v in inserts:
                g_fast.add_edge(u, v)
            for u, v in deletes:
                g_fast.remove_edge(u, v)
            stats = engine.apply_mixed(inserts, deletes)
            hcl_ref = sequential_reference(g_ref, landmarks, inserts, deletes)
            hcl_fast = engine_labelling(engine)
            assert hcl_fast == hcl_ref
            assert stats.batch_size == len(inserts) + len(deletes)
            assert_rows_exact(engine, g_fast, landmarks)
            check_query_exactness(g_fast, hcl_fast, num_pairs=40, rng=seed)

    def test_disconnection_drops_rows_and_entries(self):
        # A path graph: deleting any edge splits it, so the far side must
        # go unreachable in every landmark row on the cut side.
        from repro.core.query import query_distance

        graph = grid_graph(1, 8)
        engine = FastUpdateEngine(graph, [0], labels=build_hcl(graph, [0]).labels)
        graph.remove_edge(3, 4)
        stats = engine.apply_mixed([], [(3, 4)])
        assert stats.disconnected == 4  # vertices 4..7 cut from landmark 0
        assert_rows_exact(engine, graph, [0])
        hcl = engine_labelling(engine)
        table = bfs_distances(graph, 0)
        for v in graph.vertices():
            assert query_distance(graph, hcl, 0, v) == table.get(v, float("inf"))
        # Reconnect: rows and labelling must snap back to exact.
        graph.add_edge(3, 4)
        engine.apply_mixed([(3, 4)], [])
        assert_rows_exact(engine, graph, [0])
        check_matches_rebuild(graph, engine_labelling(engine))

    def test_churn_batch_delete_then_reinsert_via_oracle(self):
        oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
        version = oracle.version
        stats = oracle.apply_events_batch(
            [("delete", (0, 1)), ("insert", (0, 1))]
        )
        # Net no-op: nothing repaired, but the epochs still advanced.
        assert stats.batch_size == 0
        assert oracle.version == version + 2
        assert oracle.graph.has_edge(0, 1)
        check_matches_rebuild(oracle.graph.copy(), oracle.labelling)

    def test_oracle_mixed_batch_matches_slow_route(self):
        for seed in (11, 12):
            graph = random_connected_graph(seed, n_min=15, n_max=22, density=2.2)
            fast = DynamicHCL.build(graph.copy(), num_landmarks=3)
            g_slow = graph.copy()
            slow = build_hcl(g_slow, fast.landmarks)
            rng = random.Random(seed)
            events = []
            sim = graph.copy()
            for _ in range(10):
                if rng.random() < 0.45 and sim.num_edges > 4:
                    u, v = rng.choice(sorted(sim.edges()))
                    sim.remove_edge(u, v)
                    events.append(("delete", (u, v)))
                else:
                    candidates = non_edges(sim)
                    if not candidates:
                        continue
                    u, v = rng.choice(candidates)
                    sim.add_edge(u, v)
                    events.append(("insert", (u, v)))
            fast.apply_events_batch(events)
            replay_events(g_slow, slow, events)
            assert fast.labelling == slow
            assert fast.version == len(events)
            assert sorted(fast.graph.edges()) == sorted(g_slow.edges())

    def test_every_batch_shape_matches_replay(self):
        """Mixed, pure-insert, single-insert and single-delete batches all
        leave the labelling equal to the one-at-a-time paper replay and
        the dense rows exact."""
        graph = ring_of_cliques(4, 5)
        oracle = DynamicHCL.build(graph.copy(), num_landmarks=4)
        g_ref = graph.copy()
        reference = build_hcl(g_ref, oracle.landmarks)
        rng = random.Random(42)
        candidates = non_edges(graph)
        inserts = candidates[:6]
        deletes = rng.sample(sorted(graph.edges()), 5)
        batches = [
            [("insert", e) for e in inserts] + [("delete", e) for e in deletes],
            [("insert", e) for e in candidates[6:12]],  # pure insert
            [("insert", candidates[12])],  # single insert
            [("delete", inserts[0])],  # single delete
        ]
        for events in batches:
            oracle.apply_events_batch(events)
            replay_events(g_ref, reference, events)
            assert oracle.labelling == reference, events
            assert_rows_exact(oracle._engine, oracle.graph, oracle.landmarks)

    def test_empty_mixed_batch_rejected(self):
        graph = grid_graph(3, 3)
        engine = FastUpdateEngine(graph, [4], labels=build_hcl(graph, [4]).labels)
        with pytest.raises(InvariantViolationError):
            engine.apply_mixed([], [])

    def test_invalid_events_raise_before_mutation(self):
        oracle = DynamicHCL.build(grid_graph(3, 3), landmarks=[4])
        edges_before = sorted(oracle.graph.edges())
        version = oracle.version
        with pytest.raises(GraphError):
            oracle.apply_events_batch([("delete", (0, 7))])  # absent
        with pytest.raises(GraphError):
            oracle.apply_events_batch([("insert", (0, 1))])  # present
        with pytest.raises(GraphError):
            oracle.apply_events_batch([("insert", (3, 3))])  # loop
        with pytest.raises(GraphError):
            oracle.apply_events_batch([("frob", (0, 1))])  # kind
        assert sorted(oracle.graph.edges()) == edges_before
        assert oracle.version == version
        check_matches_rebuild(oracle.graph.copy(), oracle.labelling)

    def test_long_churn_stream_stays_exact(self):
        graph = random_connected_graph(99, n_min=18, n_max=26, density=2.0)
        g_ref = graph.copy()
        oracle = DynamicHCL.build(graph, num_landmarks=3)
        reference = build_hcl(g_ref, oracle.landmarks)
        rng = random.Random(99)
        for step in range(8):
            events = []
            sim = oracle.graph.copy()
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 0.4 and sim.num_edges > 4:
                    u, v = rng.choice(sorted(sim.edges()))
                    sim.remove_edge(u, v)
                    events.append(("delete", (u, v)))
                else:
                    candidates = non_edges(sim)
                    if not candidates:
                        continue
                    u, v = rng.choice(candidates)
                    sim.add_edge(u, v)
                    events.append(("insert", (u, v)))
            if not events:
                continue
            oracle.apply_events_batch(events)
            replay_events(g_ref, reference, events)
            assert oracle.labelling == reference
        engine = oracle._engine
        assert engine is not None
        assert_rows_exact(engine, oracle.graph, list(oracle.landmarks))
