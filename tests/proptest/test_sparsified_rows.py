"""The sparsified search and the rows it reads, across mixed batches.

A snapshot graph is searched over its delta-free rows of ``G[V \\ R]``
(:class:`~repro.graph.dyncsr.SparsifiedRows`): built at a snapshot's
first search, then derived at each capture from the predecessor's rows.
Over a stream of mixed batches (inserts, deletes, and one batch of new
vertices large enough to compact the overlay), on an unsharded oracle and
on each shard of a 2-shard split, this property checks after every
batch that

* the derived rows equal rows built from scratch (as sets per column);
* the sparsified search equals the dict loop on an independently
  replayed reference graph under bounds 0, 1, ``d - 1``, ``d``,
  ``d + 1`` and INF, for sampled pairs, every landmark endpoint and
  every landmark pair (adjacent ones included), with the numpy phase
  off (default switch point) and forced (switch point 0).
"""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.traversal as traversal
from repro.cluster.shards import ShardPlan, make_shard_oracle
from repro.core.dynamic import DynamicHCL
from repro.graph.traversal import INF, bidirectional_bfs
from repro.landmarks.selection import top_degree_landmarks

from tests.proptest.strategies import (
    GRAPH_FAMILIES,
    mixed_event_stream,
    random_batches,
    random_graph,
)
from tests.sparsified_rows import fresh_row_sets, snapshot_row_sets


def _replay(graph, batch) -> None:
    for kind, (u, v) in batch:
        if kind == "insert":
            for w in (u, v):
                if not graph.has_vertex(w):
                    graph.add_vertex(w)
            graph.add_edge(u, v)
        else:
            graph.remove_edge(u, v)


def _stream(graph, rng: random.Random) -> list[list[tuple[str, tuple[int, int]]]]:
    """Mixed batches, one batch that grows a tree of new vertices (large
    enough to compact the overlay), then mixed batches again."""
    sim = graph.copy()
    batches = random_batches(mixed_event_stream(sim, 12, rng), rng, max_batch=5)
    for batch in batches:
        _replay(sim, batch)
    vertices = sorted(sim.vertices())
    grown = []
    for fresh in range(vertices[-1] + 1, vertices[-1] + 1 + COMPACTING):
        grown.append(("insert", (fresh, rng.choice(vertices))))
        vertices.append(fresh)
    _replay(sim, grown)
    tail = random_batches(mixed_event_stream(sim, 12, rng), rng, max_batch=5)
    return batches + [grown] + tail


#: New edges in one batch: more than enough to outgrow the delta of
#: every overlay here (256 directed entries, or a quarter of the base).
COMPACTING = 140


def _pairs(reference, landmarks, rng: random.Random) -> list[tuple[int, int]]:
    vertices = sorted(reference.vertices())
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(12)]
    pairs += [(r, rng.choice(vertices)) for r in landmarks]
    pairs += [(r, w) for r in landmarks for w in landmarks if r < w]
    return pairs


def _check_searches(snap, reference, pairs) -> None:
    skip = snap.landmark_set
    for frontier in (traversal.NUMPY_FRONTIER, 0):
        with mock.patch.object(traversal, "NUMPY_FRONTIER", frontier):
            for u, v in pairs:
                exact = bidirectional_bfs(reference, u, v, skip=skip)
                bounds = {0, 1, exact, exact + 1, INF}
                bounds |= {exact - 1} if exact < INF else set()
                for bound in bounds:
                    expected = exact if exact < bound else INF
                    loop = bidirectional_bfs(reference, u, v, bound=bound, skip=skip)
                    lean = bidirectional_bfs(snap.graph, u, v, bound=bound, skip=skip)
                    assert lean == loop == expected, (frontier, u, v, bound)


@given(
    seed=st.integers(0, 2**16),
    family=st.sampled_from(sorted(GRAPH_FAMILIES)),
)
@settings(max_examples=25, deadline=None)
def test_derived_rows_and_search_follow_mixed_batches(seed, family):
    graph, rng = random_graph(seed, family=family, n_min=20, n_max=40)
    landmarks = top_degree_landmarks(graph, rng.randint(2, 4))
    oracle = DynamicHCL.build(graph.copy(), landmarks=landmarks)
    plan = ShardPlan.for_landmarks(oracle.landmarks, 2)
    oracles = [oracle] + [make_shard_oracle(oracle, plan, i) for i in range(2)]
    for each in oracles:
        snapshot_row_sets(each.snapshot())  # the first, full build
    reference = graph.copy()
    for batch in _stream(graph, rng):
        _replay(reference, batch)
        pairs = _pairs(reference, oracle.landmarks, rng)
        for each in oracles:
            each.apply_events_batch(batch)
            snap = each.snapshot()
            if len(batch) == COMPACTING:
                assert snap.graph.csr.num_delta_edges == 0
            assert snapshot_row_sets(snap) == fresh_row_sets(snap)
            _check_searches(snap, reference, pairs)
