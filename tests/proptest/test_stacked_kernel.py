"""The landmark-stacked update kernel against a per-landmark batch reference.

``FastUpdateEngine.apply_mixed`` repairs a mixed insert/delete batch for
every landmark row at once (:mod:`repro.core.sweeps`).  The reference
here repairs the same net batch one landmark at a time on dict
structures: the unified find of ``docs/DESIGN.md`` §10 (deletion
closure over the old shortest-path DAG, insertion and re-entry seeds,
jumped bucket-queue BFS) over BFS distances of the graph before the
batch, then the paper's DecHL repair kernel
(:func:`repro.core.dechl.repair_affected_deletion`, Lemma 4.6 with
disconnections), which counts a highway cell as it reads it.  The two
must agree on the labelling and on every statistic, ``highway_updates``
and ``disconnected`` included — unsharded, and on each shard of a
2-shard split, whose statistics cover its owned landmarks only.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.shards import ShardPlan, make_shard_oracle
from repro.core.batch import MixedUpdateStats
from repro.core.construction import build_hcl
from repro.core.dechl import DeletionSearch, repair_affected_deletion
from repro.core.dynamic import DynamicHCL
from repro.graph.dyncsr import UNREACH, DynCSR
from repro.graph.generators import barabasi_albert
from repro.graph.traversal import INF, bfs_distances
from repro.landmarks.selection import top_degree_landmarks

from tests.proptest.strategies import mixed_event_stream, random_graph
from tests.shard_labellings import restrict_labelling


def stats_tuple(stats):
    return (
        stats.affected_per_landmark,
        stats.affected_union,
        stats.entries_added,
        stats.entries_modified,
        stats.entries_removed,
        stats.highway_updates,
        stats.disconnected,
    )


def _find(before, adj, r, inserts, deletes) -> DeletionSearch:
    """Λ_r of one net batch with exact new distances (``INF`` for the
    vertices it cut off from ``r``) and the border's old distances."""
    old = bfs_distances(before, r)

    def d(v):
        return old.get(v, INF)

    closure: set[int] = set()
    stack = [
        y for a, b in deletes for x, y in ((a, b), (b, a))
        if d(x) < INF and d(x) + 1 == d(y)
    ]
    while stack:
        v = stack.pop()
        if v not in closure:
            closure.add(v)
            stack.extend(w for w in adj[v] if d(w) == d(v) + 1)

    def cleared(v):
        return INF if v in closure else d(v)

    buckets: dict[int, list[int]] = {}
    for a, b in inserts:
        for x, y in ((a, b), (b, a)):
            if cleared(x) < cleared(y):
                buckets.setdefault(int(cleared(x)) + 1, []).append(y)
    for v in closure:
        entries = [cleared(u) + 1 for u in adj[v] if cleared(u) < INF]
        if entries:
            buckets.setdefault(int(min(entries)), []).append(v)
    new: dict[int, float] = {}
    while buckets:
        depth = min(buckets)
        settled = [
            v for v in dict.fromkeys(buckets.pop(depth))
            if v not in new and cleared(v) >= depth
        ]
        for v in settled:
            new[v] = depth
        onward = [
            w for v in settled for w in adj[v]
            if w not in new and cleared(w) >= depth + 1
        ]
        if onward:
            buckets.setdefault(depth + 1, []).extend(onward)
    search = DeletionSearch(landmark=r)
    search.new_dist = {**dict.fromkeys(closure, INF), **new}
    search.border_old = {
        u: d(u) for v in search.new_dist for u in adj[v]
        if u not in search.new_dist
    }
    return search


def reference_batch(before, after, labelling, inserts, deletes, landmarks):
    """Repair ``labelling`` (valid and minimal for ``before``) for the rows
    of ``landmarks`` so they are minimal for ``after``; all finds run
    before any repair, as in the paper's kernels."""
    adj = after.adjacency()
    stats = MixedUpdateStats(inserts, deletes)
    searches = [_find(before, adj, r, inserts, deletes) for r in landmarks]
    touched: set[int] = set()
    for search in searches:
        stats.affected_per_landmark[search.landmark] = len(search.new_dist)
        stats.disconnected += sum(d == INF for d in search.new_dist.values())
        touched.update(search.new_dist)
    stats.affected_union = len(touched)
    for search in searches:
        repair_affected_deletion(after, labelling, search, stats)
    return stats


def _net(before, events):
    after = before.copy()
    for kind, (u, v) in events:
        (after.add_edge if kind == "insert" else after.remove_edge)(u, v)
    inserts = [e for e in after.edges() if not before.has_edge(*e)]
    deletes = [e for e in before.edges() if not after.has_edge(*e)]
    return after, inserts, deletes


def check_batches(seed: int, num_batches: int, max_batch: int) -> tuple[int, int]:
    """Replay random mixed batches on a full oracle and a 2-shard split,
    each checked against :func:`reference_batch`; returns the totals of
    ``disconnected`` and ``highway_updates`` seen on the full oracle."""
    graph, rng = random_graph(seed, n_min=10, n_max=40)
    landmarks = top_degree_landmarks(graph, rng.randint(2, 6))
    full = DynamicHCL.build(graph.copy(), landmarks=landmarks)
    plan = ShardPlan.for_landmarks(full.landmarks, 2)
    shards = [make_shard_oracle(full, plan, i) for i in range(2)]
    before = graph.copy()
    reference = build_hcl(before.copy(), landmarks)
    totals = [0, 0]
    for _ in range(num_batches):
        events = mixed_event_stream(before, rng.randint(1, max_batch), rng)
        if not events:
            break
        after, inserts, deletes = _net(before, events)
        stats = full.apply_events_batch(events)
        shard_stats = [shard.apply_events_batch(events) for shard in shards]
        if inserts or deletes:
            for i, shard in enumerate(shards):
                owned = plan.owned(i)
                expected = reference.copy()
                want = reference_batch(before, after, expected, inserts, deletes, owned)
                assert shard.labelling == restrict_labelling(expected, owned)
                assert stats_tuple(shard_stats[i]) == stats_tuple(want), (i, events)
            want = reference_batch(
                before, after, reference, inserts, deletes, full.landmarks
            )
            assert stats_tuple(stats) == stats_tuple(want), events
            totals[0] += stats.disconnected
            totals[1] += stats.highway_updates
        assert full.labelling == reference, events
        before = after
    return totals[0], totals[1]


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    num_batches=st.integers(1, 6),
    max_batch=st.integers(1, 10),
)
def test_stacked_engine_matches_batch_reference(seed, num_batches, max_batch):
    check_batches(seed, num_batches, max_batch)


def test_reference_matrix_disconnects_and_moves_highway_cells():
    """The fixed seeds below exercise both subtle statistics: batches
    that cut vertices off a landmark and batches that move a
    landmark-to-landmark cell."""
    disconnected = highway = 0
    for seed in range(12):
        cut, moved = check_batches(seed, num_batches=6, max_batch=10)
        disconnected += cut
        highway += moved
    assert disconnected > 0
    assert highway > 0


def test_one_stacked_level_per_depth(monkeypatch):
    """One ``apply_mixed`` gathers once per new BFS depth, for all 20
    landmarks together: an insertion batch that shortcuts a second dense
    cluster moves dozens of vertices per landmark, yet the number of
    overlay gathers stays within the largest depth settled (every level
    here fits one gather chunk)."""
    graph = barabasi_albert(300, attach=3, rng=1)
    far = barabasi_albert(80, attach=3, rng=2)
    path = [299, *range(2000, 2006), 1000]
    for v in [*(v + 1000 for v in far.vertices()), *path[1:-1]]:
        graph.add_vertex(v)
    for u, v in [*((u + 1000, v + 1000) for u, v in far.edges()), *zip(path, path[1:])]:
        graph.add_edge(u, v)
    oracle = DynamicHCL.build(graph, landmarks=top_degree_landmarks(graph, 20))
    gathers = []
    gather = DynCSR.gather_with_positions

    def counted(self, frontier):
        gathers.append(len(frontier))
        return gather(self, frontier)

    monkeypatch.setattr(DynCSR, "gather_with_positions", counted)
    stats = oracle.insert_edges_batch([(0, 1000), (1, 1001), (2, 1002)])
    dist = oracle.checkpoint_rows()[2]
    deepest = int(dist[dist != UNREACH].max())
    assert min(stats.affected_per_landmark.values()) > 40
    assert 1 <= len(gathers) <= deepest < len(oracle.landmarks)
