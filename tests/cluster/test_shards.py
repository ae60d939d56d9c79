"""Landmark sharding: plan, restriction, scatter-gather, shard WAL replay.

The socket-level tests run the real sharded stack in-process: a
``shards=N`` :class:`ClusterRouter` over shard-restricted
:class:`ReplicaServer`\\ s, reads scatter-gathering across shard groups
with an element-wise min reduction, writes fanning out to every shard.
The replay tests drive :func:`build_replica` with ``num_shards > 1``
specs — the exact warm-start path of a sharded cluster — and prove the
reassembled per-shard labellings stay byte-identical to the sequential
full-oracle replay even when one shard group checkpoints mid-stream
while another lags (satellite: shard-aware WAL replay).
"""

from __future__ import annotations

import pytest

import repro.core.sharding as sharding
from repro.cluster import (
    ReplicaSpec,
    ShardPlan,
    UpdateLog,
    build_replica,
    make_shard_oracle,
    write_checkpoint,
)
from repro.core.dynamic import DynamicHCL
from repro.exceptions import ReproError
from repro.graph.generators import barabasi_albert, ring_of_cliques
from repro.graph.traversal import bfs_distances
from repro.landmarks.selection import top_degree_landmarks
from repro.serving.client import ServingClient

from tests.cluster.conftest import ShardedCluster
from tests.cluster.test_mixed_convergence import (
    churn_events,
    labelling_bytes,
    sequential_replay,
)
from tests.shard_labellings import reassemble_labellings, restrict_labelling


# ----------------------------------------------------------------------
# ShardPlan
# ----------------------------------------------------------------------
def test_shard_plan_stripes_deterministically():
    plan = ShardPlan.for_landmarks([7, 3, 9, 1, 5], 2)
    assert plan.owned(0) == [7, 9, 5]
    assert plan.owned(1) == [3, 1]
    assert plan.assignment() == [[7, 9, 5], [3, 1]]
    assert plan.shard_of(9) == 0 and plan.shard_of(1) == 1
    # Same landmarks, same order -> same plan, always.
    assert ShardPlan.for_landmarks([7, 3, 9, 1, 5], 2) == plan


def test_shard_plan_meta_roundtrip_and_validation():
    plan = ShardPlan.for_landmarks([4, 8, 2], 3)
    assert ShardPlan.from_meta(plan.to_meta()) == plan
    with pytest.raises(ReproError):
        ShardPlan.for_landmarks([1, 2], 3)  # empty shard
    with pytest.raises(ReproError):
        plan.owned(3)
    with pytest.raises(ReproError):
        plan.shard_of(99)
    tampered = plan.to_meta()
    tampered["shard_plan"]["assignment"] = [[8], [4], [2]]
    with pytest.raises(ReproError):
        ShardPlan.from_meta(tampered)
    with pytest.raises(ReproError):
        ShardPlan.from_meta({})


# ----------------------------------------------------------------------
# Restriction / reassembly
# ----------------------------------------------------------------------
def test_restrict_partitions_and_reassembles_bytes(small_oracle, tmp_path):
    plan = ShardPlan.for_landmarks(small_oracle.landmarks, 2)
    parts = [
        restrict_labelling(small_oracle.labelling, plan.owned(i))
        for i in range(2)
    ]
    # Label entries partition exactly: each entry belongs to one owner.
    assert sum(p.label_entries for p in parts) == (
        small_oracle.labelling.label_entries
    )
    # Every part keeps the FULL landmark list (the sparsification set).
    for part in parts:
        assert part.landmarks == small_oracle.landmarks
    reassembled = reassemble_labellings(parts)
    assert labelling_bytes(reassembled, tmp_path, "reassembled") == (
        labelling_bytes(small_oracle.labelling, tmp_path, "full")
    )


def test_shard_memory_bounded_below_unsharded(tmp_path):
    """Acceptance: per-shard peak label memory <= ~60% of unsharded."""
    graph = barabasi_albert(300, attach=3, rng=7)
    landmarks = top_degree_landmarks(graph, 10)
    full = DynamicHCL.build(graph, landmarks=landmarks)
    plan = ShardPlan.for_landmarks(full.landmarks, 2)
    shards = [make_shard_oracle(full, plan, i) for i in range(2)]
    total = full.labelling.label_entries
    for shard in shards:
        assert shard.labelling.label_entries <= 0.6 * total
    assert sum(s.labelling.label_entries for s in shards) == total


def _highway_cells(labelling) -> dict:
    return {
        (r, r2): d
        for r, row in labelling.highway.as_dict().items()
        for r2, d in row.items()
        if r < r2
    }


def test_shard_rows_are_the_restriction_under_mixed_batches():
    """A shard's rows materialize to the restriction of the full
    labelling after every mixed batch, and its ``highway_updates`` count
    the cells of that restriction that changed — including cells of
    landmarks other shards own, whose row slots the deletion closure
    overwrites before the repair reads them."""
    import random

    rng = random.Random(1)
    full = DynamicHCL.build(
        barabasi_albert(120, attach=2, rng=1), num_landmarks=6,
        construction="csr",
    )
    plan = ShardPlan.for_landmarks(full.landmarks, 2)
    shards = [make_shard_oracle(full, plan, i) for i in range(2)]
    for _ in range(20):
        present = set(full.graph.edges())
        vertices = sorted(full.graph.vertices())
        events = []
        for _ in range(rng.randint(1, 10)):
            if rng.random() < 0.45:
                edge = rng.choice(sorted(present))
                present.discard(edge)
                events.append(("delete", edge))
            else:
                u, v = sorted(rng.sample(vertices, 2))
                if (u, v) not in present:
                    present.add((u, v))
                    events.append(("insert", (u, v)))
        full.apply_events_batch(events)
        labelling = full.labelling
        for i, shard in enumerate(shards):
            before = _highway_cells(shard.labelling)
            stats = shard.apply_events_batch(events)
            after = shard.labelling
            assert after == restrict_labelling(labelling, plan.owned(i))
            cells = _highway_cells(after)
            changed = {
                key for key in before.keys() | cells.keys()
                if before.get(key) != cells.get(key)
            }
            assert stats.highway_updates == len(changed)


def test_shard_oracle_rejects_topology_ops(small_oracle):
    plan = ShardPlan.for_landmarks(small_oracle.landmarks, 2)
    shard = make_shard_oracle(small_oracle, plan, 0)
    from repro.exceptions import GraphError

    with pytest.raises(GraphError):
        shard.add_landmark(3)
    with pytest.raises(GraphError):
        shard.remove_vertex(3)


# ----------------------------------------------------------------------
# One bounded search per pair across the shards
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_shards", [2, 3])
def test_each_pair_is_searched_on_one_shard_only(num_shards, monkeypatch):
    """Only a pair's owning shard runs the bounded search; every other
    shard answers its bound, and the min over the shards stays exact."""
    graph = barabasi_albert(200, attach=2, rng=5)
    full = DynamicHCL.build(graph, landmarks=top_degree_landmarks(graph, 6))
    plan = ShardPlan.for_landmarks(full.landmarks, num_shards)
    shards = [make_shard_oracle(full, plan, i) for i in range(num_shards)]
    vertices = sorted(graph.vertices())
    pairs = [(u, v) for u in vertices[::13] for v in vertices[5::17] if u != v]

    searched: dict[tuple[int, int], int] = {}
    search = sharding.bidirectional_bfs

    def counted(graph, source, target, bound=float("inf"), skip=()):
        key = (min(source, target), max(source, target))
        searched[key] = searched.get(key, 0) + 1
        return search(graph, source, target, bound=bound, skip=skip)

    monkeypatch.setattr(sharding, "bidirectional_bfs", counted)
    answers = [shard.query_many(pairs) for shard in shards]
    assert searched, "no pair needed a search"
    assert max(searched.values()) == 1, searched
    for (u, v), column in zip(pairs, zip(*answers)):
        assert min(column) == bfs_distances(graph, u).get(v, float("inf")), (u, v)


def test_label_join_edge_cases():
    """``shard_min_distance`` sums in int64: a sum with an ``UNREACH``
    term is unreachable, never a wrapped int32; no rows and columns the
    frozen rows do not cover give ``INF``."""
    import numpy as np

    from repro.graph.dyncsr import UNREACH
    from repro.graph.traversal import INF

    unreach = int(UNREACH)
    dist = np.array([[1, unreach, 3], [2, 5, unreach]], dtype=np.int32)
    index_of = {10: 0, 11: 1, 12: 2, 13: 3}
    join = sharding.shard_min_distance
    assert join(dist, index_of, 10, 11) == 7  # row 1: 2 + 5
    assert join(dist, index_of, 11, 12) == INF  # UNREACH in every sum
    assert join(np.full((2, 3), unreach, dtype=np.int32), index_of, 10, 12) == INF
    assert join(dist[:0], index_of, 10, 11) == INF  # no owned rows
    assert join(dist, index_of, 10, 13) == INF  # column past the rows
    assert join(dist, index_of, 10, 99) == INF  # no column at all
    assert join(dist, index_of, 12, 12) == 6


# ----------------------------------------------------------------------
# Socket-level scatter-gather
# ----------------------------------------------------------------------
@pytest.fixture
def sharded(small_oracle):
    fleet = ShardedCluster(small_oracle, shards=2, replicas=2)
    client = ServingClient(*fleet.address)
    yield small_oracle, fleet, client
    client.close()
    fleet.close()


def test_scatter_gather_matches_full_oracle(sharded):
    oracle, _, client = sharded
    vertices = sorted(oracle.graph.vertices())
    pairs = [(u, v) for u in vertices[:6] for v in vertices[-6:]]
    for u, v in pairs:
        assert client.query(u, v) == oracle.query(u, v), (u, v)
    assert client.query_many(pairs) == [oracle.query(u, v) for u, v in pairs]
    # `path` answers BFS-exact through any one shard (full graph there).
    path = client.path(0, 15)
    assert path[0] == 0 and path[-1] == 15 and len(path) - 1 == oracle.query(0, 15)


def test_sharded_write_fanout_and_read_your_writes(sharded):
    oracle, fleet, client = sharded
    reference = DynamicHCL(oracle.graph.copy(), oracle.labelling.copy())
    events = [("insert", 0, 15), ("delete", 1, 2), ("insert", 2, 13)]
    response = client.updates(events)
    assert response["ok"] and response["epoch"] == len(events)
    reference.insert_edge(0, 15)
    reference.remove_edge(1, 2)
    reference.insert_edge(2, 13)
    # Gated scatter-gather: every shard group must reach the epoch.
    for u, v in [(0, 15), (1, 2), (0, 12), (3, 14)]:
        assert client.query(u, v, min_epoch=len(events)) == (
            reference.query(u, v)
        ), (u, v)
    assert client.snapshot()["ok"]
    # All four replicas (both groups) applied the full stream.
    for server in fleet.replicas:
        assert server.applied_seq == len(events)


def test_sharded_stats_and_checkpoint(sharded, tmp_path):
    _, fleet, client = sharded
    client.update("insert", 0, 15)
    assert client.snapshot()["ok"]
    stats = client.stats()
    assert stats["num_shards"] == 2
    assert set(stats["shards"]) == {"0", "1"}
    for index, group in stats["shards"].items():
        assert group["replicas"] == 2 and group["healthy"] == 2
        assert group["lag"] == 0
        assert group["acked_seq"] == 1
    by_shard = {
        name: entry["shard"] for name, entry in stats["replicas"].items()
    }
    assert by_shard == {"s0r0": 0, "s0r1": 0, "s1r0": 1, "s1r1": 1}

    # Per-shard checkpoints carry the plan + shard index in their meta.
    from repro.utils.serialization import read_oracle_meta

    for i in range(2):
        path = tmp_path / f"ckpt-s{i}.json.gz"
        fleet.router.request_checkpoint_from_thread(path, shard=i)
        meta = read_oracle_meta(path)
        assert meta["log_seq"] == 1
        assert meta["shard_index"] == i
        assert ShardPlan.from_meta(meta) == fleet.plan


def test_reassembled_labellings_match_reference_after_stream(sharded, tmp_path):
    oracle, fleet, client = sharded
    events = churn_events(oracle.graph, 18, seed=11)
    for base in range(0, len(events), 5):
        chunk = events[base : base + 5]
        client.updates([(e.kind, *e.edge) for e in chunk])
    assert client.snapshot()["ok"]
    reference = sequential_replay(oracle.graph, oracle.landmarks, events)
    expected = labelling_bytes(reference.labelling, tmp_path, "sequential")
    # One replica per group suffices for reassembly; check both pairings.
    for j in range(2):
        parts = [
            server.service.oracle.labelling
            for server in fleet.replicas
            if server.name.endswith(f"r{j}")
        ]
        assert labelling_bytes(
            reassemble_labellings(parts), tmp_path, f"reassembled{j}"
        ) == expected


# ----------------------------------------------------------------------
# Shard-aware WAL replay (satellite: mid-stream checkpoint + laggard)
# ----------------------------------------------------------------------
def test_shard_wal_replay_with_midstream_checkpoint_and_laggard(tmp_path):
    """One shard group checkpoints mid-stream while the other lags back
    at the seed; both restart and replay their own WAL suffixes; the
    reassembled labelling is byte-identical to the sequential replay."""
    graph = ring_of_cliques(6, 5)
    landmarks = [0, 5, 10, 15]
    events = churn_events(graph, 32, seed=23)
    half = len(events) // 2
    oracle = DynamicHCL.build(graph.copy(), landmarks=landmarks)
    seed_file = tmp_path / "seed.json.gz"
    write_checkpoint(oracle, seed_file, log_seq=0)
    wal_dir = tmp_path / "wal"
    log = UpdateLog(wal_dir)
    log.append_events([(e.kind, *e.edge) for e in events[:half]])

    def spec(name, shard, checkpoint):
        return ReplicaSpec(
            name=name, checkpoint_path=str(checkpoint), wal_dir=str(wal_dir),
            shard_index=shard, num_shards=2,
        )

    # Shard 0 boots from the seed, replays the first half, checkpoints
    # mid-stream.  Shard 1 does nothing yet — it lags at the seed.
    s0 = build_replica(spec("s0r0", 0, seed_file))
    s0.service.stop()
    assert s0.applied_seq == half
    plan = ShardPlan.for_landmarks(oracle.landmarks, 2)
    ckpt0 = tmp_path / "checkpoint-s0.json.gz"
    write_checkpoint(
        s0.service.oracle, ckpt0, log_seq=half,
        extra_meta={**plan.to_meta(), "shard_index": 0},
    )

    # The stream continues; then both groups (re)start.
    log.append_events([(e.kind, *e.edge) for e in events[half:]])
    log.close()
    restarted0 = build_replica(spec("s0r0", 0, ckpt0))  # suffix only
    restarted0.service.stop()
    laggard1 = build_replica(spec("s1r0", 1, seed_file))  # full replay
    laggard1.service.stop()
    assert restarted0.applied_seq == len(events)
    assert laggard1.applied_seq == len(events)

    reference = sequential_replay(graph, landmarks, events)
    reassembled = reassemble_labellings([
        restarted0.service.oracle.labelling,
        laggard1.service.oracle.labelling,
    ])
    assert labelling_bytes(reassembled, tmp_path, "reassembled") == (
        labelling_bytes(reference.labelling, tmp_path, "sequential")
    )


def test_shard_checkpoint_meta_mismatch_refused(tmp_path):
    """A shard replica must refuse a checkpoint recorded for a different
    shard index — mixing shards would silently drop landmark rows."""
    graph = ring_of_cliques(4, 4)
    oracle = DynamicHCL.build(graph.copy(), landmarks=[0, 4])
    plan = ShardPlan.for_landmarks(oracle.landmarks, 2)
    shard0 = make_shard_oracle(oracle, plan, 0)
    ckpt = tmp_path / "checkpoint-s0.json.gz"
    write_checkpoint(
        shard0, ckpt, log_seq=0,
        extra_meta={**plan.to_meta(), "shard_index": 0},
    )
    from repro.exceptions import ClusterError

    with pytest.raises(ClusterError):
        build_replica(ReplicaSpec(
            name="s1r0", checkpoint_path=str(ckpt), wal_dir="",
            shard_index=1, num_shards=2,
        ))
