"""Landmark sharding equivalence over the replay matrix.

For every graph family × seed, a full oracle and an N-shard partition of
it replay the same mixed insert/delete stream.  After the replay:

* the **reassembled** per-shard labellings are byte-identical (canonical
  ``save_labelling`` form) to the sequentially maintained full oracle —
  sharded maintenance loses nothing and invents nothing;
* the element-wise **min over per-shard answers** equals the full
  oracle's answer (and BFS ground truth) on sampled pairs — the router's
  scatter-gather reduction is exact.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.shards import ShardPlan, make_shard_oracle
from repro.core.dynamic import DynamicHCL
from repro.graph.traversal import bfs_distances
from repro.landmarks.selection import top_degree_landmarks
from repro.utils.serialization import save_labelling

from tests.proptest.strategies import (
    GRAPH_FAMILIES,
    mixed_event_stream,
    random_graph,
)
from tests.shard_labellings import reassemble_labellings

FAMILIES = sorted(GRAPH_FAMILIES)
SEEDS = [101, 202]


def labelling_bytes(labelling, tmp_path, name: str) -> bytes:
    path = tmp_path / f"{name}.labels.json"
    save_labelling(labelling, path)
    return path.read_bytes()


def replay(oracle, events) -> None:
    for kind, (u, v) in events:
        if kind == "insert":
            oracle.insert_edge(u, v)
        else:
            oracle.remove_edge(u, v)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_replay_matches_full_oracle(family, seed, tmp_path):
    graph, rng = random_graph(seed, family=family, n_min=12, n_max=40)
    num_landmarks = rng.randint(2, 6)
    landmarks = top_degree_landmarks(graph, num_landmarks)
    num_shards = min(2 if num_landmarks < 4 else rng.choice([2, 3]),
                     num_landmarks)

    full = DynamicHCL.build(graph.copy(), landmarks=landmarks)
    plan = ShardPlan.for_landmarks(full.landmarks, num_shards)
    shards = [
        make_shard_oracle(full, plan, i) for i in range(num_shards)
    ]

    events = mixed_event_stream(graph, 30, rng)
    if not events:
        pytest.skip("graph saturated; no events")
    replay(full, events)
    for shard in shards:
        replay(shard, events)

    # Byte-identity after landmark-partition reassembly.
    reassembled = reassemble_labellings([s.labelling for s in shards])
    assert labelling_bytes(reassembled, tmp_path, "reassembled") == (
        labelling_bytes(full.labelling, tmp_path, "full")
    ), (family, seed)

    # Scatter-gather min over shard-local answers is globally exact.
    vertices = sorted(full.graph.vertices())
    check_rng = random.Random(seed * 31)
    for _ in range(25):
        if len(vertices) > 1:
            u, v = check_rng.sample(vertices, 2)
        else:
            u = v = vertices[0]
        expected = bfs_distances(full.graph, u).get(v, float("inf"))
        assert full.query(u, v) == expected, (family, seed, u, v)
        gathered = min(s.query(u, v) for s in shards)
        assert gathered == expected, (family, seed, u, v)
