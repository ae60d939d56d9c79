"""Oracle checkpoints round-trip over the mixed-stream replay matrix.

For every graph family × seed, an oracle replays a mixed insert/delete
stream in random batches; after every batch its ``save_oracle`` file must

* load back to the same labelling, graph and engine rows, and re-save to
  the same bytes;
* equal, byte for byte, the save of a pinned snapshot of it and the save
  of a fresh ``csr`` build on the same graph — update history is
  unobservable in the file;
* keep answering and updating exactly: the restored oracle applies the
  next batch to the same state as the original.

A shard checkpoint round-trips as a shard of the same owned landmarks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.shards import ShardPlan, make_shard_oracle
from repro.core.dynamic import DynamicHCL
from repro.landmarks.selection import top_degree_landmarks
from repro.utils.serialization import load_oracle, save_oracle

from tests.proptest.strategies import (
    GRAPH_FAMILIES,
    mixed_event_stream,
    random_batches,
    random_graph,
)

FAMILIES = sorted(GRAPH_FAMILIES)


def saved(oracle, tmp_path, name: str) -> bytes:
    path = tmp_path / f"{name}.oracle"
    save_oracle(oracle, path)
    return path.read_bytes()


def rows_by_id(oracle) -> tuple[list[int], dict[int, tuple]]:
    """The engine's rows keyed by vertex id: ``(row landmarks, {v:
    (distances, entries)})``, independent of overlay order."""
    rows, dyn, dist, entry = oracle.checkpoint_rows()
    return rows, {
        int(v): (tuple(dist[:, i].tolist()), tuple(entry[:, i].tolist()))
        for i, v in enumerate(dyn.ids.tolist())
    }


def check_round_trip(oracle, tmp_path) -> DynamicHCL:
    data = saved(oracle, tmp_path, "original")
    restored = load_oracle(tmp_path / "original.oracle")
    assert restored.labelling == oracle.labelling
    assert sorted(restored.graph.edges()) == sorted(oracle.graph.edges())
    assert sorted(restored.graph.vertices()) == sorted(oracle.graph.vertices())
    assert restored.owned_landmarks == oracle.owned_landmarks
    assert rows_by_id(restored) == rows_by_id(oracle)
    assert saved(restored, tmp_path, "resaved") == data
    assert saved(oracle.snapshot(), tmp_path, "pinned") == data
    return restored


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", [7, 8])
def test_checkpoint_round_trips_along_a_mixed_stream(family, seed, tmp_path):
    graph, rng = random_graph(seed, family=family, n_min=10, n_max=32)
    landmarks = top_degree_landmarks(graph, rng.randint(1, 5))
    oracle = DynamicHCL.build(graph.copy(), landmarks=landmarks)
    events = mixed_event_stream(oracle.graph, 24, rng)
    for batch in random_batches(events, rng, max_batch=5):
        restored = check_round_trip(oracle, tmp_path)
        oracle.apply_events_batch(batch)
        restored.apply_events_batch(batch)
        assert restored.labelling == oracle.labelling
        assert rows_by_id(restored) == rows_by_id(oracle)
    fresh = DynamicHCL.build(
        oracle.graph.copy(), landmarks=landmarks, construction="csr"
    )
    assert saved(fresh, tmp_path, "fresh") == saved(oracle, tmp_path, "final")


@pytest.mark.parametrize("family", FAMILIES)
def test_shard_checkpoint_round_trips_as_a_shard(family, tmp_path):
    graph, rng = random_graph(31, family=family, n_min=12, n_max=32)
    landmarks = top_degree_landmarks(graph, rng.randint(2, 5))
    full = DynamicHCL.build(graph.copy(), landmarks=landmarks)
    plan = ShardPlan.for_landmarks(full.landmarks, 2)
    shards = [make_shard_oracle(full, plan, i) for i in range(2)]
    events = mixed_event_stream(full.graph, 12, rng)
    for batch in random_batches(events, rng, max_batch=4):
        for shard in shards:
            shard.apply_events_batch(batch)
    for i, shard in enumerate(shards):
        restored = check_round_trip(shard, tmp_path)
        assert restored.owned_landmarks == plan.owned(i)
        assert restored.landmarks == full.landmarks
        # Restricting a shard checkpoint to its own shard keeps it as is.
        again = make_shard_oracle(restored, plan, i, copy_graph=False)
        assert again.labelling == shard.labelling
        assert np.array_equal(
            again.checkpoint_rows()[2], restored.checkpoint_rows()[2]
        )
