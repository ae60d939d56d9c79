"""The served path keeps the labelling as dense rows and the graph as a CSR.

Loading a checkpoint, applying and publishing a mixed chunk, answering
distance and path reads, saving the oracle or a pinned snapshot, and
slicing and updating landmark shards must never build a dict
``LabelStore``, ``Highway`` or ``DynamicGraph``: their constructors are
patched to raise.
"""

from __future__ import annotations

import pytest

from repro.cluster.shards import ShardPlan, make_shard_oracle
from repro.core.dynamic import DynamicHCL
from repro.core.highway import Highway
from repro.core.labels import LabelStore
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.traversal import bfs_distances
from repro.serving.service import OracleService
from repro.utils.serialization import load_oracle, save_oracle
from repro.workloads.streams import UpdateEvent

from tests.conftest import non_edges, random_connected_graph


def _refuse(self, *args, **kwargs):
    raise AssertionError(f"{type(self).__name__} built on the served path")


def test_served_path_builds_no_dict_labelling(tmp_path, monkeypatch):
    graph = random_connected_graph(88, n_min=30, n_max=40)
    built = DynamicHCL.build(graph, num_landmarks=4, construction="csr")
    path = tmp_path / "oracle.bin"
    save_oracle(built, path)
    inserts = non_edges(graph)[:6]
    deletes = sorted(graph.edges())[:3]
    # The reference graph, replayed independently of the oracle.
    reference = graph.copy()
    for edge in inserts:
        reference.add_edge(*edge)
    for edge in deletes:
        reference.remove_edge(*edge)
    vertices = sorted(reference.vertices())
    pairs = [(vertices[0], v) for v in vertices[1:12]]
    table = bfs_distances(reference, vertices[0])
    shard_edge = non_edges(reference)[0]

    monkeypatch.setattr(LabelStore, "__init__", _refuse)
    monkeypatch.setattr(Highway, "__init__", _refuse)
    monkeypatch.setattr(DynamicGraph, "__init__", _refuse)

    oracle = load_oracle(path)
    pinned = oracle.snapshot()
    with OracleService(oracle) as service:
        service.submit_many(
            [UpdateEvent("insert", e) for e in inserts]
            + [UpdateEvent("delete", e) for e in deletes]
        )
        service.flush()
        snap = service.snapshot
        assert snap.epoch == len(inserts) + len(deletes)
        assert sorted(snap.graph.edges()) == sorted(reference.edges())
        assert service.query_many(pairs) == [
            table.get(v, float("inf")) for _, v in pairs
        ]
        assert bfs_distances(oracle.graph, vertices[0]) == table
        u, v = pairs[-1]
        route = service.shortest_path(u, v)
        assert route is None or len(route) - 1 == table[v]
    save_oracle(oracle, tmp_path / "after.bin")
    save_oracle(pinned, tmp_path / "pinned.bin")
    assert (tmp_path / "pinned.bin").read_bytes() == path.read_bytes()

    plan = ShardPlan.for_landmarks(oracle.landmarks, 2)
    shards = [make_shard_oracle(oracle, plan, i) for i in range(2)]
    for shard in shards:
        shard.insert_edge(*shard_edge)
        assert shard.snapshot().shortest_path(*pairs[0]) is not None
    oracle.insert_edge(*shard_edge)
    for a, b in pairs:
        assert min(s.query(a, b) for s in shards) == oracle.query(a, b)

    # Materializing the labelling, or detaching the graph, is the one
    # dict build, on request only.
    with pytest.raises(AssertionError, match="built on the served path"):
        _ = oracle.labelling
    with pytest.raises(AssertionError, match="built on the served path"):
        oracle.graph.copy()
