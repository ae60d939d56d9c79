"""Shared cluster-test helpers: in-process replica fleets.

Most cluster tests run the real :class:`ReplicaServer` /
:class:`ClusterRouter` stack over real sockets but keep every component
in-process (threaded event loops) — exercising the exact protocol and
fan-out code without paying a ``multiprocessing`` spawn per test.  Only
``test_supervisor.py`` spawns real replica processes.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterRouter,
    ReplicaServer,
    ShardPlan,
    UpdateLog,
    make_shard_oracle,
)
from repro.core.dynamic import DynamicHCL
from repro.serving.service import OracleService


def make_replica(oracle: DynamicHCL, name: str, applied_seq: int = 0) -> ReplicaServer:
    """An in-process replica serving a *copy* of ``oracle`` (replicas must
    never share state)."""
    copy = DynamicHCL(oracle.graph.copy(), oracle.labelling.copy())
    server = ReplicaServer(
        OracleService(copy), name=name, port=0, applied_seq=applied_seq
    )
    server.start_in_thread()
    return server


class InProcessCluster:
    """A router plus N in-process replicas, all on real sockets."""

    def __init__(self, oracle: DynamicHCL, replicas: int = 2, log: UpdateLog | None = None):
        self.replicas = [make_replica(oracle, f"r{i}") for i in range(replicas)]
        self.log = log if log is not None else UpdateLog()
        self.router = ClusterRouter(self.log, port=0, read_timeout=2.0)
        self.address = self.router.start_in_thread()
        for server in self.replicas:
            self.router.add_replica_from_thread(server.name, *server.address)

    def close(self) -> None:
        self.router.stop_thread()
        for server in self.replicas:
            server.stop_thread()


class ShardedCluster:
    """shards x replicas in-process fleet behind a sharded router."""

    def __init__(
        self,
        oracle: DynamicHCL,
        shards: int = 2,
        replicas: int = 1,
        read_timeout: float = 2.0,
    ):
        self.plan = ShardPlan.for_landmarks(oracle.landmarks, shards)
        self.replicas: list[ReplicaServer] = []
        self.log = UpdateLog()
        self.router = ClusterRouter(
            self.log, port=0, read_timeout=read_timeout, shards=shards
        )
        self.address = self.router.start_in_thread()
        for i in range(shards):
            for j in range(replicas):
                shard = make_shard_oracle(oracle, self.plan, i)
                server = ReplicaServer(
                    OracleService(shard), name=f"s{i}r{j}", port=0,
                    shard_index=i,
                    shard_meta={**self.plan.to_meta(), "shard_index": i},
                )
                server.start_in_thread()
                self.replicas.append(server)
                self.router.add_replica_from_thread(
                    server.name, *server.address, shard=i
                )

    def close(self) -> None:
        self.router.stop_thread()
        for server in self.replicas:
            server.stop_thread()


@pytest.fixture
def small_oracle():
    from repro.graph.generators import grid_graph

    return DynamicHCL.build(grid_graph(4, 4), landmarks=[0, 15])
