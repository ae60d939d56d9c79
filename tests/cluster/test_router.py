"""ClusterRouter: write fan-out, read routing, epoch gating, aggregation."""

from __future__ import annotations

from time import sleep

import pytest

from repro.cluster import ClusterRouter, UpdateLog
from repro.serving.client import ServingClient

from tests.cluster.conftest import InProcessCluster


@pytest.fixture
def cluster(small_oracle):
    fleet = InProcessCluster(small_oracle, replicas=2)
    client = ServingClient(*fleet.address)
    yield fleet, client
    client.close()
    fleet.close()


def _drain(client):
    response = client.snapshot()
    assert response["ok"]
    return response


def test_same_protocol_as_single_node(cluster):
    _, client = cluster
    assert client.ping()
    assert client.query(0, 15) == 6
    assert client.query_many([(0, 15), (0, 1)]) == [6, 1]
    path = client.path(0, 15)
    assert path[0] == 0 and path[-1] == 15 and len(path) - 1 == 6


def test_write_fans_out_to_every_replica(cluster):
    fleet, client = cluster
    response = client.updates([("insert", 0, 15), ("insert", 1, 14)])
    assert response["ok"] and response["epoch"] == 2
    drained = _drain(client)
    assert drained["replicas"] == {"r0": 2, "r1": 2}
    assert client.query(0, 15) == 1
    # Both replica oracles actually applied both events.
    for server in fleet.replicas:
        assert server.applied_seq == 2
        assert server.service.oracle.query(0, 15) == 1


def test_read_your_writes_via_min_epoch(cluster):
    _, client = cluster
    response = client.update("insert", 0, 15)
    epoch = response["epoch"]
    # Gated read: must reflect the write no matter which replica answers.
    for _ in range(8):
        assert client.query(0, 15, min_epoch=epoch) == 1


def test_read_response_carries_replica_epoch(cluster):
    _, client = cluster
    client.update("insert", 0, 15)
    _drain(client)
    raw = client.request({"op": "query", "u": 0, "v": 15})
    assert raw["ok"] and raw["epoch"] == 1


def test_min_epoch_beyond_head_rejected(cluster):
    _, client = cluster
    raw = client.request({"op": "query", "u": 0, "v": 15, "min_epoch": 99})
    assert not raw["ok"]
    assert "beyond the log head" in raw["error"]


def test_reads_below_requested_epoch_never_served_without_replicas(small_oracle):
    """A router whose replicas cannot reach the epoch refuses the read
    (after the bounded wait) instead of serving stale data."""
    log = UpdateLog()
    log.append("insert", 0, 15)  # head=1, but nobody to apply it
    router = ClusterRouter(log, port=0, read_timeout=0.3)
    host, port = router.start_in_thread()
    try:
        with ServingClient(host, port) as client:
            raw = client.request(
                {"op": "query", "u": 0, "v": 15, "min_epoch": 1}
            )
            assert not raw["ok"]
            assert "no replica caught up to epoch 1" in raw["error"]
            assert raw.get("retryable")
            plain = client.request({"op": "query", "u": 0, "v": 15})
            assert not plain["ok"]
            assert "no healthy replica" in plain["error"]
    finally:
        router.stop_thread()


def test_invalid_writes_never_reach_the_log(cluster):
    fleet, client = cluster
    for bad in (
        {"op": "update", "kind": "upsert", "u": 0, "v": 1},
        {"op": "update", "kind": "insert", "u": 0, "v": 0},
        {"op": "update", "kind": "insert", "u": -1, "v": 1},
        {"op": "update", "kind": "insert", "u": "x", "v": 1},
        {"op": "updates", "events": [["insert", 1, 2], ["delete", 3, 3]]},
    ):
        response = client.request(bad)
        assert not response["ok"]
    assert fleet.log.head == 0  # the partially-bad batch appended nothing


def test_vertex_id_beyond_int64_never_reaches_the_log(cluster):
    """Replicas store ids as int64, so a larger id is refused before the
    WAL append: logged, it would degrade every replica on apply and again
    on every replay."""
    fleet, client = cluster
    for u, v in ((0, 2**63), (2**64 + 1, 3)):
        response = client.request(
            {"op": "update", "kind": "insert", "u": u, "v": v}
        )
        assert not response["ok"]
        assert response["error"] == (
            f"invalid edge ({u!r}, {v!r}); nothing was logged"
        )
    assert fleet.log.head == 0
    assert client.update("insert", 0, 15)["ok"]
    _drain(client)
    assert client.query(0, 15) == 1


@pytest.mark.parametrize(
    "request_",
    [
        {"op": "query", "u": 0.9, "v": 15},
        {"op": "query", "u": True, "v": 15},
        {"op": "query_many", "pairs": [[15.5, 0]]},
        {"op": "path", "u": 0.5, "v": 15},
    ],
    ids=["query-float", "query-bool", "query_many-float", "path-float"],
)
def test_reads_with_non_integer_ids_are_rejected(cluster, request_):
    """Reads are forwarded verbatim, so the replicas' dispatch must
    refuse ids that ``int()`` would truncate to real vertices."""
    _, client = cluster
    response = client.request(request_)
    assert not response["ok"]
    assert "vertex ids must be non-negative ints" in response["error"]


def test_duplicate_insert_rejected_identically_on_all_replicas(cluster):
    fleet, client = cluster
    client.update("insert", 0, 15)
    client.update("insert", 0, 15)  # duplicate: logged, rejected at apply
    _drain(client)
    stats = client.stats()
    for entry in stats["replicas"].values():
        assert entry["service"]["events_applied"] == 1
        assert entry["service"]["events_rejected"] == 1
    assert stats["aggregate"]["events_applied"] == 2  # 1 per replica


def test_stats_aggregation_and_lag(cluster):
    _, client = cluster
    client.updates([("insert", 0, 15), ("insert", 1, 14)])
    _drain(client)
    client.query(0, 15)
    stats = client.stats()
    assert stats["role"] == "router"
    assert stats["log_head"] == 2 and stats["log_base"] == 0
    assert stats["writes_appended"] == 2
    assert stats["reads_routed"] >= 1
    assert set(stats["replicas"]) == {"r0", "r1"}
    for entry in stats["replicas"].values():
        assert entry["healthy"] and entry["acked_seq"] == 2 and entry["lag"] == 0
    agg = stats["aggregate"]
    assert agg["events_applied"] == 4  # every replica applied both
    assert agg["queries"]["count"] >= 1


def test_replica_failure_fails_over_and_recovers(cluster):
    fleet, client = cluster
    client.update("insert", 0, 15)
    _drain(client)
    # Kill one replica server; reads keep working through the other.
    victim = fleet.replicas[0]
    victim.stop_thread()
    for _ in range(6):
        assert client.query(0, 15) == 1
    deadline = 50
    while deadline:
        states = {
            name: entry["healthy"]
            for name, entry in client.stats()["replicas"].items()
        }
        if not states[victim.name]:
            break
        sleep(0.1)
        deadline -= 1
    assert not states[victim.name]
    # Writes still ack (log + surviving replica) and reads still answer.
    response = client.update("insert", 1, 14)
    assert response["ok"]
    assert client.query(1, 14, min_epoch=response["epoch"]) == 1


def test_remove_replica(cluster):
    fleet, client = cluster
    fleet.router.remove_replica_from_thread("r0")
    assert client.stats()["replicas"].keys() == {"r1"}
    assert client.query(0, 15) == 6


def test_round_robin_spreads_reads_evenly(small_oracle):
    """Regression: the old rotation used one global counter modulo the
    *per-call* eligible list, which could starve replicas.  Rotation over
    stable sorted membership must spread a read burst near-uniformly."""
    fleet = InProcessCluster(small_oracle, replicas=3)
    try:
        with ServingClient(*fleet.address) as client:
            for _ in range(30):
                assert client.query(0, 15) == 6
            stats = client.stats()
        counts = {
            name: entry["service"]["queries"]["count"]
            for name, entry in stats["replicas"].items()
        }
    finally:
        fleet.close()
    assert sum(counts.values()) == 30
    # Perfect rotation gives 10/10/10; allow a little slack for the
    # health/stats traffic interleaving, never starvation.
    assert all(count >= 8 for count in counts.values()), counts


def test_read_retries_readmit_recovered_replica(small_oracle):
    """Regression: a read that had failed over every replica kept them
    all in its per-request ``excluded`` set, so the retry loop span until
    the deadline even after a replica recovered.  The set is now cleared
    between waits: an in-flight read must succeed as soon as a
    replacement replica catches up."""
    from threading import Thread

    from tests.cluster.conftest import make_replica

    log = UpdateLog()
    router = ClusterRouter(log, port=0, read_timeout=8.0)
    host, port = router.start_in_thread()
    first = make_replica(small_oracle, "r0")
    replacement = None
    result: dict = {}
    try:
        router.add_replica_from_thread("r0", *first.address)
        with ServingClient(host, port) as warm:
            assert warm.query(0, 15) == 6
        first.stop_thread()  # die mid-read: the next attempt fails over

        def read():
            with ServingClient(host, port) as client:
                result.update(client.request({"op": "query", "u": 0, "v": 15}))

        reader = Thread(target=read)
        reader.start()
        sleep(0.6)  # the read has failed on r0 and is in its wait loop
        assert reader.is_alive()
        replacement = make_replica(small_oracle, "r0")
        router.set_replica_address_from_thread("r0", *replacement.address)
        reader.join(timeout=6.0)
        assert not reader.is_alive(), "read did not re-admit the recovered replica"
    finally:
        router.stop_thread()
        if replacement is not None:
            replacement.stop_thread()
    assert result.get("ok"), result
    assert result["distance"] == 6


def test_read_deadline_expires_quietly_but_passes_a_real_cancel_on():
    """The frame deadline cancels its own task once and swallows that
    cancellation; a cancellation from elsewhere (a server stop) must
    still reach the caller."""
    import asyncio

    from repro.cluster.router import _Deadline

    async def scenario():
        loop = asyncio.get_running_loop()
        with _Deadline(loop.time() + 0.05) as timer:
            await asyncio.sleep(5)
        assert timer.expired
        await asyncio.sleep(0)  # the task stays usable after expiry

        async def parked():
            with _Deadline(loop.time() + 5):
                await asyncio.sleep(5)

        task = loop.create_task(parked())
        await asyncio.sleep(0.05)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    asyncio.run(scenario())
