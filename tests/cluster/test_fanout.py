"""The router's pipelined read fan-out under concurrency and faults.

A sharded read takes one replica per shard group, writes the frame to
each under the replica's query lock, then reads the responses in group
order under one deadline for the whole frame.  These tests pin what that
must never get wrong: two frames in flight must not swap responses, a
stalled replica must cost one retryable error and leave no stale line
behind, and a crashed replica must fail over to its sibling.
"""

from __future__ import annotations

import asyncio
import threading
from time import monotonic, perf_counter, sleep

from repro.serving.client import ServingClient

from tests.cluster.conftest import ShardedCluster

#: Two frames whose answers differ in every position and in length on
#: the 4 x 4 grid of ``small_oracle`` (landmarks 0 and 15).
FRAME_A = [(0, 15), (0, 1), (5, 10)]
FRAME_B = [(3, 12), (0, 5), (4, 7), (1, 14), (9, 9)]


def _expected(oracle, pairs):
    return [oracle.query(u, v) for u, v in pairs]


def _wait_healthy(router, name, timeout=5.0):
    end = monotonic() + timeout
    while not router.replica_states()[name]["healthy"]:
        assert monotonic() < end, f"{name} never became healthy again"
        sleep(0.02)


def test_concurrent_frames_get_their_own_answers(small_oracle):
    """Two clients with different frames in flight at once through a
    2-shard router: each must read the answers to its own pairs, never
    the other frame's response from a shared replica connection."""
    fleet = ShardedCluster(small_oracle, shards=2, replicas=1)
    wrong: list = []

    def reader(pairs):
        expected = _expected(small_oracle, pairs)
        try:
            with ServingClient(*fleet.address) as client:
                for _ in range(150):
                    got = client.query_many(pairs)
                    if got != expected:
                        wrong.append((pairs, got))
        except Exception as exc:  # a failed frame fails the test too
            wrong.append((pairs, exc))

    try:
        threads = [
            threading.Thread(target=reader, args=(frame,))
            for frame in (FRAME_A, FRAME_B)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        fleet.close()
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong, wrong[:3]


def test_stalled_replica_times_out_and_leaves_no_stale_line(small_oracle):
    """A stalled shard replica turns the frame into a retryable error
    within ``read_timeout``; once it answers again, the next frame on
    that group reads its own answers, not the stalled frame's line."""
    timeout = 0.6
    fleet = ShardedCluster(small_oracle, shards=2, replicas=1, read_timeout=timeout)
    stalled = fleet.replicas[1]

    async def stall(request):
        await asyncio.sleep(3 * timeout)
        return stalled._dispatch_checked(request)

    try:
        with ServingClient(*fleet.address) as client:
            assert client.query_many(FRAME_A) == _expected(small_oracle, FRAME_A)
            stalled._async_ops["query_many"] = stall
            start = perf_counter()
            response = client.request(
                {"op": "query_many", "pairs": [list(p) for p in FRAME_A]}
            )
            elapsed = perf_counter() - start
            assert not response["ok"] and response["retryable"], response
            assert response["shard"] == 1
            assert elapsed < timeout + 0.5, elapsed
            del stalled._async_ops["query_many"]
            _wait_healthy(fleet.router, stalled.name)
            assert client.query_many(FRAME_B) == _expected(small_oracle, FRAME_B)
            sleep(3 * timeout)  # the stalled answer is due now: never read
            assert client.query_many(FRAME_A) == _expected(small_oracle, FRAME_A)
    finally:
        fleet.close()


def test_crashed_replica_fails_over_to_its_sibling(small_oracle):
    """A crashed shard replica costs no failed frame: its group's read
    is retried on the sibling replica of the same group."""
    fleet = ShardedCluster(small_oracle, shards=2, replicas=2)
    try:
        with ServingClient(*fleet.address) as client:
            assert client.query_many(FRAME_A) == _expected(small_oracle, FRAME_A)
            victim = next(s for s in fleet.replicas if s.name == "s1r0")
            victim.stop_thread()
            for frame in (FRAME_A, FRAME_B) * 4:
                assert client.query_many(frame) == _expected(small_oracle, frame)
            assert not fleet.router.replica_states()["s1r0"]["healthy"]
    finally:
        fleet.close()
