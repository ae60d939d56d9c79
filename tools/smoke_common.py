"""Shared pieces of the serving/cluster smoke checks.

Both ``tools/serving_smoke.py`` and ``tools/cluster_smoke.py`` drive the
same wire protocol with the same closed-loop readers and verify answers
against the same reference BFS — one copy lives here (the tools run as
scripts, so their own directory is importable).
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter

from repro.serving.client import ServingClient
from repro.utils.rng import ensure_rng

INF = float("inf")


def bfs_distance(adj: dict[int, set[int]], u: int, v: int) -> float:
    """Reference distance on a plain adjacency-set mirror."""
    if u == v:
        return 0
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for w in adj[x]:
            if w not in dist:
                if w == v:
                    return dist[x] + 1
                dist[w] = dist[x] + 1
                queue.append(w)
    return INF


class QueryLoop(threading.Thread):
    """Closed-loop reader batching pairs through one `query_many` frame
    per round-trip (the serving hot path) instead of N `query` calls.

    Given an adjacency-set ``mirror``, the loop also checks every answer
    against :func:`bfs_distance` and counts mismatches in ``incorrect``;
    it stops at ``deadline`` or after ``limit`` pairs, and keeps a failed
    request in ``error``.
    """

    def __init__(self, host, port, vertices, seed, deadline, batch=16,
                 *, limit=INF, mirror=None, min_epoch=None):
        super().__init__(daemon=True)
        self.host, self.port = host, port
        self.vertices = vertices
        self.rng = ensure_rng(seed)
        self.deadline = deadline
        self.batch = batch
        self.limit = limit
        self.mirror = mirror
        self.min_epoch = min_epoch
        self.count = 0
        self.incorrect = 0
        self.error = None

    def run(self) -> None:
        try:
            self._loop()
        except Exception as exc:
            self.error = exc
            raise

    def _loop(self) -> None:
        with ServingClient(self.host, self.port) as client:
            choice = self.rng.choice
            while perf_counter() < self.deadline and self.count < self.limit:
                pairs = [
                    (choice(self.vertices), choice(self.vertices))
                    for _ in range(self.batch)
                ]
                answers = client.query_many(pairs, min_epoch=self.min_epoch)
                self.count += len(pairs)
                if self.mirror is not None:
                    self.incorrect += sum(
                        1
                        for (u, v), got in zip(pairs, answers)
                        if got != bfs_distance(self.mirror, u, v)
                    )
