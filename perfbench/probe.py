"""Host-speed probe: how fast one CPU runs interpreter work right now.

The benchmark's host is shared.  Other tenants slow each of its CPUs down
by up to ~1.6x, in phases lasting seconds to minutes, and independently
per CPU, so two runs of the same code differ by more than a regression
worth catching.  This probe runs on one CPU next to the system under test
and, every ``INTERVAL_S``, times a fixed burst of interpreter work shaped
like the system's own (a breadth-first search over dict-of-set
adjacency, about half a millisecond, about 2% of the CPU).  A burst that
takes ``k`` times its uncontended duration means the CPU ran ``k`` times
slower over that stretch; ``run.py`` divides latencies (and multiplies
rates) by that factor.

Usage: ``python3 probe.py CPU OUT`` pins itself to ``CPU`` and appends
``<clock> <burst seconds>`` lines to ``OUT`` until terminated.  The clock
is ``time.perf_counter``, which on Linux is the system-wide monotonic
clock, so the load generator can line the samples up with its requests.
"""

from __future__ import annotations

import os
import random
import signal
import sys
import time
from collections import deque

INTERVAL_S = 0.02


def make_graph(n: int = 600, degree: int = 6) -> dict[int, set[int]]:
    rng = random.Random(7)
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for v in range(n):
        for _ in range(degree // 2):
            u = rng.randrange(n)
            if u != v:
                adj[v].add(u)
                adj[u].add(v)
    return adj


def burst(adj: dict[int, set[int]], source: int) -> int:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return len(dist)


def main(argv: list[str]) -> int:
    cpu, out = int(argv[1]), argv[2]
    os.sched_setaffinity(0, {cpu})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    adj = make_graph()
    with open(out, "w", buffering=1) as handle:
        source = 0
        while not stop:
            start = time.perf_counter()
            burst(adj, source)
            end = time.perf_counter()
            handle.write(f"{end:.6f} {end - start:.7f}\n")
            source = (source + 1) % len(adj)
            time.sleep(INTERVAL_S)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
