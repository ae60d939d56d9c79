"""Benchmark inputs, made from the seed before any timing starts.

* The **graph** is the repository's stand-in dataset (default profile,
  dataset seed 2021), generated once per checkout by a child process with a
  fixed ``PYTHONHASHSEED`` (the dataset generator seeds itself from a
  string hash) and cached as an edge list under ``.perfbench/cache``.
* The **traffic** (query pairs, insertion and mixed update streams) comes
  from ``--seed`` and is cached per seed.  The mixed stream has the
  semantics of ``repro.workloads.streams.mixed_stream`` (each event is an
  insertion of a uniform non-edge with probability 0.8, else a deletion of
  a uniform live edge) but keeps its live edges in an indexable list, so
  thousands of events take milliseconds instead of seconds.
* :class:`Mirror` replays the same events on the benchmark's own copy of
  the graph and answers exact distances by BFS, to check the system.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np

DATASET_SEED = 2021
_GENERATOR_SOURCES = (
    "src/repro/workloads/datasets.py",
    "src/repro/graph/generators.py",
)

_GENERATE = """
import sys
from repro.workloads.datasets import build_dataset
spec, graph = build_dataset(sys.argv[1], profile="default", seed=int(sys.argv[2]))
with open(sys.argv[3], "w") as out:
    for u, v in sorted(graph.edges()):
        out.write(f"{u} {v}\\n")
print(spec.num_landmarks)
"""


def dataset(root: Path, cache: Path, name: str) -> dict:
    """Edge list path, edges array, |R| and cache folder of dataset
    ``name``.  The folder name carries a hash of the generator sources, so
    a checkout whose generators differ never reads another's graph."""
    digest = hashlib.sha256()
    for source in _GENERATOR_SOURCES:
        digest.update((root / source).read_bytes())
    folder = cache / f"{name}-default-{DATASET_SEED}-{digest.hexdigest()[:12]}"
    edge_list = folder / "edges.txt"
    meta_path = folder / "meta.json"
    if not meta_path.exists():
        folder.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        out = subprocess.run(
            [sys.executable, "-c", _GENERATE, name, str(DATASET_SEED),
             str(edge_list)],
            env=env, check=True, capture_output=True, text=True, timeout=600,
        )
        meta_path.write_text(json.dumps({"landmarks": int(out.stdout)}))
    edges = np.loadtxt(edge_list, dtype=np.int64, ndmin=2)
    meta = json.loads(meta_path.read_text())
    return {"edge_list": edge_list, "edges": edges, "landmarks": meta["landmarks"],
            "folder": folder}


def _cached(path: Path, make) -> np.ndarray:
    if path.exists():
        return np.load(path)
    array = make()
    path.parent.mkdir(parents=True, exist_ok=True)
    np.save(path.with_suffix(".tmp.npy"), array)
    os.replace(path.with_suffix(".tmp.npy"), path)
    return array


def query_pairs(cache: Path, tag: str, edges: np.ndarray, seed: int,
                count: int) -> np.ndarray:
    """``count`` uniform pairs of distinct vertices, shape ``(count, 2)``."""

    def make():
        vertices = np.unique(edges)
        rng = np.random.default_rng([seed, 1])
        pairs = rng.choice(vertices, size=(count * 2, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]][:count]
        return pairs.astype(np.int64)

    return _cached(cache / f"{tag}-seed{seed}" / "pairs.npy", make)


def update_stream(cache: Path, tag: str, edges: np.ndarray, seed: int,
                  count: int, insert_ratio: float) -> np.ndarray:
    """``count`` events ``(is_insert, u, v)`` valid in order against the
    evolving graph; ``insert_ratio`` 1.0 gives the insertion-only stream."""

    def make():
        rng = random.Random(seed * 1_000_003 + 7)
        vertices = np.unique(edges).tolist()
        live = [(int(u), int(v)) if u < v else (int(v), int(u)) for u, v in edges]
        index = {edge: i for i, edge in enumerate(live)}
        out = np.empty((count, 3), dtype=np.int64)
        for i in range(count):
            if rng.random() < insert_ratio or not live:
                while True:
                    u, v = rng.choice(vertices), rng.choice(vertices)
                    edge = (u, v) if u < v else (v, u)
                    if u != v and edge not in index:
                        break
                index[edge] = len(live)
                live.append(edge)
                out[i] = (1, *edge)
            else:
                j = rng.randrange(len(live))
                edge = live[j]
                last = live.pop()
                if j < len(live):
                    live[j] = last
                    index[last] = j
                del index[edge]
                out[i] = (0, *edge)
        return out

    name = "inserts.npy" if insert_ratio == 1.0 else "mixed.npy"
    stream = _cached(cache / f"{tag}-seed{seed}" / name, make)
    if len(stream) < count:  # cached from a shorter run: regenerate
        (cache / f"{tag}-seed{seed}" / name).unlink()
        stream = _cached(cache / f"{tag}-seed{seed}" / name, make)
    return stream[:count]


def wire_events(stream: np.ndarray) -> list[list]:
    """Events in the NDJSON ``updates`` form ``[kind, u, v]``."""
    return [["insert" if k else "delete", int(u), int(v)] for k, u, v in stream]


class Mirror:
    """The benchmark's own copy of the evolving graph."""

    def __init__(self, edges: np.ndarray) -> None:
        self.adj: dict[int, set[int]] = {}
        for u, v in edges.tolist():
            self.adj.setdefault(u, set()).add(v)
            self.adj.setdefault(v, set()).add(u)

    def apply(self, events) -> None:
        for kind, u, v in events:
            if kind == "insert":
                self.adj.setdefault(u, set()).add(v)
                self.adj.setdefault(v, set()).add(u)
            else:
                self.adj[u].discard(v)
                self.adj[v].discard(u)

    def distance(self, u: int, v: int) -> int | None:
        """Exact hop distance by bidirectional BFS (``None``: unreachable)."""
        if u == v:
            return 0
        adj = self.adj
        dist = ({u: 0}, {v: 0})
        frontier = (deque([u]), deque([v]))
        while frontier[0] and frontier[1]:
            side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
            mine, other = dist[side], dist[1 - side]
            best = None
            for _ in range(len(frontier[side])):
                x = frontier[side].popleft()
                for y in adj.get(x, ()):
                    if y in other:
                        total = mine[x] + 1 + other[y]
                        best = total if best is None else min(best, total)
                    elif y not in mine:
                        mine[y] = mine[x] + 1
                        frontier[side].append(y)
            if best is not None:
                return best
        return None

    def distances(self, pairs) -> list[int | None]:
        """Exact distances for many pairs: one C-level BFS per source."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        ids = sorted(self.adj)
        col = {v: i for i, v in enumerate(ids)}
        rows, cols = [], []
        for u, nbrs in self.adj.items():
            for v in nbrs:
                rows.append(col[u])
                cols.append(col[v])
        matrix = csr_matrix(
            (np.ones(len(rows), dtype=np.int8), (rows, cols)),
            shape=(len(ids), len(ids)),
        )
        sources = sorted({u for u, _ in pairs})
        row_of = {u: i for i, u in enumerate(sources)}
        table = shortest_path(
            matrix, unweighted=True, directed=False,
            indices=[col[u] for u in sources],
        )
        out = []
        for u, v in pairs:
            d = table[row_of[u], col[v]]
            out.append(None if np.isinf(d) else int(d))
        return out
