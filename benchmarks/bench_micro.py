"""Micro-benchmarks of the primitive operations everything is built on.

Unlike the table/figure benches these use pytest-benchmark's statistical
timing (many rounds) because the operations are microseconds-scale:

* one exact query (label join + bounded bidirectional search);
* one label-only upper bound (Eq. 2);
* one landmark query (Eq. 1 decoding — the IncHL+ hot path);
* one full BFS (the construction primitive);
* one IncHL+ edge insertion + the matching decremental deletion.
"""

import itertools

import pytest

from repro.core.construction import build_hcl
from repro.core.dynamic import DynamicHCL
from repro.core.query import landmark_distance, query_distance, upper_bound
from repro.graph.traversal import bfs_distances
from repro.workloads.queries import sample_query_pairs
from repro.workloads.updates import sample_edge_insertions

_DATASET = "flickr-s"  # representative social stand-in


@pytest.fixture(scope="module")
def setup(cache):
    spec, graph, _, _ = cache.dataset(_DATASET)
    oracle = DynamicHCL.build(graph.copy(), num_landmarks=spec.num_landmarks)
    pairs = sample_query_pairs(oracle.graph, 512, rng=9)
    return oracle, pairs


def test_single_query(benchmark, setup):
    oracle, pairs = setup
    cycle = itertools.cycle(pairs)
    benchmark(lambda: oracle.query(*next(cycle)))


def test_upper_bound_only(benchmark, setup):
    oracle, pairs = setup
    labelling = oracle.labelling
    non_landmark_pairs = [
        (u, v) for u, v in pairs
        if u not in labelling.landmark_set and v not in labelling.landmark_set
    ]
    cycle = itertools.cycle(non_landmark_pairs)
    benchmark(lambda: upper_bound(labelling, *next(cycle)))


def test_landmark_query(benchmark, setup):
    oracle, pairs = setup
    labelling = oracle.labelling
    r = oracle.landmarks[0]
    cycle = itertools.cycle([v for _, v in pairs])
    benchmark(lambda: landmark_distance(labelling, r, next(cycle)))


def test_full_bfs(benchmark, setup):
    oracle, _ = setup
    benchmark(lambda: bfs_distances(oracle.graph, oracle.landmarks[0]))


def test_static_construction(benchmark, setup):
    oracle, _ = setup
    benchmark.pedantic(
        lambda: build_hcl(oracle.graph, oracle.landmarks),
        rounds=3, iterations=1,
    )


def test_insert_then_delete_roundtrip(benchmark, setup):
    """One IncHL+ insertion plus the decremental deletion that undoes it —
    a steady-state micro-benchmark that leaves the oracle unchanged."""
    oracle, _ = setup
    candidates = itertools.cycle(
        sample_edge_insertions(oracle.graph, 64, rng=10)
    )

    def roundtrip():
        u, v = next(candidates)
        oracle.insert_edge(u, v)
        oracle.remove_edge(u, v)

    benchmark.pedantic(roundtrip, rounds=30, iterations=1)
