"""Property (a)+(b)+(c): fast == slow == ground truth, per graph family.

A deterministic seed matrix (family × seed) drives random insertion
streams through four independently maintained labellings:

* ``seq``   — the paper's dict kernels, one edge at a time (the reference);
* ``fast``  — a ``DynamicHCL`` (vectorized CSR engine), one edge at a time;
* ``batch`` — the dict batch kernel, random batch splits;
* ``fastb`` — a ``DynamicHCL``, the same batch splits.

``seq`` and ``batch`` are plain ``(graph, labelling)`` pairs driven
through :mod:`repro.core.inchl`, :mod:`repro.core.batch` and
:func:`repro.core.batch.replay_events` — never through the oracle, so
the comparison is always engine versus paper kernel.

After every step all labellings must be *equal* (same highway cells, same
label entries — byte-identity in the stores' canonical dict form), and at
checkpoints every pairwise query must match BFS ground truth.
"""

import random

import pytest

from repro.core.batch import apply_edge_insertions_batch, replay_events
from repro.core.construction import build_hcl
from repro.core.dynamic import DynamicHCL
from repro.graph.traversal import bfs_distances
from repro.landmarks.selection import top_degree_landmarks

from tests.proptest.strategies import (
    GRAPH_FAMILIES,
    insertion_stream,
    mixed_event_stream,
    random_batches,
    random_graph,
)

FAMILIES = sorted(GRAPH_FAMILIES)
SEEDS = [101, 202]
STRESS_SEEDS = [303, 404, 505]


def reference(graph, landmarks):
    """A ``(graph, labelling)`` pair over a private copy of ``graph``."""
    working = graph.copy()
    return working, build_hcl(working, landmarks)


def build_oracles(graph, rng):
    """Two references and two oracles over independent copies of
    ``graph``, same landmarks."""
    num_landmarks = rng.randint(1, 6)
    landmarks = top_degree_landmarks(graph, num_landmarks)
    seq = reference(graph, landmarks)
    fast = DynamicHCL.build(graph.copy(), landmarks=landmarks)
    batch = reference(graph, landmarks)
    fastb = DynamicHCL.build(graph.copy(), landmarks=landmarks)
    return seq, fast, batch, fastb


def insert_batch_ref(ref, edges):
    graph, labelling = ref
    for u, v in edges:
        graph.add_edge(u, v)
    apply_edge_insertions_batch(graph, labelling, edges)


def assert_queries_match_bfs(oracle, rng, samples=25):
    vertices = sorted(oracle.graph.vertices())
    for _ in range(samples):
        u, v = rng.sample(vertices, 2) if len(vertices) > 1 else (vertices[0],) * 2
        expected = bfs_distances(oracle.graph, u).get(v, float("inf"))
        assert oracle.query(u, v) == expected, (u, v)


def run_stream(family: str, seed: int, stream_length: int):
    graph, rng = random_graph(seed, family=family)
    seq, fast, batch, fastb = build_oracles(graph, rng)
    stream = insertion_stream(graph, stream_length, rng)
    if not stream:
        pytest.skip("graph saturated; no insertable edges")
    batches = random_batches(stream, rng)

    # (a) fast vs slow, per single update.
    for i, (u, v) in enumerate(stream):
        replay_events(*seq, [("insert", (u, v))])
        fast.insert_edge(u, v)
        assert fast.labelling == seq[1], (family, seed, i)

    # (c) batch-apply equals one-at-a-time apply, in both engines.
    for j, chunk in enumerate(batches):
        insert_batch_ref(batch, chunk)
        fastb.insert_edges_batch(chunk)
        assert batch[1] == fastb.labelling, (family, seed, "batch", j)
    assert batch[1] == seq[1], (family, seed, "batch-vs-seq")
    assert fastb.labelling == seq[1], (family, seed, "fastb-vs-seq")

    # (b) queries match BFS ground truth on the final graph.
    assert_queries_match_bfs(fast, rng)
    assert_queries_match_bfs(fastb, rng)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_fast_slow_batch_equivalence(family, seed):
    run_stream(family, seed, stream_length=14)


@pytest.mark.slow
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_fast_slow_batch_equivalence_stress(family, seed):
    """Nightly-scale streams: bigger graphs, longer streams."""
    import zlib

    graph, rng = random_graph(
        seed * 7 + zlib.crc32(family.encode()) % 1000, family=family,
        n_min=40, n_max=120,
    )
    seq, fast, batch, fastb = build_oracles(graph, rng)
    stream = insertion_stream(graph, 60, rng)
    if not stream:
        pytest.skip("graph saturated; no insertable edges")
    for i, (u, v) in enumerate(stream):
        replay_events(*seq, [("insert", (u, v))])
        fast.insert_edge(u, v)
    assert fast.labelling == seq[1]
    for chunk in random_batches(stream, rng, max_batch=12):
        insert_batch_ref(batch, chunk)
        fastb.insert_edges_batch(chunk)
    assert batch[1] == seq[1]
    assert fastb.labelling == seq[1]
    assert_queries_match_bfs(fast, rng, samples=60)


def run_mixed_stream(family: str, seed: int, stream_length: int,
                     max_batch: int = 6):
    """Mixed insert/delete matrix: four maintenance routes over the same
    event stream must stay byte-identical at every step.

    * ``seq``   — one event at a time on the paper's kernels (IncHL+
      insertions, DecHL deletions);
    * ``fast``  — one event at a time on the vectorized mixed engine;
    * ``batch`` — random event batches replayed through the paper's
      kernels (:func:`~repro.core.batch.replay_events`);
    * ``fastb`` — the same batches through the BatchHL-style mixed batch
      engine.
    """
    graph, rng = random_graph(seed, family=family)
    seq, fast, batch, fastb = build_oracles(graph, rng)
    events = mixed_event_stream(graph, stream_length, rng)
    if not events:
        pytest.skip("graph saturated; no applicable events")
    batches = random_batches(events, rng, max_batch=max_batch)

    for i, (kind, (u, v)) in enumerate(events):
        replay_events(*seq, [(kind, (u, v))])
        if kind == "insert":
            fast.insert_edge(u, v)
        else:
            fast.remove_edge(u, v)
        assert fast.labelling == seq[1], (family, seed, i, kind)

    for j, chunk in enumerate(batches):
        replay_events(*batch, chunk)
        fastb.apply_events_batch(chunk)
        assert batch[1] == fastb.labelling, (family, seed, "batch", j)
    assert batch[1] == seq[1], (family, seed, "batch-vs-seq")
    assert fastb.labelling == seq[1], (family, seed, "fastb-vs-seq")
    assert fast.version == fastb.version == len(events)

    assert_queries_match_bfs(fast, rng)
    assert_queries_match_bfs(fastb, rng)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_stream_equivalence(family, seed):
    run_mixed_stream(family, seed, stream_length=14)


@pytest.mark.slow
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_mixed_stream_equivalence_stress(family, seed):
    """Nightly-scale mixed streams: bigger graphs, longer streams."""
    import zlib

    graph, rng = random_graph(
        seed * 11 + zlib.crc32(family.encode()) % 1000, family=family,
        n_min=40, n_max=100,
    )
    seq, fast, batch, fastb = build_oracles(graph, rng)
    events = mixed_event_stream(graph, 50, rng)
    if not events:
        pytest.skip("graph saturated; no applicable events")
    for kind, (u, v) in events:
        replay_events(*seq, [(kind, (u, v))])
        if kind == "insert":
            fast.insert_edge(u, v)
        else:
            fast.remove_edge(u, v)
    assert fast.labelling == seq[1]
    for chunk in random_batches(events, rng, max_batch=10):
        replay_events(*batch, chunk)
        fastb.apply_events_batch(chunk)
    assert batch[1] == seq[1]
    assert fastb.labelling == seq[1]
    assert_queries_match_bfs(fastb, rng, samples=60)


def test_mixed_ops_keep_engines_equal():
    """Interleaved deletions/landmark changes between fast insertions."""
    rng = random.Random(9090)
    graph, _ = random_graph(77, family="erdos-renyi", n_min=20, n_max=30,
                            connected=True)
    landmarks = top_degree_landmarks(graph, 3)
    fast = DynamicHCL.build(graph.copy(), landmarks=landmarks)
    ref = reference(graph, landmarks)
    for step in range(30):
        action = rng.random()
        if action < 0.55:
            stream = insertion_stream(fast.graph, 1, rng)
            if not stream:
                continue
            fast.insert_edge(*stream[0])
            replay_events(*ref, [("insert", stream[0])])
        elif action < 0.75:
            stream = insertion_stream(fast.graph, rng.randint(2, 5), rng)
            if not stream:
                continue
            fast.insert_edges_batch(stream)
            insert_batch_ref(ref, stream)
        else:
            edges = list(fast.graph.edges())
            if fast.graph.num_edges <= fast.graph.num_vertices:
                continue
            u, v = edges[rng.randrange(len(edges))]
            fast.remove_edge(u, v)
            replay_events(*ref, [("delete", (u, v))])
        assert fast.labelling == ref[1], step
    assert_queries_match_bfs(fast, rng)
