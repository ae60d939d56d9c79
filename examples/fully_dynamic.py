"""Fully dynamic maintenance: a mixed insert/delete stream, kept exact.

The paper handles insertions (IncHL+) and names decremental updates as
future work; this repository implements both.  This example drives one
oracle through a mixed stream — 70% insertions, 30% deletions — verifying
exactness against plain BFS along the way, then shows the sliding-window
streaming model where every arrival also evicts the oldest edge.

Run:  python examples/fully_dynamic.py
"""

from repro import DynamicHCL
from repro.graph.generators import powerlaw_cluster
from repro.graph.traversal import bfs_distances
from repro.workloads.queries import sample_query_pairs
from repro.workloads.streams import mixed_stream, replay, sliding_window_stream

INF = float("inf")


def spot_check(oracle, pairs) -> None:
    """Compare a handful of oracle answers against BFS ground truth."""
    for u, v in pairs:
        expected = bfs_distances(oracle.graph, u).get(v, INF)
        actual = oracle.query(u, v)
        status = "ok" if actual == expected else "MISMATCH"
        print(f"    d({u:>4}, {v:>4}) = {actual!s:>4}   bfs: {expected!s:>4}   {status}")
        assert actual == expected


def main() -> None:
    print("Generating a 3,000-vertex clustered power-law graph ...")
    graph = powerlaw_cluster(3_000, attach=4, triangle_prob=0.4, rng=11)
    print(f"  |V| = {graph.num_vertices:,}   |E| = {graph.num_edges:,}")

    oracle = DynamicHCL.build(graph, num_landmarks=16)
    print(f"  built labelling: size(L) = {oracle.label_entries:,} entries")

    # --- Mixed stream ---------------------------------------------------
    print("\nReplaying a mixed stream (70% inserts, 30% deletes) ...")
    events = mixed_stream(graph, 60, insert_ratio=0.7, rng=23)
    records = replay(oracle, events)
    inserts = sum(1 for r in records if r.event.is_insert)
    mean_ms = sum(r.seconds for r in records) / len(records) * 1000
    print(f"  {inserts} insertions + {len(records) - inserts} deletions, "
          f"mean {mean_ms:.3f} ms/event")

    print("  spot-checking exactness after the stream:")
    spot_check(oracle, sample_query_pairs(graph, 5, rng=3))

    # --- Sliding window -------------------------------------------------
    print("\nSliding-window stream (window = 15 live extra edges) ...")
    events = sliding_window_stream(graph, 40, window=15, rng=29)
    records = replay(oracle, events)
    evictions = sum(1 for r in records if not r.event.is_insert)
    print(f"  {len(records)} events ({evictions} evictions), "
          f"|E| now {oracle.graph.num_edges:,}")

    print("  spot-checking exactness after the window:")
    spot_check(oracle, sample_query_pairs(graph, 5, rng=5))

    # --- Vertex churn ---------------------------------------------------
    print("\nVertex churn: insert a hub, then retire an old vertex ...")
    hub = max(oracle.graph.vertices()) + 1
    oracle.insert_vertex(hub, [0, 1, 2, 3, 4])
    print(f"  inserted vertex {hub} with 5 edges; "
          f"d({hub}, 100) = {oracle.query(hub, 100)}")
    landmarks = set(oracle.landmarks)
    victim = next(
        v for v in sorted(oracle.graph.vertices())
        if v not in landmarks and v != hub
    )
    oracle.remove_vertex(victim)
    print(f"  removed vertex {victim}; |V| = {oracle.graph.num_vertices:,}")

    print("  final spot check:")
    spot_check(oracle, sample_query_pairs(oracle.graph, 5, rng=8))
    print(f"\nsize(L) after all churn = {oracle.label_entries:,} entries "
          "(minimality preserved through inserts *and* deletes)")


if __name__ == "__main__":
    main()
