"""Landmark engineering: selection strategies and online |R| resizing.

The paper fixes |R| = 20 top-degree landmarks and studies sensitivity by
rebuilding per setting (Figure 3).  This example shows the tooling this
repository adds around that choice:

1. compare selection strategies on label size and highway coverage;
2. identify the least useful landmark with the analysis module;
3. resize the landmark set *online* — promote a fresh hub, demote the
   weakest landmark — without ever rebuilding from scratch.

Run:  python examples/landmark_tuning.py
"""

from repro import DynamicHCL
from repro.analysis import highway_stats, label_stats, landmark_entry_counts
from repro.bench.plotting import bar_chart
from repro.graph.generators import community_web_graph
from repro.workloads.queries import sample_query_pairs


def main() -> None:
    print("Generating a community-structured web-like graph ...")
    graph = community_web_graph(
        n=1_800, community_size=150, intra_attach=3,
        inter_edges_per_community=2, long_range_edges=30, rng=17,
    )
    print(f"  |V| = {graph.num_vertices:,}   |E| = {graph.num_edges:,}")

    # --- 1. Strategy comparison -----------------------------------------
    print("\nLabel size by landmark-selection strategy (|R| = 12):")
    sizes = {}
    for strategy in ("degree", "random", "betweenness", "spread"):
        oracle = DynamicHCL.build(
            graph.copy(), num_landmarks=12, strategy=strategy, rng=5
        )
        labelling = oracle.labelling
        stats = label_stats(labelling, graph.num_vertices)
        hstats = highway_stats(labelling)
        sizes[strategy] = stats.total_entries
        print(f"  {strategy:>12}: size(L) = {stats.total_entries:>7,}  "
              f"l = {stats.mean_label_size:.2f}  "
              f"highway connectivity = {hstats.connectivity:.0%}")
    print()
    print(bar_chart("size(L) by strategy", list(sizes), list(sizes.values()),
                    width=40, unit="entries"))

    # --- 2. Find the weakest landmark -----------------------------------
    oracle = DynamicHCL.build(graph, num_landmarks=12, strategy="degree")
    counts = landmark_entry_counts(oracle.labelling)
    weakest = min(counts, key=counts.get)
    strongest = max(counts, key=counts.get)
    print(f"\nPer-landmark entry contributions (degree strategy):")
    print(f"  strongest: vertex {strongest} carries {counts[strongest]:,} entries")
    print(f"  weakest:   vertex {weakest} carries {counts[weakest]:,} entries")

    # --- 3. Online resize ------------------------------------------------
    queries = sample_query_pairs(graph, 400, rng=9)

    def exactness_probe() -> bool:
        from repro.graph.traversal import bfs_distances

        u, v = queries[0]
        return oracle.query(u, v) == bfs_distances(graph, u).get(v, float("inf"))

    print("\nDemoting the weakest landmark online ...")
    before = oracle.label_entries
    rebuilt = oracle.remove_landmark(weakest)
    print(f"  size(L): {before:,} -> {oracle.label_entries:,} "
          f"({len(rebuilt)} landmark labellings repaired)  "
          f"exact: {exactness_probe()}")

    print("Promoting the highest-degree non-landmark online ...")
    landmarks = set(oracle.landmarks)
    candidate = max(
        (v for v in graph.vertices() if v not in landmarks),
        key=graph.degree,
    )
    removed = oracle.add_landmark(candidate)
    print(f"  promoted vertex {candidate} (degree {graph.degree(candidate)}); "
          f"{removed:,} newly covered entries removed  "
          f"exact: {exactness_probe()}")

    print(f"\nFinal |R| = {len(oracle.landmarks)}, "
          f"size(L) = {oracle.label_entries:,} entries")


if __name__ == "__main__":
    main()
