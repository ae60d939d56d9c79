"""Quickstart: build a labelling, query, update, query again.

Run:  python examples/quickstart.py
"""

from repro import DynamicHCL
from repro.graph.generators import barabasi_albert
from repro.workloads.queries import sample_query_pairs
from repro.workloads.updates import sample_edge_insertions


def main() -> None:
    # A 10k-vertex scale-free network (a small social-network stand-in).
    print("Generating a 10,000-vertex preferential-attachment graph ...")
    graph = barabasi_albert(10_000, attach=5, rng=42)
    print(f"  |V| = {graph.num_vertices:,}   |E| = {graph.num_edges:,}")

    # Build the highway cover labelling with the paper's default |R| = 20
    # top-degree landmarks.
    print("Building the highway cover labelling (|R| = 20) ...")
    oracle = DynamicHCL.build(graph, num_landmarks=20)
    print(f"  size(L) = {oracle.label_entries:,} entries "
          f"({oracle.size_bytes() / 1024:.1f} KB)")
    print(f"  average label size l = "
          f"{oracle.label_entries / graph.num_vertices:.2f} entries/vertex")

    # Exact distance queries.
    print("\nExact distance queries:")
    for u, v in sample_query_pairs(graph, 5, rng=7):
        print(f"  d({u:>5}, {v:>5}) = {oracle.query(u, v)}")

    # Online updates: insert new edges, the labelling repairs itself
    # (IncHL+), queries stay exact throughout.
    print("\nInserting 5 random edges with IncHL+ repair:")
    for u, v in sample_edge_insertions(graph, 5, rng=7):
        before = oracle.query(u, v)
        stats = oracle.insert_edge(u, v)
        after = oracle.query(u, v)
        print(f"  +({u:>5}, {v:>5})  d: {before} -> {after}   "
              f"affected vertices: {stats.affected_union}")

    # A vertex insertion (the paper's node-insertion operation).
    newcomer = max(oracle.graph.vertices()) + 1
    oracle.insert_vertex(newcomer, [0, 1, 2])
    print(f"\nInserted vertex {newcomer} with 3 edges; "
          f"d({newcomer}, 9999) = {oracle.query(newcomer, 9999)}")

    print(f"\nsize(L) after all updates = {oracle.label_entries:,} entries "
          "(IncHL+ keeps the labelling minimal)")


if __name__ == "__main__":
    main()
