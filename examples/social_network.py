"""Social-network scenario: degrees of separation in a *growing* network.

The paper's motivating application (Section 1): social-network analysis
needs distance queries answered in milliseconds while the network keeps
growing — new members join (vertex insertions) and friendships form (edge
insertions).  This example simulates a day of growth on a LiveJournal-like
community and serves "degrees of separation" queries throughout, tracking
both query latency and update latency.

Run:  python examples/social_network.py
"""

import random
import time

from repro import DynamicHCL
from repro.graph.generators import powerlaw_cluster
from repro.graph.traversal import INF


def degrees_of_separation(oracle: DynamicHCL, u: int, v: int) -> str:
    d = oracle.query(u, v)
    if d == INF:
        return "not connected"
    return f"{int(d)} degrees"


def main() -> None:
    rng = random.Random(2021)

    print("Bootstrapping a 20,000-member community (clustered power law)...")
    graph = powerlaw_cluster(20_000, attach=6, triangle_prob=0.3, rng=rng)
    oracle = DynamicHCL.build(graph, num_landmarks=20)
    print(f"  |V| = {graph.num_vertices:,}  |E| = {graph.num_edges:,}  "
          f"size(L) = {oracle.label_entries:,} entries")

    celebrities = sorted(graph.vertices(), key=graph.degree)[-3:]
    print(f"  top-degree members (celebrities): {celebrities}")

    update_times: list[float] = []
    query_times: list[float] = []
    members = list(graph.vertices())

    print("\nSimulating one day of activity "
          "(200 new friendships, 50 new members, continuous queries)...")
    for step in range(250):
        if step % 5 == 4:
            # A new member joins and befriends 3 existing members,
            # preferring well-connected ones (rich get richer).
            newcomer = max(members) + 1
            friends = set()
            while len(friends) < 3:
                candidate = rng.choice(members)
                if rng.random() < 0.7 or oracle.graph.degree(candidate) > 20:
                    friends.add(candidate)
            start = time.perf_counter()
            oracle.insert_vertex(newcomer, sorted(friends))
            update_times.append(time.perf_counter() - start)
            members.append(newcomer)
        else:
            # A friendship forms between two random members.
            while True:
                u, v = rng.choice(members), rng.choice(members)
                if u != v and not oracle.graph.has_edge(u, v):
                    break
            start = time.perf_counter()
            oracle.insert_edge(u, v)
            update_times.append(time.perf_counter() - start)

        # Interleaved analytics queries.
        u, v = rng.choice(members), rng.choice(members)
        start = time.perf_counter()
        oracle.query(u, v)
        query_times.append(time.perf_counter() - start)

    print(f"  members now: {oracle.graph.num_vertices:,}; "
          f"friendships: {oracle.graph.num_edges:,}")
    print(f"  mean update latency: {1e3 * sum(update_times) / len(update_times):.3f} ms")
    print(f"  mean query  latency: {1e3 * sum(query_times) / len(query_times):.3f} ms")
    print(f"  size(L) stayed minimal: {oracle.label_entries:,} entries")

    print("\nSpot checks:")
    alice, bob = members[17], members[-1]
    print(f"  member {alice} <-> member {bob}: "
          f"{degrees_of_separation(oracle, alice, bob)}")
    for celeb in celebrities:
        print(f"  member {alice} <-> celebrity {celeb}: "
              f"{degrees_of_separation(oracle, alice, celeb)}")

    # Small-world check: average separation over a sample.
    sample = [
        oracle.query(rng.choice(members), rng.choice(members))
        for _ in range(300)
    ]
    finite = [d for d in sample if d != INF]
    print(f"\nAverage separation over {len(finite)} sampled pairs: "
          f"{sum(finite) / len(finite):.2f} "
          "(small-world, as expected for social graphs)")


if __name__ == "__main__":
    main()
