"""Computer-network scenario: latency-bound resource management.

The paper's third motivating application: "management of resources in
computer networks" — e.g. assigning each client to a replica within a hop
budget, re-evaluated as links are provisioned.  The network is a
small-world topology (the Skitter stand-in class); links come up over time
(edge insertions) and the assignment must stay exact.

This example also demonstrates the *fully dynamic* extension: a link is
decommissioned (edge deletion, the paper's future work) and queries remain
exact.

Run:  python examples/network_monitoring.py
"""

import random

from repro import DynamicHCL
from repro.graph.generators import watts_strogatz
from repro.graph.traversal import INF


def assign_to_replicas(oracle, clients, replicas, hop_budget):
    """Map each client to the nearest replica within the hop budget."""
    assignment = {}
    for c in clients:
        best = min(
            ((oracle.query(c, s), s) for s in replicas),
            key=lambda pair: pair[0],
        )
        d, replica = best
        assignment[c] = (replica, d) if d <= hop_budget else (None, d)
    return assignment


def coverage(assignment) -> float:
    served = sum(1 for replica, _ in assignment.values() if replica is not None)
    return 100.0 * served / len(assignment)


def main() -> None:
    rng = random.Random(11)

    print("Provisioning a 5,000-router small-world network ...")
    graph = watts_strogatz(5_000, k=8, beta=0.1, rng=rng)
    oracle = DynamicHCL.build(graph, num_landmarks=20)
    print(f"  |V| = {graph.num_vertices:,}  |E| = {graph.num_edges:,}")

    routers = list(graph.vertices())
    replicas = rng.sample(routers, 6)
    clients = rng.sample([r for r in routers if r not in replicas], 200)
    hop_budget = 9
    print(f"  replicas at {replicas}; {len(clients)} clients; "
          f"hop budget {hop_budget}")

    assignment = assign_to_replicas(oracle, clients, replicas, hop_budget)
    print(f"\nInitial coverage: {coverage(assignment):.1f}% of clients "
          f"within {hop_budget} hops of a replica")

    # Provision long-haul links between poorly served regions.
    unserved = [c for c, (replica, _) in assignment.items() if replica is None]
    print(f"Provisioning {min(10, len(unserved))} long-haul links toward "
          "unserved clients ...")
    for c in unserved[:10]:
        target = rng.choice(replicas)
        if not oracle.graph.has_edge(c, target):
            stats = oracle.insert_edge(c, target)
            print(f"  link {c} <-> {target}: affected {stats.affected_union} routers")

    assignment = assign_to_replicas(oracle, clients, replicas, hop_budget)
    print(f"Coverage after provisioning: {coverage(assignment):.1f}%")

    # Decommission a link (decremental future-work extension).
    u, v = next(iter(oracle.graph.edges()))
    print(f"\nDecommissioning link {u} <-> {v} ...")
    oracle.remove_edge(u, v)
    d = oracle.query(u, v)
    print(f"  d({u}, {v}) is now {'inf' if d == INF else int(d)} "
          "(queries stay exact under deletions too)")

    assignment = assign_to_replicas(oracle, clients, replicas, hop_budget)
    print(f"  coverage after decommission: {coverage(assignment):.1f}%")


if __name__ == "__main__":
    main()
