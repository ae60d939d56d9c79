"""Path extraction: exact routes and cheap landmark-routed approximations.

The oracle answers *distances*; many applications (the paper motivates
context-aware search and network management) want the route itself.  This
example compares the two extraction modes on a road-like grid with a few
highway shortcuts:

* :meth:`DynamicHCL.shortest_path` — exact, distance-query-guided greedy
  descent (cost grows with path length × degree);
* :meth:`DynamicHCL.approximate_path` — three bounded BFS legs through
  the best label pair of Eq. (2); exact whenever some shortest path
  meets a landmark, an upper-bound witness otherwise.

Run:  python examples/path_finding.py
"""

from repro import DynamicHCL
from repro.graph.generators import grid_graph

ROWS, COLS = 25, 40


def vertex(row: int, col: int) -> int:
    return row * COLS + col


def describe(name: str, path, exact: float) -> None:
    if path is None:
        print(f"  {name}: unreachable")
        return
    marker = "exact" if len(path) - 1 == exact else f"+{len(path) - 1 - exact} hops"
    head = " -> ".join(str(v) for v in path[:5])
    print(f"  {name}: {len(path) - 1} hops ({marker})   [{head} -> ...]")


def main() -> None:
    print(f"Building a {ROWS}x{COLS} grid with 6 diagonal shortcuts ...")
    graph = grid_graph(ROWS, COLS)
    shortcuts = [
        (vertex(0, 0), vertex(12, 20)),
        (vertex(12, 20), vertex(24, 39)),
        (vertex(0, 39), vertex(12, 20)),
        (vertex(24, 0), vertex(12, 20)),
        (vertex(6, 10), vertex(18, 30)),
        (vertex(18, 10), vertex(6, 30)),
    ]

    oracle = DynamicHCL.build(graph, num_landmarks=8)
    print(f"  |V| = {graph.num_vertices}, |E| = {graph.num_edges}, "
          f"|R| = {len(oracle.landmarks)}")

    corner_a, corner_b = vertex(0, 0), vertex(24, 39)
    print(f"\nBefore shortcuts: corner-to-corner "
          f"d({corner_a}, {corner_b}) = {oracle.query(corner_a, corner_b)}")
    exact = oracle.query(corner_a, corner_b)
    describe("exact      ", oracle.shortest_path(corner_a, corner_b), exact)
    describe("approximate", oracle.approximate_path(corner_a, corner_b), exact)

    print("\nInserting the shortcuts (IncHL+ repairs the labelling) ...")
    for u, v in shortcuts:
        oracle.insert_edge(u, v)

    exact = oracle.query(corner_a, corner_b)
    print(f"After shortcuts: d({corner_a}, {corner_b}) = {exact}")
    path = oracle.shortest_path(corner_a, corner_b)
    describe("exact      ", path, exact)
    describe("approximate", oracle.approximate_path(corner_a, corner_b), exact)
    used = [u for u in path if any(u in edge for edge in shortcuts)]
    print(f"  the exact route uses shortcut endpoints: {used}")

    # Verify every consecutive pair is an edge and the length is optimal.
    assert all(oracle.graph.has_edge(u, v) for u, v in zip(path, path[1:]))
    assert len(path) - 1 == exact

    print("\nRouting around damage: deleting a shortcut re-routes exactly ...")
    oracle.remove_edge(*shortcuts[0])
    exact = oracle.query(corner_a, corner_b)
    path = oracle.shortest_path(corner_a, corner_b)
    print(f"  d({corner_a}, {corner_b}) after deletion = {exact}")
    describe("exact      ", path, exact)
    assert len(path) - 1 == exact

    print("\nDone: paths stay exact through insertions and deletions.")


if __name__ == "__main__":
    main()
