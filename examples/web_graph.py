"""Web-graph scenario: context-aware search over an incrementally crawled web.

The paper's first motivating application is "context-aware search in web
graphs" — ranking candidate result pages by their link distance from the
page the user is currently on.  This example builds a web-like graph
(dense sites, sparse cross-site links, large average distance — the regime
where the paper says updates are hardest), runs distance-ranked search,
then simulates a crawler discovering new pages and links while queries
continue.

Run:  python examples/web_graph.py
"""

import random
import time

from repro import DynamicHCL
from repro.graph.generators import community_web_graph
from repro.graph.traversal import INF


def distance_ranked(oracle: DynamicHCL, context_page: int, candidates):
    """Rank candidate pages by link distance from the context page."""
    ranked = sorted(
        (oracle.query(context_page, page), page) for page in candidates
    )
    return [(page, d) for d, page in ranked if d != INF]


def main() -> None:
    rng = random.Random(7)

    print("Building a 15,000-page web graph (50 sites on a link ring)...")
    graph = community_web_graph(
        15_000, community_size=300, intra_attach=6,
        inter_edges_per_community=3, long_range_edges=30, rng=rng,
    )
    oracle = DynamicHCL.build(graph, num_landmarks=20)
    print(f"  |V| = {graph.num_vertices:,}  |E| = {graph.num_edges:,}  "
          f"size(L) = {oracle.label_entries:,} entries")

    # --- context-aware search -------------------------------------------
    pages = list(graph.vertices())
    context = pages[123]
    candidates = rng.sample(pages, 12)
    print(f"\nSearch from context page {context}: "
          "candidates ranked by link distance")
    for page, d in distance_ranked(oracle, context, candidates)[:8]:
        print(f"  page {page:>6}  distance {int(d)}")

    # --- incremental crawl ----------------------------------------------
    print("\nCrawler discovers 100 new pages and 150 new cross-links ...")
    update_times = []
    for i in range(100):
        new_page = max(pages) + 1
        # a discovered page links to 2-4 known pages, usually same-site
        anchor = rng.choice(pages)
        site = anchor - anchor % 300
        local = [site + rng.randrange(300) for _ in range(3)]
        targets = {p for p in local if oracle.graph.has_vertex(p)} or {anchor}
        start = time.perf_counter()
        oracle.insert_vertex(new_page, sorted(targets))
        update_times.append(time.perf_counter() - start)
        pages.append(new_page)
    for i in range(150):
        while True:
            u, v = rng.choice(pages), rng.choice(pages)
            if u != v and not oracle.graph.has_edge(u, v):
                break
        start = time.perf_counter()
        stats = oracle.insert_edge(u, v)
        update_times.append(time.perf_counter() - start)

    print(f"  mean update latency: "
          f"{1e3 * sum(update_times) / len(update_times):.3f} ms "
          "(web graphs are the paper's hardest case)")

    # --- the same search reflects the new link structure ----------------
    print(f"\nRe-running the search from page {context} after the crawl:")
    for page, d in distance_ranked(oracle, context, candidates)[:8]:
        print(f"  page {page:>6}  distance {int(d)}")

    # A crawler-added shortcut shrinks a long distance dramatically:
    far = max(candidates, key=lambda p: oracle.query(context, p))
    before = oracle.query(context, far)
    oracle.insert_edge(context, far)
    print(f"\nEditorial link {context} -> {far}: distance "
          f"{int(before) if before != INF else 'inf'} -> "
          f"{int(oracle.query(context, far))}")


if __name__ == "__main__":
    main()
