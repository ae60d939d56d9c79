"""Table 1 — update time, query time and labelling size per dataset/method.

Each benchmark measures exactly what the paper's Table 1 reports:

* ``update_stream``: the full edge-insertion stream (mean per-update time
  is the batch time divided by the stream length — recorded in
  ``extra_info['update_ms']``);
* ``query_stream``: the full query-pair stream after all updates
  (``extra_info['query_ms']``), with the post-update index size in
  ``extra_info['size']``.

IncPLL benchmarks are skipped on the 7 datasets where the paper could not
build it.  Regenerate the rendered table with ``python -m repro.bench table1``.
"""

import pytest

from repro.bench.report import format_bytes
from repro.bench.runner import paper_insert
from repro.workloads.datasets import dataset_names

METHODS = ("IncHL+", "IncFD", "IncPLL")


@pytest.mark.parametrize("dataset", dataset_names())
@pytest.mark.parametrize("method", METHODS)
def test_update_stream(benchmark, cache, dataset, method):
    spec, graph, insertions, _ = cache.dataset(dataset)
    oracle = cache.build_oracle(dataset, method)
    if oracle is None:
        pytest.skip(f"{method} infeasible on {dataset} (paper reports '-')")

    def run_updates():
        # Fresh copy per round: insertions must target non-edges.
        fresh = cache.build_oracle(dataset, method)
        insert = paper_insert(fresh)
        for u, v in insertions:
            insert(u, v)
        return fresh

    result = benchmark.pedantic(run_updates, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "paper_row": True,
        "table": "1-update",
        "dataset": dataset,
        "method": method,
        "update_ms": round(
            benchmark.stats.stats.mean * 1000 / len(insertions), 4
        ),
        "size": format_bytes(result.size_bytes()),
    })


@pytest.mark.parametrize("dataset", dataset_names())
@pytest.mark.parametrize("method", METHODS)
def test_query_stream(benchmark, cache, dataset, method):
    spec, graph, insertions, queries = cache.dataset(dataset)
    oracle = cache.build_oracle(dataset, method)
    if oracle is None:
        pytest.skip(f"{method} infeasible on {dataset} (paper reports '-')")
    for u, v in insertions:  # paper: queries run after the update stream
        oracle.insert_edge(u, v)

    def run_queries():
        for u, v in queries:
            oracle.query(u, v)

    benchmark.pedantic(run_queries, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "paper_row": True,
        "table": "1-query",
        "dataset": dataset,
        "method": method,
        "query_ms": round(benchmark.stats.stats.mean * 1000 / len(queries), 4),
        "size": format_bytes(oracle.size_bytes()),
    })
