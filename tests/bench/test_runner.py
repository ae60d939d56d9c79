"""Tests for the shared experiment runner plumbing."""

from repro.bench.runner import (
    build_oracles,
    default_factories,
    paper_insert,
    time_queries,
    time_updates,
)
from repro.workloads.datasets import DATASETS, build_dataset
from repro.workloads.queries import sample_query_pairs
from repro.workloads.updates import sample_edge_insertions


class TestFactories:
    def test_table1_method_names_in_order(self):
        names = [f.name for f in default_factories()]
        assert names == ["IncHL+", "IncFD", "IncPLL"]

    def test_build_oracles_isolates_graphs(self):
        spec, graph = build_dataset("skitter-s", profile="smoke")
        built = build_oracles(spec, graph, default_factories())
        edges_before = graph.num_edges
        hl = built[0].oracle
        insertions = sample_edge_insertions(graph, 2, rng=0)
        for u, v in insertions:
            hl.insert_edge(u, v)
        # the shared source graph and the other oracles are untouched
        assert graph.num_edges == edges_before
        assert built[1].oracle.graph.num_edges == edges_before

    def test_infeasible_pll_records_failure(self):
        spec, graph = build_dataset("orkut-s", profile="smoke")
        built = build_oracles(spec, graph, default_factories())
        by_name = {b.name: b for b in built}
        assert by_name["IncPLL"].oracle is None
        assert "IncPLL" in by_name["IncPLL"].failure
        assert by_name["IncHL+"].oracle is not None

    def test_build_times_recorded(self):
        spec, graph = build_dataset("skitter-s", profile="smoke")
        built = build_oracles(spec, graph, default_factories())
        for b in built:
            if b.oracle is not None:
                assert b.build_seconds >= 0.0


class TestTiming:
    def test_time_updates_and_queries(self):
        spec, graph = build_dataset("flickr-s", profile="smoke")
        built = build_oracles(spec, graph, default_factories()[:1])
        oracle = built[0].oracle
        insertions = sample_edge_insertions(graph, 5, rng=1)
        insert = paper_insert(oracle)
        update_stats = time_updates(insert, insertions)
        assert update_stats.count == 5
        pairs = sample_query_pairs(graph, 10, rng=1)
        query_stats = time_queries(insert.oracle(), pairs)
        assert query_stats.count == 10
        assert query_stats.mean_ms() >= 0.0

    def test_paper_insert_times_the_python_kernel(self):
        from repro.core.validation import check_matches_rebuild

        spec, graph = build_dataset("flickr-s", profile="smoke")
        built = build_oracles(spec, graph, default_factories()[:2])
        hl, fd = built[0].oracle, built[1].oracle
        assert paper_insert(fd) == fd.insert_edge  # baselines: their own
        insert = paper_insert(hl)
        engine = hl._engine
        for u, v in sample_edge_insertions(graph, 3, rng=2):
            stats = insert(u, v)
            assert stats.phases == {}  # only the engine reports phases
            assert insert.graph.has_edge(u, v)
        assert engine.dyn.num_edges < insert.graph.num_edges  # never ran
        check_matches_rebuild(insert.graph, insert.labelling)
        updated = insert.oracle()
        assert updated.labelling == insert.labelling
