"""Run the doctests embedded in the library's docstrings.

Every public-API usage snippet in a docstring must actually work; this
module collects them explicitly (rather than via --doctest-modules) so the
doctest set is deliberate and the main pytest invocation stays simple.
"""

import doctest

import pytest

import repro.baselines.bfs
import repro.baselines.fd
import repro.baselines.incpll
import repro.baselines.pll
import repro.core.construction
import repro.core.directed
import repro.core.dynamic
import repro.core.highway
import repro.core.labels
import repro.core.query
import repro.core.inchl_fast
import repro.core.sweeps
import repro.core.weighted_hcl
import repro.graph.dyncsr
import repro.graph.dynamic_graph
import repro.graph.digraph
import repro.graph.generators
import repro.graph.weighted
import repro.cluster.shards
import repro.cluster.wal
import repro.knobs
import repro.serving.metrics
import repro.serving.service
import repro.serving.snapshot
import repro.utils.timing
import repro.workloads.datasets
import repro.workloads.queries
import repro.workloads.updates

_MODULES = [
    repro.graph.dynamic_graph,
    repro.graph.dyncsr,
    repro.graph.digraph,
    repro.graph.weighted,
    repro.graph.generators,
    repro.core.highway,
    repro.core.labels,
    repro.core.construction,
    repro.core.query,
    repro.core.dynamic,
    repro.core.inchl_fast,
    repro.core.sweeps,
    repro.core.directed,
    repro.core.weighted_hcl,
    repro.baselines.bfs,
    repro.baselines.pll,
    repro.baselines.incpll,
    repro.baselines.fd,
    repro.cluster.shards,
    repro.cluster.wal,
    repro.knobs,
    repro.serving.metrics,
    repro.serving.service,
    repro.serving.snapshot,
    repro.utils.timing,
    repro.workloads.datasets,
    repro.workloads.queries,
    repro.workloads.updates,
]


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} doctest failures"


def test_doctest_coverage_is_nontrivial():
    """The curated module list must actually contain doctests."""
    total = sum(
        doctest.testmod(module, verbose=False).attempted for module in _MODULES
    )
    assert total >= 15
