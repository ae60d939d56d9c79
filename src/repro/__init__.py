"""repro — Efficient maintenance of distance labelling for dynamic graphs.

A full reproduction of *"Efficient Maintenance of Distance Labelling for
Incremental Updates in Large Dynamic Graphs"* (Farhan & Wang, EDBT 2021):

* :class:`~repro.core.dynamic.DynamicHCL` — the maintained highway cover
  labelling with IncHL+ edge/vertex insertions and exact queries;
* :mod:`repro.baselines` — IncPLL (Akiba et al. 2014), IncFD (Hayashi et
  al. 2016) and online BFS comparators;
* :mod:`repro.graph` — the dynamic graph substrate and synthetic network
  generators standing in for the paper's 12 datasets;
* :mod:`repro.workloads` — update/query workloads and the dataset registry;
* :mod:`repro.parallel` — the per-landmark sweep kernels behind
  construction, batch updates and rebuilds;
* :mod:`repro.serving` — the snapshot-isolated concurrent query service
  (single-writer update loop, epoch-versioned read snapshots, TCP
  front-end via ``python -m repro serve``);
* :mod:`repro.bench` — the experiment harness regenerating every table and
  figure of the paper's evaluation;
* :mod:`repro.obs` — the unified observability layer (structured logs,
  request tracing, mergeable histogram metrics, Prometheus exposition).

Quickstart::

    from repro import DynamicHCL
    from repro.graph.generators import barabasi_albert

    graph = barabasi_albert(10_000, attach=5, rng=42)
    oracle = DynamicHCL.build(graph, num_landmarks=20)
    print(oracle.query(17, 4242))
    oracle.insert_edge(17, 4242)       # IncHL+ repairs the labelling
    print(oracle.query(17, 4242))      # -> 1
"""

from repro.core.dynamic import DynamicHCL
from repro.core.construction import build_hcl
from repro.core.construction_fast import build_hcl_fast
from repro.core.directed import DirectedHCL
from repro.core.labelling import HighwayCoverLabelling
from repro.core.query import query_distance
from repro.core.weighted_hcl import WeightedHCL
from repro.graph.csr import CSRGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.digraph import DynamicDiGraph
from repro.graph.weighted import WeightedGraph
from repro.serving import OracleService, OracleSnapshot

__version__ = "1.2.0"

__all__ = [
    "DynamicHCL",
    "OracleService",
    "OracleSnapshot",
    "DirectedHCL",
    "WeightedHCL",
    "build_hcl",
    "build_hcl_fast",
    "HighwayCoverLabelling",
    "query_distance",
    "CSRGraph",
    "DynamicGraph",
    "DynamicDiGraph",
    "WeightedGraph",
    "__version__",
]
