"""repro — Efficient maintenance of distance labelling for dynamic graphs.

A full reproduction of *"Efficient Maintenance of Distance Labelling for
Incremental Updates in Large Dynamic Graphs"* (Farhan & Wang, EDBT 2021):

* :class:`~repro.core.dynamic.DynamicHCL` — the maintained highway cover
  labelling with IncHL+ edge/vertex insertions and exact queries; its
  construction sweeps and landmark-stacked update kernels live in
  :mod:`repro.core.sweeps`;
* :mod:`repro.baselines` — IncPLL (Akiba et al. 2014), IncFD (Hayashi et
  al. 2016) and online BFS comparators;
* :mod:`repro.graph` — the dynamic graph substrate and synthetic network
  generators standing in for the paper's 12 datasets;
* :mod:`repro.workloads` — update/query workloads and the dataset registry;
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

from repro._lazy import lazy_exports

__version__ = "1.2.0"

# Resolved on first access, so ``import repro.cli`` or the cluster router
# never pays for numpy and the core kernels.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "DynamicHCL": "repro.core.dynamic",
        "OracleService": "repro.serving.service",
        "OracleSnapshot": "repro.serving.snapshot",
        "DirectedHCL": "repro.core.directed",
        "WeightedHCL": "repro.core.weighted_hcl",
        "build_hcl": "repro.core.construction",
        "build_hcl_fast": "repro.core.construction_fast",
        "HighwayCoverLabelling": "repro.core.labelling",
        "query_distance": "repro.core.query",
        "CSRGraph": "repro.graph.csr",
        "DynamicGraph": "repro.graph.dynamic_graph",
        "DynamicDiGraph": "repro.graph.digraph",
        "WeightedGraph": "repro.graph.weighted",
    },
)

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
