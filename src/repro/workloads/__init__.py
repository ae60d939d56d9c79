"""Workloads: update streams, query streams, and the dataset registry."""

from repro._lazy import lazy_exports

# Lazy: the cluster router imports ``repro.workloads.streams`` and must
# not pay for the dataset registry and samplers (numpy).
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "sample_edge_insertions": "repro.workloads.updates",
        "sample_vertex_insertions": "repro.workloads.updates",
        "held_out_edges": "repro.workloads.updates",
        "sample_query_pairs": "repro.workloads.queries",
        "DATASETS": "repro.workloads.datasets",
        "DatasetSpec": "repro.workloads.datasets",
        "build_dataset": "repro.workloads.datasets",
        "dataset_names": "repro.workloads.datasets",
        "UpdateEvent": "repro.workloads.streams",
        "ReplayRecord": "repro.workloads.streams",
        "insertion_stream": "repro.workloads.streams",
        "mixed_stream": "repro.workloads.streams",
        "densification_stream": "repro.workloads.streams",
        "sliding_window_stream": "repro.workloads.streams",
        "replay": "repro.workloads.streams",
        "split_events": "repro.workloads.streams",
    },
)

__all__ = [
    "sample_edge_insertions",
    "sample_vertex_insertions",
    "held_out_edges",
    "sample_query_pairs",
    "DATASETS",
    "DatasetSpec",
    "build_dataset",
    "dataset_names",
    "UpdateEvent",
    "ReplayRecord",
    "insertion_stream",
    "mixed_stream",
    "densification_stream",
    "sliding_window_stream",
    "replay",
    "split_events",
]
