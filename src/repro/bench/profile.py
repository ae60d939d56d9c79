"""Benchmark profiles: how much work each experiment does.

The paper's raw workload sizes (1,000 insertions, 100,000 queries, up to
10,000 cumulative updates) are scaled per profile so that the pure-Python
harness finishes in sensible wall-clock time while preserving every
qualitative comparison.  Select with ``REPRO_BENCH_PROFILE`` or the CLI's
``--profile``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import knobs
from repro.exceptions import BenchmarkError

__all__ = ["BenchProfile", "bench_profile", "PROFILE_NAMES"]

PROFILE_NAMES = ("smoke", "default", "full")


@dataclass(frozen=True)
class BenchProfile:
    """Workload sizes for one profile (paper-scale values in comments)."""

    name: str
    num_updates: int  # Table 1: paper 1,000
    num_queries: int  # Table 1: paper 100,000
    figure1_updates: int  # Figure 1: paper 1,000
    figure3_updates: int  # Figure 3 per |R| value
    figure3_landmark_counts: tuple[int, ...]  # paper: 10..50
    # Figure 3 builds 2 oracles per |R| per dataset, so smaller profiles
    # sweep a representative dataset subset; None = all 12 (paper).
    figure3_datasets: tuple[str, ...] | None
    figure4_batch: int  # Figure 4: paper 500
    figure4_total: int  # Figure 4: paper 10,000
    pll_budget_s: float  # construction gate for IncPLL
    ablation_updates: int
    ablation_queries: int
    # Cluster experiment (reproduction extra): closed-loop read duration
    # per replica count, the replica counts swept, concurrent client
    # threads, pairs per query_many frame, how many frames get BFS-checked,
    # and the update-propagation probe (batches x events per batch).
    cluster_duration_s: float
    cluster_replica_counts: tuple[int, ...]
    cluster_clients: int
    cluster_query_batch: int
    cluster_verify_frames: int
    cluster_lag_batches: int
    cluster_lag_batch_size: int


_PROFILES = {
    "smoke": BenchProfile(
        name="smoke",
        num_updates=10,
        num_queries=60,
        figure1_updates=25,
        figure3_updates=8,
        figure3_landmark_counts=(10, 20),
        figure3_datasets=("skitter-s", "flickr-s"),
        figure4_batch=10,
        figure4_total=40,
        pll_budget_s=30.0,
        ablation_updates=8,
        ablation_queries=40,
        cluster_duration_s=1.0,
        cluster_replica_counts=(1, 2),
        cluster_clients=2,
        cluster_query_batch=24,
        cluster_verify_frames=3,
        cluster_lag_batches=3,
        cluster_lag_batch_size=8,
    ),
    "default": BenchProfile(
        name="default",
        num_updates=120,
        num_queries=1500,
        figure1_updates=250,
        figure3_updates=40,
        figure3_landmark_counts=(10, 20, 30, 40, 50),
        figure3_datasets=(
            "skitter-s", "flickr-s", "orkut-s",
            "indochina-s", "twitter-s", "uk-s",
        ),
        figure4_batch=100,
        figure4_total=2000,
        pll_budget_s=90.0,
        ablation_updates=60,
        ablation_queries=400,
        cluster_duration_s=3.0,
        cluster_replica_counts=(1, 2, 4),
        cluster_clients=6,
        cluster_query_batch=48,
        cluster_verify_frames=6,
        cluster_lag_batches=6,
        cluster_lag_batch_size=16,
    ),
    "full": BenchProfile(
        name="full",
        num_updates=1000,
        num_queries=10000,
        figure1_updates=1000,
        figure3_updates=150,
        figure3_landmark_counts=(10, 20, 30, 40, 50),
        figure3_datasets=None,
        figure4_batch=500,
        figure4_total=10000,
        pll_budget_s=600.0,
        ablation_updates=200,
        ablation_queries=2000,
        cluster_duration_s=6.0,
        cluster_replica_counts=(1, 2, 4),
        cluster_clients=8,
        cluster_query_batch=64,
        cluster_verify_frames=10,
        cluster_lag_batches=10,
        cluster_lag_batch_size=25,
    ),
}


def bench_profile(name: str | None = None) -> BenchProfile:
    """Resolve a profile by name, ``REPRO_BENCH_PROFILE``, or the default."""
    if name is None:
        name = knobs.get("REPRO_BENCH_PROFILE")
    try:
        return _PROFILES[name]
    except KeyError:
        raise BenchmarkError(
            f"unknown bench profile {name!r}; expected one of {PROFILE_NAMES}"
        ) from None
