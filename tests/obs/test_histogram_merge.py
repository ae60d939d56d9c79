"""Merge exactness: distributed histograms lose nothing to sharding.

The cluster's exact-percentile claim rests on two properties, both
checked here over randomized partitions (the raw-sample reference is
``numpy.percentile``'s linear rank rule):

1. **Losslessness** — merging per-shard histograms equals one histogram
   of the pooled samples (vector addition of counts commutes with
   sharding), and survives a serialise/merge round-trip through the wire
   form the replicas actually ship.
2. **Bracketing** — :meth:`Histogram.quantile_bounds` provably brackets
   the raw-sample percentile, and :meth:`Histogram.quantile` lands inside
   the bracket, so the merged tail estimate is anchored to the truth of
   the pooled population (factor-2 buckets → bounded relative error).

The metrics history leans on a third: :meth:`Histogram.since` inverts
the merge, so a history point's interval tail is exact too.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import COUNT_BOUNDS, Histogram, merge_histograms

QUANTILES = (0, 10, 50, 90, 95, 99, 100)


def _random_samples(rng: random.Random, n: int) -> list[float]:
    """Latency-shaped samples spanning several orders of magnitude."""
    return [10 ** rng.uniform(-6.5, 1.5) for _ in range(n)]


def _shard(rng: random.Random, samples: list[float], shards: int):
    parts: list[list[float]] = [[] for _ in range(shards)]
    for sample in samples:
        parts[rng.randrange(shards)].append(sample)
    return parts


@pytest.mark.parametrize("seed", range(10))
def test_merge_equals_pooled_histogram(seed):
    rng = random.Random(seed)
    samples = _random_samples(rng, rng.randint(1, 400))
    parts = _shard(rng, samples, rng.randint(2, 5))

    pooled = Histogram()
    for sample in samples:
        pooled.observe(sample)

    shard_hists = []
    for part in parts:
        hist = Histogram()
        for sample in part:
            hist.observe(sample)
        shard_hists.append(hist)

    merged = merge_histograms(shard_hists)
    assert merged == pooled
    assert merged.sum == pytest.approx(pooled.sum)

    # The wire round-trip (replica -> stats dict -> router merge) is
    # exactly as lossless.
    revived = merge_histograms([h.to_dict() for h in shard_hists])
    assert revived == pooled


@pytest.mark.parametrize("seed", range(10))
def test_quantile_bounds_bracket_raw_percentiles(seed):
    rng = random.Random(100 + seed)
    samples = _random_samples(rng, rng.randint(1, 300))
    hist = Histogram()
    for sample in samples:
        hist.observe(sample)

    for q in QUANTILES:
        raw = float(np.percentile(samples, q))
        lo, hi = hist.quantile_bounds(q)
        assert lo <= raw <= hi, (q, lo, raw, hi)
        estimate = hist.quantile(q)
        assert lo <= estimate <= min(hi, hist.bounds[-1])


@pytest.mark.parametrize("seed", range(5))
def test_merged_quantiles_match_pooled_population(seed):
    """The property the router's `stats` aggregation relies on: the
    merged histogram's percentile bracket contains the percentile of the
    pooled raw samples — the merge is as good as central recording."""
    rng = random.Random(200 + seed)
    samples = _random_samples(rng, rng.randint(50, 500))
    parts = _shard(rng, samples, 3)
    shard_hists = []
    for part in parts:
        hist = Histogram()
        for sample in part:
            hist.observe(sample)
        shard_hists.append(hist)
    merged = merge_histograms(shard_hists)

    for q in QUANTILES:
        raw = float(np.percentile(samples, q))
        lo, hi = merged.quantile_bounds(q)
        assert lo <= raw <= hi
        if hi is not math.inf and lo > 0:
            # Factor-2 buckets: floor/ceil ranks land in the same or
            # adjacent buckets, so the bracket spans at most two bucket
            # widths — hi within 4x of lo (2x per endpoint).
            assert hi <= lo * 4


def test_merge_rejects_mismatched_bounds():
    from repro.exceptions import ReproError

    with pytest.raises(ReproError):
        Histogram().merge(Histogram(bounds=COUNT_BOUNDS))
    with pytest.raises(ReproError):
        Histogram().since(Histogram(bounds=COUNT_BOUNDS))


def test_empty_and_singleton_edge_cases():
    empty = Histogram()
    assert empty.quantile(50) is None
    assert empty.quantile_bounds(99) is None
    assert merge_histograms([]) is None

    one = Histogram()
    one.observe(0.003)
    for q in QUANTILES:
        lo, hi = one.quantile_bounds(q)
        assert lo <= 0.003 <= hi


def test_overflow_bucket_is_unbounded_above():
    hist = Histogram(bounds=(1.0, 2.0))
    hist.observe(50.0)
    lo, hi = hist.quantile_bounds(99)
    assert lo == 2.0 and hi == math.inf
    assert hist.quantile(99) == 2.0  # saturates at the top bound


_latencies = st.lists(
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False), max_size=60
)


@settings(max_examples=60, deadline=None)
@given(before=_latencies, after=_latencies)
def test_since_inverts_merge(before, after):
    """``a.merge(b.since(a)) == b`` for any earlier copy ``a`` of ``b``,
    and ``b.since(a)`` is the histogram of the later samples alone."""
    later = Histogram()
    for sample in before:
        later.observe(sample)
    earlier = Histogram().merge(later)
    alone = Histogram()
    for sample in after:
        later.observe(sample)
        alone.observe(sample)

    delta = later.since(earlier)
    assert delta == alone
    assert delta.sum == pytest.approx(alone.sum, rel=1e-9, abs=1e-9)
    assert earlier.merge(delta) == later

