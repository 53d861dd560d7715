"""Property-based tests (hypothesis) on the fleet aggregation layer.

Four families, matching the fleet determinism contract:

* fold-order invariance — folding the same histograms through any
  partition of :class:`TailAccumulator`\\ s, merged in any order,
  yields bit-identical state;
* bucket folds — the C-level bucket additions equal a per-bucket loop,
  never alias the source's buckets, and keep the shape rules;
* percentile sanity — percentiles are monotone in the requested
  fraction, and adding load at/above the current tail never lowers it;
* conservation — counters and shard apportionment are exactly
  conserved across arbitrary fleet shapes and partitions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetConfig, Tenant
from repro.sim.stats import (
    CounterBag,
    Histogram,
    HistogramShapeError,
    TailAccumulator,
)

from conftest import fast_workload, small_config

#: Latency-like samples: non-negative, integer-valued (picoseconds),
#: spanning underflow-free and overflow territory for a small histogram.
samples = st.lists(
    st.integers(min_value=0, max_value=5_000), min_size=1, max_size=120
)


def _histogram(values, bucket_width=100.0, num_buckets=16) -> Histogram:
    hist = Histogram(bucket_width=bucket_width, num_buckets=num_buckets)
    for value in values:
        hist.add(float(value))
    return hist


# --- fold-order invariance -------------------------------------------------
@given(samples, st.data())
@settings(max_examples=60, deadline=None)
def test_tail_accumulator_fold_order_invariance(values, data):
    """Any shard partition, folded/merged in any order, is bit-identical."""
    # Random partition of the samples into "shards".
    cuts = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(values)),
            max_size=5,
        )
    )
    bounds = sorted(set(cuts) | {0, len(values)})
    shards = [
        values[lo:hi] for lo, hi in zip(bounds, bounds[1:])
    ]
    hists = [_histogram(shard) for shard in shards]

    # Reference: one accumulator folding shard histograms left to right.
    reference = TailAccumulator()
    for hist in hists:
        reference.fold(hist)

    # Permuted: fold in shuffled order, through a random two-level tree.
    order = data.draw(st.permutations(range(len(hists))))
    left, right = TailAccumulator(), TailAccumulator()
    for position, index in enumerate(order):
        (left if position % 2 else right).fold(hists[index])
    merged = TailAccumulator()
    merged.merge(left)
    merged.merge(right)

    assert merged.state() == reference.state()
    assert merged.percentile(0.99) == reference.percentile(0.99)


@given(samples)
@settings(max_examples=60, deadline=None)
def test_tail_accumulator_matches_single_histogram(values):
    """Folding one histogram reproduces its own percentile read-out."""
    hist = _histogram(values)
    acc = TailAccumulator()
    acc.fold(hist)
    for fraction in (0.5, 0.95, 0.99):
        assert acc.percentile(fraction) == hist.percentile(fraction)
    assert acc.count == hist.count
    # Exact mean (total / count), not Welford's incremental mean — the
    # two can differ in the last ulp, which is exactly why the
    # accumulator carries the exact integer-valued total instead.
    assert acc.mean == hist.stat.total / hist.count


# --- bucket folds ----------------------------------------------------------
def _reference_fold(buckets, other):
    """Per-bucket loop: what the folds computed before they went C-level."""
    out = list(buckets)
    for i, n in enumerate(other):
        if n:
            out[i] += n
    return out


@given(st.lists(samples, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_bucket_folds_equal_per_bucket_loop(shards):
    hists = [_histogram(values) for values in shards]
    expected = [0] * len(hists[0].buckets)
    acc, merged = TailAccumulator(), _histogram([])
    for hist in hists:
        expected = _reference_fold(expected, hist.buckets)
        acc.fold(hist)
        merged.merge(hist)
        assert acc.buckets == expected
        assert merged.buckets == expected
    whole = TailAccumulator()
    whole.merge(acc)
    assert whole.buckets == expected
    assert all(type(n) is int for n in whole.buckets)


def test_fold_does_not_alias_source_buckets():
    source = _histogram([50, 150, 150])
    acc = TailAccumulator()
    acc.fold(source)
    into = TailAccumulator()
    into.merge(acc)
    hist = _histogram([])
    hist.merge(source)
    before = list(acc.buckets)
    source.buckets[1] += 5
    acc.buckets[0] += 7
    assert acc.buckets == [before[0] + 7] + before[1:]
    assert into.buckets == before
    assert hist.buckets == before


def test_fold_shape_mismatch_still_raises():
    acc = TailAccumulator()
    acc.fold(_histogram([10]))
    for other in (
        _histogram([10], bucket_width=50.0),
        _histogram([10], num_buckets=8),
    ):
        with pytest.raises(HistogramShapeError):
            acc.fold(other)
        with pytest.raises(HistogramShapeError):
            _histogram([10]).merge(other)
    wider = TailAccumulator()
    wider.fold(_histogram([10], num_buckets=8))
    with pytest.raises(HistogramShapeError):
        acc.merge(wider)


def test_empty_fold_keeps_accumulator_shapeless():
    acc = TailAccumulator()
    acc.fold(_histogram([], bucket_width=7.0, num_buckets=3))
    acc.merge(TailAccumulator())
    assert not acc.shaped and acc.buckets == []
    # The first non-empty histogram still sets the shape.
    acc.fold(_histogram([10]))
    assert acc.bucket_width == 100.0 and len(acc.buckets) == 16


# --- percentile monotonicity -----------------------------------------------
@given(samples)
@settings(max_examples=60, deadline=None)
def test_percentiles_monotone_in_fraction(values):
    acc = TailAccumulator()
    acc.fold(_histogram(values))
    p50, p95, p99 = (
        acc.percentile(0.50), acc.percentile(0.95), acc.percentile(0.99)
    )
    assert p50 <= p95 <= p99


@given(samples, st.lists(st.integers(min_value=0, max_value=400), min_size=1,
                         max_size=40))
@settings(max_examples=60, deadline=None)
def test_added_load_at_the_tail_never_lowers_p99(values, extra_offsets):
    """Folding extra samples at/above the current maximum cannot lower
    any percentile — more load only pushes the tenant's tail up."""
    acc = TailAccumulator()
    acc.fold(_histogram(values))
    before = {f: acc.percentile(f) for f in (0.5, 0.95, 0.99)}
    peak = max(values)
    acc.fold(_histogram([peak + offset for offset in extra_offsets]))
    for fraction, value in before.items():
        assert acc.percentile(fraction) >= value


# --- conservation ----------------------------------------------------------
@given(
    st.lists(
        st.dictionaries(
            st.sampled_from(["reads", "writes", "p2p", "served", "failed"]),
            st.integers(min_value=0, max_value=10_000),
            max_size=5,
        ),
        max_size=12,
    ),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_counter_bag_conservation_over_partitions(dicts, data):
    """Sum(partition sums) == total sum, for any partition and order."""
    total = CounterBag()
    for mapping in dicts:
        total.fold_dict(mapping)

    order = data.draw(st.permutations(range(len(dicts))))
    left, right = CounterBag(), CounterBag()
    for position, index in enumerate(order):
        (left if position % 3 == 0 else right).fold_dict(dicts[index])
    merged = CounterBag()
    merged.merge(right)
    merged.merge(left)
    assert merged.as_dict() == total.as_dict()


@given(
    st.integers(min_value=1, max_value=96),
    st.lists(
        st.floats(min_value=0.05, max_value=20.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=60, deadline=None)
def test_apportionment_conserves_shards_for_any_fleet_shape(num_shards, weights):
    """Every shard gets exactly one tenant; counts honour the quotas."""
    tenants = tuple(
        Tenant(f"t{i}", weight=weight) for i, weight in enumerate(weights)
    )
    fleet = FleetConfig(
        shards=(small_config(),) * num_shards,
        workload=fast_workload(),
        tenants=tenants,
        requests_per_shard=10,
    )
    assignment = fleet.shard_tenants()
    assert len(assignment) == num_shards

    counts = {tenant.name: 0 for tenant in tenants}
    for tenant in assignment:
        counts[tenant.name] += 1
    assert sum(counts.values()) == num_shards

    # Largest-remainder bound: each count is within one of its quota.
    total_weight = sum(weights)
    for tenant in tenants:
        quota = tenant.weight / total_weight * num_shards
        assert quota - 1 < counts[tenant.name] < quota + 1

    # Contiguity: tenants occupy runs in registry order.
    names = [tenant.name for tenant in assignment]
    compacted = [names[0]] + [
        name for prev, name in zip(names, names[1:]) if name != prev
    ]
    assert compacted == [
        tenant.name for tenant in tenants if counts[tenant.name]
    ]
