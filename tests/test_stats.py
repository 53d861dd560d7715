"""Tests for statistics collectors."""

import math

import pytest

from repro.sim.stats import Histogram, RunningStat


class TestRunningStat:
    def test_empty(self):
        stat = RunningStat()
        assert stat.count == 0
        assert stat.mean == 0.0
        assert stat.variance == 0.0
        assert stat.min is None and stat.max is None

    def test_single_value(self):
        stat = RunningStat()
        stat.add(5.0)
        assert stat.count == 1
        assert stat.mean == 5.0
        assert stat.variance == 0.0
        assert stat.min == 5.0 and stat.max == 5.0

    def test_mean_and_variance(self):
        stat = RunningStat()
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        for value in values:
            stat.add(value)
        assert stat.mean == pytest.approx(5.0)
        expected_var = sum((v - 5.0) ** 2 for v in values) / (len(values) - 1)
        assert stat.variance == pytest.approx(expected_var)
        assert stat.stddev == pytest.approx(math.sqrt(expected_var))

    def test_min_max_total(self):
        stat = RunningStat()
        for value in (3.0, -1.0, 10.0):
            stat.add(value)
        assert stat.min == -1.0
        assert stat.max == 10.0
        assert stat.total == 12.0

    def test_merge_matches_sequential(self):
        a, b, c = RunningStat(), RunningStat(), RunningStat()
        for v in (1.0, 2.0, 3.0):
            a.add(v)
            c.add(v)
        for v in (10.0, 20.0):
            b.add(v)
            c.add(v)
        a.merge(b)
        assert a.count == c.count
        assert a.mean == pytest.approx(c.mean)
        assert a.variance == pytest.approx(c.variance)
        assert a.min == c.min and a.max == c.max

    def test_merge_into_empty(self):
        a, b = RunningStat(), RunningStat()
        b.add(4.0)
        a.merge(b)
        assert a.count == 1 and a.mean == 4.0

    def test_merge_empty_is_noop(self):
        a, b = RunningStat(), RunningStat()
        a.add(4.0)
        a.merge(b)
        assert a.count == 1 and a.mean == 4.0


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram(bucket_width=10, num_buckets=4)
        for value in (0, 5, 15, 35):
            hist.add(value)
        # Sparse: only the filled buckets are stored.
        assert hist.buckets == {0: 2, 1: 1, 3: 1}
        assert hist.num_buckets == 4
        assert hist.overflow == 0

    def test_overflow(self):
        hist = Histogram(bucket_width=1, num_buckets=2)
        hist.add(100)
        assert hist.overflow == 1

    def test_percentile(self):
        hist = Histogram(bucket_width=10, num_buckets=10)
        for value in range(100):
            hist.add(value)
        assert hist.percentile(0.5) == pytest.approx(45.0, abs=10)
        assert hist.percentile(1.0) == pytest.approx(95.0, abs=10)

    def test_percentile_empty(self):
        hist = Histogram(bucket_width=10)
        assert hist.percentile(0.5) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Histogram(bucket_width=0)
        with pytest.raises(ValueError):
            Histogram(bucket_width=1, num_buckets=0)
        hist = Histogram(bucket_width=1)
        with pytest.raises(ValueError):
            hist.percentile(0.0)

    def test_negative_values_count_as_underflow(self):
        # int() truncates toward zero, so without the explicit underflow
        # counter every value in (-width, 0) would alias into bucket 0.
        hist = Histogram(bucket_width=10, num_buckets=4)
        hist.add(-0.5)
        hist.add(-25)
        hist.add(3)
        assert hist.underflow == 2
        assert hist.buckets == {0: 1}
        assert hist.count == 3

    def test_percentile_in_underflow_clamps_to_min(self):
        hist = Histogram(bucket_width=10, num_buckets=4)
        hist.add(-7)
        hist.add(-3)
        hist.add(5)
        value, clamped = hist.percentile_detail(0.5)
        assert value == -7.0  # clamped to the observed minimum
        assert clamped is True

    def test_percentile_in_overflow_clamps_to_max(self):
        hist = Histogram(bucket_width=10, num_buckets=2)
        hist.add(5)
        hist.add(500)
        hist.add(900)
        value, clamped = hist.percentile_detail(1.0)
        assert value == 900.0
        assert clamped is True
        # the in-range percentile is untouched by the clamp logic
        value, clamped = hist.percentile_detail(0.3)
        assert value == 5.0
        assert clamped is False

    def test_percentile_detail_in_range_not_clamped(self):
        hist = Histogram(bucket_width=10, num_buckets=10)
        for value in range(100):
            hist.add(value)
        value, clamped = hist.percentile_detail(0.5)
        assert clamped is False
        assert value == pytest.approx(45.0, abs=10)

    def test_merge_matches_sequential(self):
        a = Histogram(bucket_width=10, num_buckets=4)
        b = Histogram(bucket_width=10, num_buckets=4)
        c = Histogram(bucket_width=10, num_buckets=4)
        for value in (-5, 3, 15, 99):
            a.add(value)
            c.add(value)
        for value in (7, 200, -1):
            b.add(value)
            c.add(value)
        a.merge(b)
        assert a.buckets == c.buckets == {0: 2, 1: 1}
        assert a.underflow == c.underflow
        assert a.overflow == c.overflow
        assert a.count == c.count
        assert a.stat.mean == pytest.approx(c.stat.mean)
        assert a.stat.min == c.stat.min and a.stat.max == c.stat.max

    def test_merge_shape_mismatch_rejected(self):
        base = Histogram(bucket_width=10, num_buckets=4)
        with pytest.raises(ValueError, match="different shapes"):
            base.merge(Histogram(bucket_width=5, num_buckets=4))
        with pytest.raises(ValueError, match="different shapes"):
            base.merge(Histogram(bucket_width=10, num_buckets=8))
