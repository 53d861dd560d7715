"""Lightweight statistics collectors used throughout the simulator."""

from __future__ import annotations

import math
import operator
from typing import Dict, List, Mapping, Optional, Tuple, Union


class HistogramShapeError(ValueError):
    """Two histograms with different bucket shapes were merged.

    Merging a ``width x count`` histogram into one with different bin
    edges would silently misbin every sample; the mismatch is raised by
    name instead.  Subclasses :class:`ValueError` so pre-existing
    callers that caught the generic error keep working.
    """


class RunningStat:
    """Streaming mean / variance / min / max (Welford's algorithm)."""

    __slots__ = ("count", "_mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStat") -> None:
        """Fold another collector into this one (parallel Welford merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min, self.max, self.total = other.min, other.max, other.total
            return
        n1, n2 = self.count, other.count
        delta = other._mean - self._mean
        total = n1 + n2
        self._m2 += other._m2 + delta * delta * n1 * n2 / total
        self._mean += delta * n2 / total
        self.count = total
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RunningStat(n={self.count}, mean={self.mean:.2f})"


class Histogram:
    """Fixed-width bucket histogram with underflow and overflow counters.

    Bucket ``i`` covers ``[i * bucket_width, (i + 1) * bucket_width)``.
    Negative samples land in ``underflow``; samples at or beyond the
    bucketed range land in ``overflow``.  Both are part of ``count`` and
    both participate in :meth:`percentile`, which clamps out-of-range
    answers to the observed extremes instead of fabricating a midpoint.
    """

    __slots__ = ("bucket_width", "buckets", "underflow", "overflow", "stat")

    def __init__(self, bucket_width: float, num_buckets: int = 64) -> None:
        if bucket_width <= 0 or num_buckets <= 0:
            raise ValueError("bucket_width and num_buckets must be positive")
        self.bucket_width = bucket_width
        self.buckets = [0] * num_buckets
        self.underflow = 0
        self.overflow = 0
        self.stat = RunningStat()

    def add(self, value: float) -> None:
        self.stat.add(value)
        if value < 0:
            # int() truncates toward zero, so (-width, 0) would otherwise
            # alias into bucket 0; negatives are counted out-of-range.
            self.underflow += 1
            return
        index = int(value / self.bucket_width)
        if index < len(self.buckets):
            self.buckets[index] += 1
        else:
            self.overflow += 1

    @property
    def count(self) -> int:
        return self.stat.count

    def percentile(self, fraction: float) -> float:
        """Approximate percentile from bucket midpoints (0 < fraction <= 1)."""
        return self.percentile_detail(fraction)[0]

    def percentile_detail(self, fraction: float) -> Tuple[float, bool]:
        """Percentile plus whether it fell outside the bucketed range.

        Returns ``(value, clamped)``.  ``clamped`` is True when the
        requested fraction lands in the underflow/overflow tail, in which
        case ``value`` is the observed min/max rather than a bucket
        midpoint.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if self.count == 0:
            return 0.0, False
        target = fraction * self.count
        seen = self.underflow
        if self.underflow and seen >= target:
            return float(self.stat.min), True
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= target:
                return (i + 0.5) * self.bucket_width, False
        # The percentile sits among overflowed samples: clamp to the
        # largest value actually observed instead of inventing one.
        return float(self.stat.max), True

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram into this one (bucket-wise).

        Raises :class:`HistogramShapeError` when the bin edges differ —
        merging across shapes would misbin silently.
        """
        if (
            other.bucket_width != self.bucket_width
            or len(other.buckets) != len(self.buckets)
        ):
            raise HistogramShapeError(
                f"cannot merge histograms with different shapes: "
                f"{self.bucket_width}x{len(self.buckets)} vs "
                f"{other.bucket_width}x{len(other.buckets)}"
            )
        self.buckets = list(map(operator.add, self.buckets, other.buckets))
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.stat.merge(other.stat)


class TailAccumulator:
    """Order-invariant streaming fold of :class:`Histogram` tails.

    The fleet layer folds thousands of per-shard histograms in whatever
    order jobs complete, and its results must be bit-identical between
    ``--jobs 1`` and ``--jobs N``.  :meth:`Histogram.merge` cannot give
    that guarantee: its Welford moment merge accumulates floating-point
    error that depends on fold order.  This accumulator keeps only the
    *exactly* commutative parts — integer bucket counts, min/max
    comparisons, and a running total that stays exact for the simulator's
    integer-valued picosecond samples — so any fold order over any
    partition of the same histograms produces the same state.

    An accumulator starts shapeless and adopts the shape of the first
    histogram folded into it; a later histogram with different bin edges
    raises :class:`HistogramShapeError`.

    Percentiles mirror :meth:`Histogram.percentile_detail` (bucket
    midpoints, tails clamped to observed extremes) with one deliberate
    difference: an *empty* accumulator reports ``None`` instead of
    ``0.0``, so shards that completed zero requests cannot poison a
    fleet percentile downward.
    """

    __slots__ = (
        "bucket_width",
        "buckets",
        "underflow",
        "overflow",
        "count",
        "min",
        "max",
        "total",
    )

    def __init__(self) -> None:
        self.bucket_width: Optional[float] = None
        self.buckets: List[int] = []
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.total = 0.0

    @property
    def shaped(self) -> bool:
        return self.bucket_width is not None

    def _adopt_or_check(self, bucket_width: float, num_buckets: int) -> None:
        if self.bucket_width is None:
            self.bucket_width = bucket_width
            self.buckets = [0] * num_buckets
            return
        if bucket_width != self.bucket_width or num_buckets != len(self.buckets):
            raise HistogramShapeError(
                f"cannot fold histograms with different shapes: "
                f"{self.bucket_width}x{len(self.buckets)} vs "
                f"{bucket_width}x{num_buckets}"
            )

    def _fold_extremes(
        self, lo: Optional[float], hi: Optional[float], total: float
    ) -> None:
        if lo is not None and (self.min is None or lo < self.min):
            self.min = lo
        if hi is not None and (self.max is None or hi > self.max):
            self.max = hi
        self.total += total

    def fold(self, hist: Histogram) -> None:
        """Fold one histogram's tail state in (exact, order-invariant)."""
        if hist.count == 0:
            # Shapeless empties stay shapeless: an empty shard must not
            # pin the fleet to its (arbitrary) bucket geometry either.
            return
        self._adopt_or_check(hist.bucket_width, len(hist.buckets))
        self.buckets = list(map(operator.add, self.buckets, hist.buckets))
        self.underflow += hist.underflow
        self.overflow += hist.overflow
        self.count += hist.stat.count
        self._fold_extremes(hist.stat.min, hist.stat.max, hist.stat.total)

    def merge(self, other: "TailAccumulator") -> None:
        """Fold another accumulator in (same exactness guarantees)."""
        if other.count == 0:
            return
        self._adopt_or_check(other.bucket_width, len(other.buckets))
        self.buckets = list(map(operator.add, self.buckets, other.buckets))
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.count += other.count
        self._fold_extremes(other.min, other.max, other.total)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> Optional[float]:
        """Percentile from bucket midpoints; ``None`` when empty.

        Same clamping as :meth:`Histogram.percentile_detail`: a fraction
        landing in the underflow/overflow tail reports the observed
        min/max instead of fabricating a midpoint.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if self.count == 0:
            return None
        target = fraction * self.count
        seen = self.underflow
        if self.underflow and seen >= target:
            return float(self.min)
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= target:
                return (i + 0.5) * self.bucket_width
        return float(self.max)

    def state(self) -> Dict[str, object]:
        """Canonical JSON-able dump (sparse buckets), for fleet digests."""
        return {
            "bucket_width": self.bucket_width,
            "num_buckets": len(self.buckets),
            "buckets": [[i, n] for i, n in enumerate(self.buckets) if n],
            "underflow": self.underflow,
            "overflow": self.overflow,
            "count": self.count,
            "min": self.min,
            "max": self.max,
            "total": self.total,
        }


class CounterBag:
    """Named integer counters with exact, order-invariant merging.

    The streaming-aggregation counterpart of :class:`StatsRegistry`'s
    counter half: integer addition commutes exactly, so a bag folded in
    any completion order holds identical values.  Non-integral amounts
    are rejected rather than silently truncated — fleet per-kind
    conservation (shard sums == fleet totals) only holds over exact
    arithmetic.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def add(self, name: str, amount: Union[int, float] = 1) -> None:
        if isinstance(amount, float):
            if not amount.is_integer():
                raise ValueError(
                    f"counter {name!r}: non-integral amount {amount!r}"
                )
            amount = int(amount)
        if amount:
            self.counts[name] = self.counts.get(name, 0) + amount

    def fold_dict(self, mapping: Mapping[str, Union[int, float]]) -> None:
        for name, amount in mapping.items():
            self.add(name, amount)

    def merge(self, other: "CounterBag") -> None:
        self.fold_dict(other.counts)

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: self.counts[name] for name in sorted(self.counts)}


class StatsRegistry:
    """Named collection of counters and RunningStats for one simulation."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.stats: Dict[str, RunningStat] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def record(self, name: str, value: float) -> None:
        stat = self.stats.get(name)
        if stat is None:
            stat = RunningStat()
            self.stats[name] = stat
        stat.add(value)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def mean(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.mean if stat else 0.0

    def names(self) -> List[str]:
        return sorted(set(self.counters) | set(self.stats))

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = dict(self.counters)
        for name, stat in self.stats.items():
            for key, value in (
                (f"{name}.mean", stat.mean),
                (f"{name}.count", stat.count),
            ):
                if key in self.counters:
                    raise ValueError(
                        f"stats registry key collision: stat {name!r} emits "
                        f"{key!r}, which is already a counter name"
                    )
                out[key] = value
        return out
