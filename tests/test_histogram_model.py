"""Differential test: sparse histograms against a dense-list reference.

``Histogram`` and ``TailAccumulator`` keep only their filled buckets, in
a ``{index: count}`` dict.  The model below is the dense form they
replaced: one list slot per bucket, added slot by slot.  Hypothesis
drives both through the same samples (negatives and overflow
included), merges, fleet folds over random partitions, percentiles and
the cache round trip, and every observable must agree exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serialization import _hist_from_state, _hist_to_state
from repro.sim.stats import Histogram, TailAccumulator

WIDTH = 100.0
NUM_BUCKETS = 16

#: Bucketed range is [0, 1600): samples reach both tails.
samples = st.lists(
    st.one_of(
        st.integers(min_value=-300, max_value=3_000),
        st.floats(min_value=-300.0, max_value=3_000.0, allow_nan=False),
    ),
    max_size=40,
)
fractions = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=5
).map(lambda drawn: drawn + [0.5, 0.95, 0.99, 1.0])


class DenseModel:
    """A histogram or tail accumulator kept as a dense list of counts."""

    def __init__(self, width=None, num_buckets=0):
        self.width = width
        self.counts = [0] * num_buckets
        self.underflow = self.overflow = self.count = 0
        self.min = self.max = None
        self.total = 0.0

    @classmethod
    def of(cls, values):
        model = cls(WIDTH, NUM_BUCKETS)
        for value in values:
            model.count += 1
            model.total += value
            model.min = value if model.min is None else min(model.min, value)
            model.max = value if model.max is None else max(model.max, value)
            if value < 0:
                model.underflow += 1
            elif int(value / WIDTH) < NUM_BUCKETS:
                model.counts[int(value / WIDTH)] += 1
            else:
                model.overflow += 1
        return model

    def fold(self, other):
        """Histogram.merge / TailAccumulator.fold and merge, densely."""
        if other.count == 0:
            return
        if self.width is None:
            self.width, self.counts = other.width, [0] * len(other.counts)
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.count += other.count
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        self.total += other.total

    def sparse(self):
        return {i: n for i, n in enumerate(self.counts) if n}

    def percentile(self, fraction):
        """``(value, clamped)``, or None when empty."""
        if self.count == 0:
            return None
        target = fraction * self.count
        seen = self.underflow
        if self.underflow and seen >= target:
            return float(self.min), True
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target:
                return (i + 0.5) * self.width, False
        return float(self.max), True

    def state(self):
        return {
            "bucket_width": self.width,
            "num_buckets": len(self.counts),
            "buckets": [[i, n] for i, n in enumerate(self.counts) if n],
            "underflow": self.underflow,
            "overflow": self.overflow,
            "count": self.count,
            "min": self.min,
            "max": self.max,
            "total": self.total,
        }


def _hist(values):
    hist = Histogram(WIDTH, NUM_BUCKETS)
    for value in values:
        hist.add(value)
    return hist


def _check_hist(hist, model, wanted):
    assert hist.buckets == model.sparse()
    assert all(n > 0 for n in hist.buckets.values())
    assert (hist.underflow, hist.overflow, hist.count) == (
        model.underflow,
        model.overflow,
        model.count,
    )
    assert (hist.stat.min, hist.stat.max) == (model.min, model.max)
    for fraction in wanted:
        expected = model.percentile(fraction)
        got = hist.percentile_detail(fraction)
        assert got == ((0.0, False) if expected is None else expected)
    state = _hist_to_state(hist)
    assert state["buckets"] == model.state()["buckets"]
    assert state["num_buckets"] == NUM_BUCKETS
    decoded = _hist_from_state(state)
    assert decoded.buckets == hist.buckets
    assert _hist_to_state(decoded) == state


def _check_acc(acc, model, wanted):
    assert acc.state() == model.state()
    assert acc.buckets == model.sparse()
    for fraction in wanted:
        expected = model.percentile(fraction)
        assert acc.percentile(fraction) == (
            None if expected is None else expected[0]
        )


@given(
    shards=st.lists(samples, min_size=1, max_size=6),
    wanted=fractions,
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_sparse_classes_match_dense_model(shards, wanted, data):
    hists = [_hist(values) for values in shards]
    models = [DenseModel.of(values) for values in shards]
    for hist, model in zip(hists, models):
        _check_hist(hist, model, wanted)
    sources = [dict(hist.buckets) for hist in hists]

    # Histogram.merge, in shard order.
    merged = Histogram(WIDTH, NUM_BUCKETS)
    merged_model = DenseModel(WIDTH, NUM_BUCKETS)
    for hist, model in zip(hists, models):
        merged.merge(hist)
        merged_model.fold(model)
        _check_hist(merged, merged_model, wanted)

    # Fleet folds: each shard into one of three accumulators, which are
    # then merged in a drawn order.
    groups = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=2),
            min_size=len(hists),
            max_size=len(hists),
        )
    )
    accs = [TailAccumulator() for _ in range(3)]
    acc_models = [DenseModel() for _ in range(3)]
    for group, hist, model in zip(groups, hists, models):
        accs[group].fold(hist)
        acc_models[group].fold(model)
    for acc, model in zip(accs, acc_models):
        _check_acc(acc, model, wanted)
    whole, whole_model = TailAccumulator(), DenseModel()
    for group in data.draw(st.permutations(range(3))):
        whole.merge(accs[group])
        whole_model.fold(acc_models[group])
        _check_acc(whole, whole_model, wanted)

    # No fold or merge wrote into a source's buckets.
    assert [hist.buckets for hist in hists] == sources
    assert [acc.state() for acc in accs] == [m.state() for m in acc_models]
