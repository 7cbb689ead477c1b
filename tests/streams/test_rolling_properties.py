"""Property tests: incremental window maintenance == from-scratch.

The satellite (c) contract: for every aggregate (avg/sum/count/min/max),
every partial learner, and the min-size tracker under adversarial
eviction orders, the O(1)-per-slide incremental state must match a
from-scratch recomputation of the same window — exactly for discrete
quantities (counts, extrema, bin counts, minimum sizes), within 1e-9
relative error for the compensated/Welford float paths.
"""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dfsample import DfSized
from repro.distributions.gaussian import GaussianDistribution
from repro.learning.gaussian_learner import GaussianLearner
from repro.learning.histogram_learner import HistogramLearner
from repro.streams.engine import Pipeline
from repro.streams.operators import CollectSink, WindowAggregate
from repro.streams.rolling import (
    MinSizeTracker,
    RollingWindowStats,
    SlidingExtremum,
)
from repro.streams.tuples import UncertainTuple

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
streams = st.lists(finite_floats, min_size=1, max_size=120)
window_sizes = st.integers(min_value=1, max_value=16)


def _close(a, b, scale=1.0):
    """Within 1e-9 of each other, relative to the data magnitude.

    Windows that nearly cancel (sum ~0 out of ±1e12 members) make error
    relative to the *residual* unattainable for any fixed-precision
    scheme; the contract is 1e-9 relative to the member magnitudes.
    """
    return a == pytest.approx(b, rel=1e-9, abs=1e-9 * max(scale, 1.0))


@given(values=streams, window_size=window_sizes)
@settings(max_examples=120, deadline=None)
def test_rolling_stats_match_from_scratch_every_slide(values, window_size):
    stats = RollingWindowStats(resum_interval=7, track_extrema=True)
    window = []
    for i, x in enumerate(values):
        variance = abs(x) / 3.0
        size = None if i % 5 == 4 else (i % 11) + 2
        stats.push(x, variance, size)
        window.append((x, variance, size))
        if len(window) > window_size:
            stats.evict_oldest()
            window.pop(0)
        assert stats.count == len(window)
        scale = max(abs(m) for m, _, _ in window)
        assert _close(
            stats.mean_sum, math.fsum(m for m, _, _ in window), scale
        )
        assert _close(
            stats.var_sum, math.fsum(v for _, v, _ in window), scale
        )
        assert stats.min_mean == min(m for m, _, _ in window)
        assert stats.max_mean == max(m for m, _, _ in window)
        sizes = [n for _, _, n in window if n is not None]
        assert stats.df_size == (min(sizes) if sizes else None)


@pytest.mark.parametrize("agg", ["avg", "sum", "count", "min", "max"])
@given(values=streams, window_size=window_sizes)
@settings(max_examples=40, deadline=None)
def test_window_aggregate_matches_naive(agg, values, window_size):
    tuples = [
        UncertainTuple(
            {"x": DfSized(GaussianDistribution(v, abs(v) / 7.0 + 1.0), 10)}
        )
        for v in values
    ]
    sink = Pipeline(
        [WindowAggregate("x", window_size, agg=agg), CollectSink()]
    ).run(tuples)
    assert len(sink.results) == len(values)
    for i, tup in enumerate(sink.results):
        window = values[max(0, i - window_size + 1) : i + 1]
        got = tup.value(agg)
        if agg == "count":
            assert got == float(len(window))
        elif agg == "min":
            assert got == min(window)
        elif agg == "max":
            assert got == max(window)
        elif agg == "sum":
            assert _close(
                got.distribution.mu, math.fsum(window), max(map(abs, window))
            )
        else:
            assert _close(
                got.distribution.mu,
                math.fsum(window) / len(window),
                max(map(abs, window)),
            )


@given(values=streams, window_size=window_sizes)
@settings(max_examples=100, deadline=None)
def test_sliding_extremum_matches_naive(values, window_size):
    lo = SlidingExtremum("min")
    hi = SlidingExtremum("max")
    window = []
    for x in values:
        lo.push(x)
        hi.push(x)
        window.append(x)
        if len(window) > window_size:
            window.pop(0)
            lo.evict()
            hi.evict()
        assert lo.value == min(window)
        assert hi.value == max(window)


@given(
    events=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=8)),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=100, deadline=None)
def test_min_tracker_under_adversarial_orders(events):
    """Arbitrary interleavings of add/discard (any member, not FIFO)."""
    tracker = MinSizeTracker()
    multiset = []
    for is_add, size in events:
        if is_add or not multiset:
            tracker.add(size)
            multiset.append(size)
        else:
            # Discard an arbitrary *present* member chosen by the draw.
            victim = multiset.pop(size % len(multiset))
            tracker.discard(victim)
        assert tracker.minimum == (min(multiset) if multiset else None)
        assert len(tracker) == len(multiset)


@given(values=st.lists(finite_floats, min_size=2, max_size=80))
@settings(max_examples=100, deadline=None)
def test_gaussian_partial_matches_from_scratch(values):
    window_size = 8
    learner = GaussianLearner()
    state = learner.partial_begin(resum_interval=5)
    window = []
    for x in values:
        learner.partial_add(state, x)
        window.append(x)
        if len(window) > window_size:
            learner.partial_evict(state, window.pop(0))
        if len(window) < 2:
            continue
        ref = learner.learn(list(window)).distribution
        dist = learner.partial_distribution(state)
        scale = max(map(abs, window))
        assert _close(dist.mu, ref.mu, scale)
        assert dist.sigma2 == pytest.approx(
            ref.sigma2, rel=1e-9, abs=1e-9 * max(1.0, scale * scale)
        )


@given(values=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=80))
@settings(max_examples=100, deadline=None)
def test_histogram_partial_counts_match_from_scratch(values):
    window_size = 12
    learner = HistogramLearner(edges=[0.0, 2.5, 5.0, 7.5, 10.0])
    state = learner.partial_begin()
    window = []
    for x in values:
        learner.partial_add(state, x)
        window.append(x)
        if len(window) > window_size:
            learner.partial_evict(state, window.pop(0))
        ref = learner.learn(list(window)).distribution
        dist = learner.partial_distribution(state)
        # Bin counts are integers: incremental must be *exactly* equal.
        assert list(dist.probabilities) == list(ref.probabilities)


@given(
    values=st.lists(finite_floats, min_size=2, max_size=60, unique=True)
)
@settings(max_examples=60, deadline=None)
def test_partial_state_exact_right_after_resum(values):
    learner = GaussianLearner()
    interval = 3
    state = learner.partial_begin(resum_interval=interval)
    window = []
    evictions = 0
    for x in values:
        learner.partial_add(state, x)
        window.append(x)
        if len(window) > 4:
            learner.partial_evict(state, window.pop(0))
            evictions += 1
            if evictions % interval == 0 and len(window) >= 1:
                # Just re-summed: mean equals the fsum reference exactly.
                assert state.mean == math.fsum(window) / len(window)


# -- the slide kernel ---------------------------------------------------------

# Magnitudes from 1e-3 to 1e12 in one stream: evicting a huge member
# next to small survivors trips the cancellation re-sum.
member_means = st.one_of(
    finite_floats, st.sampled_from([1e12, -1e12, 3e11, 1e-3, 0.0, -0.0])
)
member_variances = st.one_of(
    st.floats(0.0, 1e12), st.sampled_from([1e12, 0.0, 1e-9])
)
member_sizes = st.one_of(st.none(), st.integers(min_value=1, max_value=60))
members = st.lists(
    st.tuples(member_means, member_variances, member_sizes),
    min_size=1,
    max_size=150,
)


def _bits(values):
    """Exact float identity (signed zeros included) for comparisons."""
    return [v.hex() if isinstance(v, float) else v for v in values]


def _runs(n, cuts):
    """Split ``range(n)`` into consecutive runs at the given cut points."""
    edges = sorted({0, n, *(c % (n + 1) for c in cuts)})
    return list(zip(edges, edges[1:]))


@given(
    stream=members,
    window=st.integers(min_value=1, max_value=16),
    resum_interval=st.integers(min_value=1, max_value=9),
    cuts=st.lists(st.integers(min_value=0, max_value=150), max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_slide_is_push_evict_bitwise(stream, window, resum_interval, cuts):
    reference = RollingWindowStats(resum_interval)
    expected = []
    for mu, s2, size in stream:
        reference.push(mu, s2, size)
        if reference.count > window:
            reference.evict_oldest()
        k = reference.count
        expected.append(
            (reference.mean_sum / k, reference.var_sum / (k * k),
             reference.df_size)
        )
    fast = RollingWindowStats(resum_interval)
    got = []
    for a, b in _runs(len(stream), cuts):
        mus, s2s, sizes = zip(*stream[a:b])
        got.extend(zip(*fast.slide(mus, s2s, sizes, window)))
        # Step by step: the accessors agree after every run too.
        assert fast.count == min(b, window)
    for (e_mu, e_var, e_df), (g_mu, g_var, g_df) in zip(expected, got):
        assert _bits([e_mu, e_var]) == _bits([g_mu, g_var])
        assert e_df == g_df
    assert len(got) == len(expected)
    assert fast.resums == reference.resums
    assert _bits([fast.last_drift]) == _bits([reference.last_drift])
    assert _bits([fast.mean_sum, fast.var_sum]) == _bits(
        [reference.mean_sum, reference.var_sum]
    )
    assert fast.df_size == reference.df_size
    assert list(fast.members()) == list(reference.members())


@pytest.mark.parametrize(
    "huge", [(1e12, 1.0), (1.0, 1e12)], ids=["mean", "variance"]
)
def test_slide_takes_the_cancellation_resum(huge):
    # Periodic re-sums never fire here; only cancellation of the one
    # huge mean (or variance) can.
    stream = [(*huge, 5), (1.0, 1.0, 5), (2.0, 1.0, 5), (3.0, 1.0, 5)]
    reference = RollingWindowStats(resum_interval=10_000)
    for mu, s2, size in stream:
        reference.push(mu, s2, size)
        if reference.count > 2:
            reference.evict_oldest()
    fast = RollingWindowStats(resum_interval=10_000)
    fast.slide(*zip(*stream), 2)
    assert reference.resums >= 1
    assert fast.resums == reference.resums
    assert _bits([fast.mean_sum, fast.var_sum]) == _bits(
        [reference.mean_sum, reference.var_sum]
    )


@given(
    stream=members,
    window=st.integers(min_value=1, max_value=12),
    resum_interval=st.integers(min_value=1, max_value=5),
    emit_partial=st.booleans(),
    cuts=st.lists(st.integers(min_value=0, max_value=150), max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_window_operator_scalar_equals_batched(
    stream, window, resum_interval, emit_partial, cuts
):
    from repro.obs.metrics import MetricsRegistry
    from repro.streams.columnar import ColumnarBatch
    from repro.streams.operators import SlidingGaussianAverage

    tuples = [
        UncertainTuple(
            {"x": DfSized(GaussianDistribution(mu, s2), size)}
        )
        for mu, s2, size in stream
    ]
    sinks, registries = [], []
    for batched in (False, True):
        registry = MetricsRegistry()
        sink = CollectSink()
        op = SlidingGaussianAverage(
            "x", window, emit_partial=emit_partial,
            resum_interval=resum_interval,
        )
        pipeline = Pipeline([op, sink], registry=registry)
        try:
            if batched:
                for a, b in _runs(len(tuples), cuts):
                    pipeline.push_many(
                        ColumnarBatch.from_tuples(tuples[a:b])
                    )
            else:
                for tup in tuples:
                    pipeline.push(tup)
        except Exception as exc:  # noqa: BLE001 - both paths must agree
            sinks.append(type(exc))
            registries.append(None)
            continue
        sinks.append([pickle.dumps(t) for t in sink.results])
        registries.append(
            {
                name: state
                for name, state in registry.snapshot().items()
                if ".rolling." in name
            }
        )
    assert sinks[0] == sinks[1]
    assert registries[0] == registries[1]
