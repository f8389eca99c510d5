"""Metrics unit tests: counters, histogram interpolation and merging,
the lossless state round-trip, and the named hub with its merge by
metric kind."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKET_BOUNDS_MS,
    Counter,
    LatencyHistogram,
    MetricsHub,
)


class TestCounterGauge:
    def test_counter_adds(self):
        counter = Counter()
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().add(-1)


class TestHistogramInterpolation:
    def test_interpolates_within_bucket(self):
        histogram = LatencyHistogram(bounds_ms=(10.0, 20.0))
        for _ in range(4):
            histogram.observe(15.0)  # all land in the (10, 20] bucket
        # rank 2 of 4 → half-way through the bucket: 10 + 10 * 2/4.
        assert histogram.percentile_ms(0.50) == pytest.approx(15.0)
        assert histogram.percentile_ms(0.25) == pytest.approx(12.5)
        assert histogram.percentile_ms(1.00) == pytest.approx(20.0)

    def test_first_bucket_interpolates_from_zero(self):
        histogram = LatencyHistogram(bounds_ms=(8.0, 16.0))
        histogram.observe(1.0)
        histogram.observe(2.0)
        assert histogram.percentile_ms(0.5) == pytest.approx(4.0)

    def test_overflow_reports_observed_max(self):
        histogram = LatencyHistogram(bounds_ms=(1.0,))
        histogram.observe(250.0)
        assert histogram.percentile_ms(0.99) == 250.0
        assert histogram.percentile_ms(1.0) == 250.0

    def test_boundary_rank_matches_upper_bound(self):
        # The pre-interpolation estimator's fixed points: a rank landing
        # exactly on a cumulative boundary still yields the bucket's
        # upper bound (the serving tests' historical expectations).
        histogram = LatencyHistogram(bounds_ms=(1.0, 10.0, 100.0))
        for sample in (0.2, 0.5, 5.0, 50.0):
            histogram.observe(sample)
        assert histogram.percentile_ms(0.50) == 1.0
        assert histogram.percentile_ms(0.75) == 10.0
        assert histogram.percentile_ms(1.00) == 100.0

    def test_rejects_bad_fraction_and_bounds(self):
        histogram = LatencyHistogram()
        with pytest.raises(ValueError):
            histogram.percentile_ms(0.0)
        with pytest.raises(ValueError):
            histogram.percentile_ms(1.5)
        with pytest.raises(ValueError):
            LatencyHistogram(bounds_ms=())
        with pytest.raises(ValueError):
            LatencyHistogram(bounds_ms=(2.0, 1.0))


class TestHistogramMerge:
    def test_merge_equals_single_stream(self):
        left = LatencyHistogram()
        right = LatencyHistogram()
        both = LatencyHistogram()
        for sample in (0.3, 1.5, 40.0):
            left.observe(sample)
            both.observe(sample)
        for sample in (0.1, 7.0, 9000.0):
            right.observe(sample)
            both.observe(sample)
        left.merge(right)
        assert left.as_dict() == both.as_dict()

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            LatencyHistogram(bounds_ms=(1.0,)).merge(
                LatencyHistogram(bounds_ms=(2.0,))
            )

    def test_state_round_trip_is_lossless(self):
        histogram = LatencyHistogram()
        for sample in (0.2, 3.0, 77.0, 10_000.0):
            histogram.observe(sample)
        rebuilt = LatencyHistogram.from_state(histogram.to_state())
        assert rebuilt.as_dict() == histogram.as_dict()
        assert rebuilt.bounds_ms == histogram.bounds_ms
        # State is plain data: lists/numbers only (pickles, JSONs).
        state = histogram.to_state()
        assert isinstance(state["bounds_ms"], list)
        assert isinstance(state["counts"], list)

    def test_from_state_rejects_length_mismatch(self):
        state = LatencyHistogram().to_state()
        state["counts"] = [0]
        with pytest.raises(ValueError):
            LatencyHistogram.from_state(state)

    def test_as_dict_shape_is_stable(self):
        payload = LatencyHistogram().as_dict()
        assert set(payload) == {
            "count", "mean_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms",
            "buckets",
        }
        assert "overflow" in payload["buckets"]
        assert len(payload["buckets"]) == len(DEFAULT_BUCKET_BOUNDS_MS) + 1


class TestMetricsHub:
    def test_get_or_create_returns_same_instance(self):
        hub = MetricsHub()
        assert hub.counter("a") is hub.counter("a")
        assert hub.counter_family("f") is hub.counter_family("f")
        assert hub.histogram("h") is hub.histogram("h")

    def test_cross_kind_name_collision_raises(self):
        hub = MetricsHub()
        hub.counter("x")
        with pytest.raises(ValueError):
            hub.counter_family("x")
        with pytest.raises(ValueError):
            hub.histogram("x")

    def test_to_state_is_plain_data(self):
        hub = MetricsHub()
        hub.counter("c").add(2)
        hub.counter_family("f").add(7, 3)
        hub.histogram("h").observe(3.0)
        state = hub.to_state()
        assert state["counters"] == {"c": 2}
        assert state["counter_families"] == {"f": {"7": 3}}
        assert state["histograms"]["h"]["total"] == 1
        assert pickle.loads(pickle.dumps(state)) == state


#: One recorded event: (kind, metric name, label, amount or sample).
#: Each name belongs to one kind, so two streams never clash.
_EVENTS = st.one_of(
    st.tuples(
        st.just("counter"),
        st.sampled_from(["counter.a", "counter.b"]),
        st.none(),
        st.integers(0, 5),
    ),
    st.tuples(
        st.just("family"),
        st.sampled_from(["family.a", "family.b"]),
        st.integers(0, 3),
        st.integers(0, 5),
    ),
    st.tuples(
        st.just("histogram"),
        st.sampled_from(["histogram.a", "histogram.b"]),
        st.none(),
        # Quarter-millisecond samples: exact in binary floating point,
        # so a histogram's float sum does not depend on the order its
        # samples were added in, and they land on bucket bounds too.
        st.integers(0, 40_000).map(lambda quarters: quarters / 4),
    ),
)


def _feed(hub: MetricsHub, events) -> MetricsHub:
    for kind, name, label, value in events:
        if kind == "counter":
            hub.counter(name).add(value)
        elif kind == "family":
            hub.counter_family(name).add(label, value)
        else:
            hub.histogram(name).observe(value)
    return hub


class TestHubMerge:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_EVENTS, max_size=30), st.lists(_EVENTS, max_size=30))
    def test_merge_equals_one_hub_fed_both_streams(self, left, right):
        merged = _feed(MetricsHub(), left)
        merged.merge_state(_feed(MetricsHub(), right).to_state())
        assert merged.to_state() == _feed(MetricsHub(), left + right).to_state()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_EVENTS, max_size=30), st.lists(_EVENTS, max_size=30))
    def test_merge_through_pickle_into_empty_hub(self, left, right):
        # The gateway's path: states cross a process boundary and fold
        # into a fresh hub one worker at a time.
        fleet = MetricsHub()
        for events in (left, right):
            state = _feed(MetricsHub(), events).to_state()
            fleet.merge_state(pickle.loads(pickle.dumps(state)))
        assert fleet.to_state() == _feed(MetricsHub(), left + right).to_state()

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(_EVENTS, max_size=20),
        st.sampled_from(["counter.a", "family.a", "histogram.a"]),
    )
    def test_kind_clash_raises_and_merges_nothing(self, events, name):
        hub = _feed(MetricsHub(), [e for e in events if e[1] != name])
        # Register ``name`` here as a kind other than the one it has in
        # the incoming state.
        if name.startswith("counter"):
            hub.histogram(name)
        else:
            hub.counter(name)
        before = hub.to_state()
        other = _feed(MetricsHub(), events)
        other.counter("counter.a").add(1)
        other.counter_family("family.a").add("x", 1)
        other.histogram("histogram.a").observe(1.0)
        with pytest.raises(ValueError):
            hub.merge_state(other.to_state())
        assert hub.to_state() == before

    def test_histogram_bounds_mismatch_raises_and_merges_nothing(self):
        hub = MetricsHub()
        hub.counter("c").add(1)
        hub.histogram("h", (1.0, 2.0)).observe(1.5)
        before = hub.to_state()
        other = MetricsHub()
        other.counter("c").add(5)
        other.histogram("h", (1.0, 4.0)).observe(3.0)
        with pytest.raises(ValueError):
            hub.merge_state(other.to_state())
        assert hub.to_state() == before

    def test_name_under_two_kinds_in_one_state_raises(self):
        state = MetricsHub().to_state()
        state["counters"]["x"] = 1
        state["counter_families"]["x"] = {"a": 1}
        hub = MetricsHub()
        with pytest.raises(ValueError):
            hub.merge_state(state)
        assert hub.to_state() == MetricsHub().to_state()

    @pytest.mark.parametrize(
        "state",
        [
            {"gauges": {"g": 1.0}},
            {"counters": {"c": -1}},
            {"counters": {"c": 1.5}},
            {"counter_families": {"f": {"a": -2}}},
            {"counter_families": {"f": [1, 2]}},
        ],
    )
    def test_malformed_state_raises(self, state):
        hub = MetricsHub()
        with pytest.raises(ValueError):
            hub.merge_state(state)
        assert hub.to_state() == MetricsHub().to_state()
