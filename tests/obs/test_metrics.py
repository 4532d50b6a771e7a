"""Unit tests for the metrics registry: validation, binning, export."""

import math

import pytest

from repro.errors import ObsError, ReproError
from repro.obs import (
    BATCH_SIZE_BUCKETS,
    MetricsRegistry,
    metric_key,
    validate_bucket_edges,
)
from repro.obs.metrics import Counter, Histogram, NullMetric


class TestBucketEdgeValidation:
    def test_valid_edges_pass_through_as_floats(self):
        assert validate_bucket_edges((1, 5, 10)) == (1.0, 5.0, 10.0)

    def test_empty_edges_rejected(self):
        with pytest.raises(ObsError):
            validate_bucket_edges(())

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ObsError):
            validate_bucket_edges((1, 10, 5))

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ObsError):
            validate_bucket_edges((1, 5, 5, 10))

    def test_nan_edge_rejected(self):
        with pytest.raises(ObsError):
            validate_bucket_edges((1.0, math.nan))

    def test_infinite_edge_rejected(self):
        with pytest.raises(ObsError):
            validate_bucket_edges((1.0, math.inf))

    def test_obs_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            validate_bucket_edges(())

    def test_builtin_bucket_constants_are_valid(self):
        assert validate_bucket_edges(BATCH_SIZE_BUCKETS) == BATCH_SIZE_BUCKETS


class TestHistogramBinning:
    def test_value_on_edge_lands_in_that_bucket(self):
        hist = Histogram((1, 5, 10))
        hist.observe(5)
        assert hist.counts == [0, 1, 0, 0]

    def test_value_below_first_edge(self):
        hist = Histogram((1, 5, 10))
        hist.observe(0.2)
        assert hist.counts == [1, 0, 0, 0]

    def test_value_between_edges(self):
        hist = Histogram((1, 5, 10))
        hist.observe(2)
        assert hist.counts == [0, 1, 0, 0]

    def test_value_above_last_edge_goes_to_overflow(self):
        hist = Histogram((1, 5, 10))
        hist.observe(11)
        assert hist.counts == [0, 0, 0, 1]

    def test_count_tracks_observations(self):
        hist = Histogram((1,))
        for value in (0, 1, 2):
            hist.observe(value)
        assert hist.count == 3


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("visits").inc()
        registry.counter("visits").inc(2)
        assert registry.get("visits").value == 3

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ObsError):
            registry.counter("visits").inc(-1)

    def test_labels_are_order_insensitive(self):
        registry = MetricsRegistry()
        registry.counter("v", a="x", b="y").inc()
        registry.counter("v", b="y", a="x").inc()
        assert registry.get("v", a="x", b="y").value == 2
        assert metric_key("v", {"b": "y", "a": "x"}) == "v{a=x,b=y}"

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ObsError):
            registry.histogram("thing", (1, 2))

    def test_histogram_edge_change_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1, 2))
        with pytest.raises(ObsError):
            registry.histogram("h", (1, 3))

    def test_disabled_registry_hands_out_null_metrics(self):
        registry = MetricsRegistry.disabled()
        metric = registry.counter("visits")
        assert isinstance(metric, NullMetric)
        metric.inc()
        assert len(registry) == 0

    def test_exports_contain_no_floats_from_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("h", (0.5, 1)).observe(0.123456789)
        payload = registry.as_dict()["histograms"]["h"]
        assert payload["counts"] == [1, 0, 0]
        assert all(isinstance(count, int) for count in payload["counts"])
        assert "sum" not in payload


class TestFiniteValueGuard:
    """NaN/inf observations must fail loudly, not poison exports."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_histogram_observe_rejects_non_finite(self, bad):
        hist = Histogram((1, 5))
        with pytest.raises(ObsError):
            hist.observe(bad)
        assert hist.count == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_counter_inc_rejects_non_finite(self, bad):
        counter = Counter()
        with pytest.raises(ObsError):
            counter.inc(bad)
        assert counter.value == 0

    def test_registry_instruments_are_guarded_too(self):
        registry = MetricsRegistry()
        with pytest.raises(ObsError):
            registry.histogram("h", (1,)).observe(math.nan)
        with pytest.raises(ObsError):
            registry.histogram("g", (1, 2)).observe(math.inf)
