"""Contracts of the metrics registry: instruments, snapshots, aggregation."""

from __future__ import annotations

import json

import pytest

from repro.observability import (
    DEFAULT_LATENCY_BUCKETS_S,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_is_monotonic():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    counter.inc(0)
    assert counter.value == 5
    with pytest.raises(ValueError, match="cannot decrease"):
        counter.inc(-1)
    assert counter.value == 5


def test_gauge_last_write_wins():
    gauge = Gauge("g")
    assert gauge.value is None
    gauge.set(3)
    gauge.set(1)
    assert gauge.value == 1
    gauge.reset()
    assert gauge.value is None


def test_histogram_bucketing_edges():
    # Boundaries are upper-exclusive: v lands in bucket i iff
    # boundaries[i-1] <= v < boundaries[i].
    histogram = Histogram("h", (1.0, 2.0, 4.0))
    for value in (0.0, 0.99, 1.0, 1.5, 2.0, 4.0, 100.0):
        histogram.observe(value)
    assert histogram.counts == (2, 2, 1, 2)
    assert histogram.count == 7
    assert histogram.sum == pytest.approx(109.49)
    view = histogram.to_dict()
    assert view["min"] == 0.0
    assert view["max"] == 100.0
    histogram.reset()
    assert histogram.counts == (0, 0, 0, 0)
    assert histogram.to_dict()["min"] is None


def test_histogram_rejects_bad_boundaries():
    with pytest.raises(ValueError, match="at least one boundary"):
        Histogram("h", ())
    with pytest.raises(ValueError, match="strictly increasing"):
        Histogram("h", (1.0, 1.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        Histogram("h", (2.0, 1.0))


def test_registry_get_or_create_returns_same_instrument():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("b") is registry.gauge("b")
    assert registry.histogram("c", (1.0,)) is registry.histogram("c", (1.0,))


def test_registry_rejects_cross_kind_collisions():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError, match="already registered as a counter"):
        registry.gauge("x")
    with pytest.raises(ValueError, match="already registered as a counter"):
        registry.histogram("x")
    with pytest.raises(ValueError, match="non-empty string"):
        registry.counter("")


def test_registry_rejects_boundary_mismatch():
    registry = MetricsRegistry()
    registry.histogram("h", (1.0, 2.0))
    with pytest.raises(ValueError, match="already exists with boundaries"):
        registry.histogram("h", (1.0, 3.0))


def test_snapshot_is_json_plain_and_sorted():
    registry = MetricsRegistry()
    registry.counter("z.second").inc(2)
    registry.counter("a.first").inc()
    registry.gauge("g").set(7)
    registry.histogram("h", DEFAULT_SIZE_BUCKETS).observe(3)
    snapshot = registry.snapshot()
    assert set(snapshot) == {"counters", "gauges", "histograms"}
    assert list(snapshot["counters"]) == ["a.first", "z.second"]
    assert snapshot["counters"]["z.second"] == 2
    assert snapshot["gauges"]["g"] == 7
    assert snapshot["histograms"]["h"]["count"] == 1
    # Round-trips through json without custom encoders.
    assert json.loads(json.dumps(snapshot)) == snapshot


def test_disabled_registry_hands_out_noops():
    registry = MetricsRegistry(enabled=False)
    counter = registry.counter("c")
    counter.inc(10)
    assert counter.value == 0
    with pytest.raises(ValueError):
        counter.inc(-1)  # the monotonic contract survives disabling
    gauge = registry.gauge("g")
    gauge.set(5)
    assert gauge.value is None
    histogram = registry.histogram("h", DEFAULT_LATENCY_BUCKETS_S)
    histogram.observe(0.5)
    assert histogram.count == 0
    assert registry.snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }


def test_aggregate_sums_counters_and_maxes_gauges():
    first = MetricsRegistry()
    second = MetricsRegistry()
    for registry, count, streak in ((first, 2, 5), (second, 3, 1)):
        registry.counter("service.fixes").inc(count)
        registry.gauge("service.coasting_streak").set(streak)
        registry.histogram("h", (1.0, 2.0)).observe(0.5 * count)
    merged = MetricsRegistry.aggregate(
        [first.snapshot(), second.snapshot()]
    )
    assert merged["counters"]["service.fixes"] == 5
    assert merged["gauges"]["service.coasting_streak"] == 5
    histogram = merged["histograms"]["h"]
    assert histogram["count"] == 2
    assert histogram["counts"] == [0, 2, 0]  # 1.0 and 1.5 both in [1, 2)
    assert histogram["sum"] == pytest.approx(2.5)
    assert histogram["min"] == 1.0 and histogram["max"] == 1.5


def test_aggregate_rejects_boundary_mismatch():
    first = MetricsRegistry()
    second = MetricsRegistry()
    first.histogram("h", (1.0,)).observe(0.5)
    second.histogram("h", (2.0,)).observe(0.5)
    with pytest.raises(ValueError, match="boundary mismatch"):
        MetricsRegistry.aggregate([first.snapshot(), second.snapshot()])


def test_aggregate_of_nothing_is_empty():
    assert MetricsRegistry.aggregate([]) == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }


def test_aggregate_merges_disjoint_keys_by_union():
    """An instrument only some shards ever touched still aggregates.

    Shards create instruments lazily, so cross-shard merges routinely
    see disjoint key sets; each lone value must pass through unchanged.
    """
    first = MetricsRegistry()
    second = MetricsRegistry()
    first.counter("only.first").inc(2)
    second.counter("only.second").inc(3)
    first.histogram("h.first", (1.0,)).observe(0.5)
    second.gauge("g.second").set(7)
    merged = MetricsRegistry.aggregate([first.snapshot(), second.snapshot()])
    assert merged["counters"] == {"only.first": 2, "only.second": 3}
    assert merged["gauges"]["g.second"] == 7
    assert merged["histograms"]["h.first"]["count"] == 1


def test_aggregate_rejects_schema_version_mismatch():
    first = dict(MetricsRegistry().snapshot(), schema=1)
    second = dict(MetricsRegistry().snapshot(), schema=2)
    with pytest.raises(ValueError, match="schema"):
        MetricsRegistry.aggregate([first, second])


def test_aggregate_carries_the_agreed_schema():
    stamped = dict(MetricsRegistry().snapshot(), schema=1)
    unstamped = MetricsRegistry().snapshot()  # pre-stamp producers join
    merged = MetricsRegistry.aggregate([unstamped, stamped])
    assert merged["schema"] == 1
    assert "schema" not in MetricsRegistry.aggregate([unstamped])


def test_quantile_empty_and_bounds():
    histogram = Histogram("h", (1.0, 2.0, 4.0))
    assert histogram.quantile(0.5) is None
    for value in (0.5, 1.5, 3.0, 8.0):
        histogram.observe(value)
    assert histogram.quantile(0.0) == 0.5
    assert histogram.quantile(1.0) == 8.0
    with pytest.raises(ValueError):
        histogram.quantile(-0.01)
    with pytest.raises(ValueError):
        histogram.quantile(1.01)


def test_quantile_interpolates_within_buckets():
    histogram = Histogram("h", (10.0, 20.0, 40.0))
    # 10 observations in [10, 20): the median sits mid-bucket.
    for _ in range(10):
        histogram.observe(15.0)
    assert histogram.quantile(0.5) == pytest.approx(15.0)
    # A skewed split: 9 in the first bucket, 1 far out in the overflow.
    histogram.reset()
    for _ in range(9):
        histogram.observe(5.0)
    histogram.observe(100.0)
    p50 = histogram.quantile(0.5)
    p99 = histogram.quantile(0.99)
    assert 5.0 <= p50 <= 10.0
    assert p50 <= p99 <= 100.0


def test_quantile_is_clamped_to_observed_range():
    histogram = Histogram("h", (10.0, 20.0))
    histogram.observe(12.0)
    histogram.observe(13.0)
    # Interpolation alone would wander toward the bucket edges; the
    # observed range pins it.
    for q in (0.01, 0.25, 0.5, 0.75, 0.99):
        assert 12.0 <= histogram.quantile(q) <= 13.0


def test_quantile_single_observation_is_that_observation():
    histogram = Histogram("h", (10.0, 20.0))
    histogram.observe(17.5)
    for q in (0.0, 0.5, 1.0):
        assert histogram.quantile(q) == 17.5
