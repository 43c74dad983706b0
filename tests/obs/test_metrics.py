"""Metrics-registry unit tests: instrument math and disabled no-ops."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeWeighted,
)


class TestCounterGauge:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_gauge_last_write_wins(self):
        gauge = Gauge()
        gauge.set(1.0)
        gauge.set(-4.0)
        assert gauge.value == -4.0


class TestHistogram:
    def test_mean_and_total(self):
        hist = Histogram()
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(6.0)
        assert hist.mean() == pytest.approx(2.0)

    def test_percentiles_interpolate(self):
        hist = Histogram()
        for value in (0.0, 10.0, 20.0, 30.0, 40.0):
            hist.observe(value)
        assert hist.percentile(0.0) == 0.0
        assert hist.percentile(100.0) == 40.0
        assert hist.percentile(50.0) == pytest.approx(20.0)
        # rank = 0.25 * 4 = 1.0 -> exact observation.
        assert hist.percentile(25.0) == pytest.approx(10.0)
        # rank = 0.9 * 4 = 3.6 -> interpolated between 30 and 40.
        assert hist.percentile(90.0) == pytest.approx(36.0)

    def test_single_observation(self):
        hist = Histogram()
        hist.observe(7.0)
        assert hist.percentile(50.0) == 7.0
        assert hist.summary()["p99"] == 7.0

    def test_empty_percentile_rejected(self):
        with pytest.raises(ExperimentError):
            Histogram().percentile(50.0)

    def test_out_of_range_rejected(self):
        hist = Histogram()
        hist.observe(1.0)
        with pytest.raises(ExperimentError):
            hist.percentile(101.0)
        with pytest.raises(ExperimentError):
            hist.percentile(-1.0)

    def test_empty_summary(self):
        assert Histogram().summary() == {"count": 0, "total": 0.0, "mean": 0.0}


class TestTimeWeighted:
    def test_time_weighted_mean(self):
        depth = TimeWeighted()
        depth.update(0.0, 2.0)   # depth 0 for [0, 0] (nothing), then 2
        depth.update(4.0, 0.0)   # depth 2 over [0, 4]
        depth.finish(8.0)        # depth 0 over [4, 8]
        # area = 2*4 + 0*4 = 8 over 8 ms.
        assert depth.mean() == pytest.approx(1.0)
        assert depth.max == 2.0

    def test_unequal_intervals_weighted(self):
        value = TimeWeighted()
        value.update(0.0, 10.0)
        value.update(9.0, 1.0)   # 10 held for 9 ms
        value.finish(10.0)       # 1 held for 1 ms
        assert value.mean() == pytest.approx((10.0 * 9 + 1.0 * 1) / 10)

    def test_no_elapsed_returns_last(self):
        value = TimeWeighted()
        value.update(0.0, 5.0)
        assert value.mean() == 5.0


class TestRegistry:
    def test_instruments_cached_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.time_weighted("t") is registry.time_weighted("t")

    def test_snapshot_groups_families(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(2.0)
        tw = registry.time_weighted("t")
        tw.update(0.0, 1.0)
        tw.finish(2.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 3.0}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["time_weighted"]["t"]["mean"] == pytest.approx(1.0)
