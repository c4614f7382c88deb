"""Tests for counters, histograms, gauges and time series."""

import pytest

from repro.sim.metrics import (
    Counter,
    Gauge,
    Histogram,
    LeanHistogram,
    MetricsRegistry,
    TimeSeries,
    set_lean_metrics,
)


class TestCounter:
    def test_increment(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter().increment(-1)

    def test_windowed_rate(self):
        counter = Counter()
        counter.increment(10)
        counter.mark(1.0)
        counter.increment(30)
        counter.mark(2.0)
        assert counter.rate_between(1.0, 2.0) == pytest.approx(30.0)

    def test_rate_before_first_mark_counts_from_zero(self):
        counter = Counter()
        counter.increment(10)
        counter.mark(1.0)
        assert counter.rate_between(0.0, 1.0) == pytest.approx(10.0)

    def test_rate_requires_ordered_times(self):
        counter = Counter()
        counter.mark(1.0)
        with pytest.raises(ValueError):
            counter.rate_between(2.0, 1.0)


class TestHistogram:
    def test_mean_min_max(self):
        hist = Histogram()
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.mean == pytest.approx(2.0)
        assert hist.minimum == 1.0
        assert hist.maximum == 3.0
        assert hist.count == 3

    def test_percentiles(self):
        hist = Histogram()
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.percentile(50) == 50.0
        assert hist.percentile(95) == 95.0
        assert hist.percentile(100) == 100.0
        assert hist.percentile(0) == 1.0

    def test_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101)

    def test_empty_histogram_is_zero(self):
        hist = Histogram()
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0
        assert hist.stddev() == 0.0

    def test_stddev(self):
        hist = Histogram()
        for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            hist.observe(value)
        assert hist.stddev() == pytest.approx(2.138, abs=1e-3)

    def test_insertion_order_preserved(self):
        hist = Histogram()
        for value in (5.0, 1.0, 3.0):
            hist.observe(value)
        _ = hist.percentile(50)  # triggers sort of the *cache*
        assert hist.samples == [5.0, 1.0, 3.0]

    def test_stats_since_window(self):
        hist = Histogram()
        for value in (100.0, 100.0, 1.0, 2.0, 3.0):
            hist.observe(value)
        stats = hist.stats_since(2)
        assert stats["count"] == 3
        assert stats["mean"] == pytest.approx(2.0)
        assert stats["max"] == 3.0

    def test_stats_since_empty_window(self):
        hist = Histogram()
        hist.observe(1.0)
        assert hist.stats_since(5)["count"] == 0


class TestTimeSeries:
    def test_append_and_last(self):
        series = TimeSeries()
        series.append(1.0, 0.5)
        series.append(2.0, 0.7)
        assert series.last() == (2.0, 0.7)
        assert len(series) == 2

    def test_rejects_time_regression(self):
        series = TimeSeries()
        series.append(2.0, 1.0)
        with pytest.raises(ValueError):
            series.append(1.0, 1.0)

    def test_mean_over_window(self):
        series = TimeSeries()
        for t in range(10):
            series.append(float(t), float(t))
        assert series.mean_over(2.0, 4.0) == pytest.approx(3.0)

    def test_mean_over_empty_window(self):
        series = TimeSeries()
        series.append(1.0, 5.0)
        assert series.mean_over(2.0, 3.0) == 0.0

    def test_max_value(self):
        series = TimeSeries()
        assert series.max_value() == 0.0
        series.append(0.0, 3.0)
        series.append(1.0, 7.0)
        assert series.max_value() == 7.0

    def test_last_on_empty_raises(self):
        with pytest.raises(IndexError):
            TimeSeries().last()


class TestRegistry:
    def test_same_name_same_object(self):
        registry = MetricsRegistry("node")
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.series("s") is registry.series("s")

    def test_counters_snapshot(self):
        registry = MetricsRegistry("node")
        registry.counter("b").increment(2)
        registry.counter("a").increment(1)
        assert registry.counters() == {"a": 1, "b": 2}

    def test_get_counter_missing(self):
        assert MetricsRegistry().get_counter("nope") is None


class TestEdgeCases:
    """Pinned boundary behaviours the reports and the engine differential
    battery rely on (an accidental change here would silently skew every
    percentile table, so each one is an explicit contract)."""

    def test_empty_histogram_percentiles_all_zero(self):
        hist = Histogram()
        for p in (0, 1, 50, 95, 99, 100):
            assert hist.percentile(p) == 0.0
        assert hist.mean == 0.0
        assert hist.minimum == 0.0
        assert hist.maximum == 0.0
        assert hist.stddev() == 0.0

    def test_single_sample_every_percentile_is_that_sample(self):
        hist = Histogram()
        hist.observe(42.5)
        for p in (0, 1, 50, 95, 99, 100):
            assert hist.percentile(p) == 42.5
        assert hist.stddev() == 0.0  # n < 2: no spread, not a NaN

    def test_stats_since_past_the_end_is_empty_window(self):
        hist = Histogram()
        hist.observe(1.0)
        stats = hist.stats_since(5)
        assert stats == {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                         "max": 0.0}

    def test_counter_rate_with_no_marks_is_zero(self):
        """Without any mark() there is no time reference: both window
        endpoints resolve to the current value and the rate is 0 (not an
        exception, not the whole value smeared over the window)."""
        counter = Counter()
        counter.increment(8)
        assert counter.rate_between(0.0, 2.0) == 0.0

    def test_counter_rate_before_first_mark_is_zero_baseline(self):
        counter = Counter()
        counter.increment(5)
        counter.mark(10.0)
        # Window entirely before the first mark: value was 0 back then.
        assert counter.rate_between(1.0, 2.0) == 0.0

    def test_counter_marks_at_same_instant_last_wins(self):
        counter = Counter()
        counter.increment(1)
        counter.mark(1.0)
        counter.increment(2)
        counter.mark(1.0)
        assert counter.rate_between(1.0, 2.0) == 0.0
        assert counter.rate_between(0.0, 1.0) == pytest.approx(3.0)

    def test_gauge_can_go_negative(self):
        gauge = Gauge()
        gauge.decrement(2.5)
        assert gauge.value == -2.5


class TestLeanHistogram:
    """Zero-allocation mode must be observationally identical."""

    def test_identical_statistics_and_snapshot(self):
        values = [5.0, 1.0, 3.0, 3.0, 9.0, -2.0, 7.5]
        reference = Histogram("h")
        lean = LeanHistogram("h", reserve=2)  # forces buffer doubling
        for value in values:
            reference.observe(value)
            lean.observe(value)
        assert lean.samples == reference.samples  # insertion order kept
        assert lean.count == reference.count
        assert lean.mean == reference.mean
        assert lean.stddev() == reference.stddev()
        for p in (0, 50, 95, 100):
            assert lean.percentile(p) == reference.percentile(p)
        assert lean.stats_since(3) == reference.stats_since(3)

    def test_empty_lean_histogram(self):
        lean = LeanHistogram()
        assert lean.count == 0
        assert lean.samples == []
        assert lean.percentile(99) == 0.0

    def test_registry_snapshots_equal_across_modes(self):
        """The exact equality the engine differential battery leans on:
        a lean registry and a reference registry fed the same event
        stream snapshot identically."""
        registries = {}
        for mode in (False, True):
            set_lean_metrics(mode)
            try:
                registry = MetricsRegistry("node")
                registry.counter("calls").increment(3)
                registry.gauge("depth").set(2.0, now=1.0)
                for value in (0.25, 0.5, 0.125):
                    registry.histogram("rt").observe(value)
                registry.series("load").append(1.0, 10.0)
                registries[mode] = registry
            finally:
                set_lean_metrics(False)
        assert isinstance(registries[True]._histograms["rt"], LeanHistogram)
        assert not isinstance(
            registries[False]._histograms["rt"], LeanHistogram
        )
        assert registries[True].snapshot() == registries[False].snapshot()
