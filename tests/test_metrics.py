"""Unit tests for latency/throughput metrics and report tables."""

import pytest

from repro.metrics.latency import REPORT_PERCENTILES, percentile, percentiles_of
from repro.metrics.reporting import format_comparison, format_table, speedups
from repro.metrics.throughput import ThroughputMeter
from repro.obs.registry import Histogram


class TestPercentile:
    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0

    def test_median_of_two(self):
        assert percentile([0.0, 10.0], 50) == 5.0

    def test_endpoints(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0

    def test_interpolation_matches_numpy_convention(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 25) == pytest.approx(17.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestPercentilesOf:
    def test_records_and_reports(self):
        assert percentiles_of([5.0, 1.0, 3.0], (50,)) == {50: 3.0}

    def test_default_percentile_set(self):
        summary = percentiles_of((float(i) for i in range(1, 101)), REPORT_PERCENTILES)
        assert set(summary) == {5, 25, 50, 75, 95, 99}
        assert (
            summary[5] < summary[25] < summary[50] < summary[75] < summary[95] < summary[99]
        )

    def test_empty_reports_zeroes(self):
        assert percentiles_of([], REPORT_PERCENTILES) == {
            5: 0.0, 25: 0.0, 50: 0.0, 75: 0.0, 95: 0.0, 99: 0.0,
        }

    def test_configurable_quantile_set(self):
        values = [float(i) for i in range(1, 101)]
        assert set(percentiles_of(values, (50, 90))) == {50, 90}

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError):
            percentiles_of([1.0, 2.0], (50, 101))


class TestLatencyEdgeCases:
    def test_extreme_percentiles_equal_min_max(self):
        summary = percentiles_of([9.0, 3.0, 7.0, 1.0], (0, 100))
        assert summary[0] == 1.0
        assert summary[100] == 9.0

    def test_extreme_percentiles_single_sample(self):
        assert percentiles_of([42.0], (0, 100)) == {0: 42.0, 100: 42.0}

    def test_interpolation_exact_between_equal_neighbours(self):
        # lo*(1-f) + hi*f rounds to lo + 1ulp even when lo == hi, which broke
        # monotonicity in q (hypothesis-found: q=7.375 beat q=57.375 here).
        values = [59.0, 59.0, 59.0, 60.0]
        assert percentile(values, 7.375) == 59.0
        assert percentile(values, 57.375) >= percentile(values, 7.375)

    def test_empty_collector_any_percentile_set(self):
        assert percentiles_of([], (0, 50, 100)) == {0: 0.0, 50: 0.0, 100: 0.0}

    @pytest.mark.parametrize("q", [-1, 101, 150])
    @pytest.mark.parametrize("samples", [[], [1.0, 2.0]], ids=["empty", "data"])
    def test_out_of_range_quantile_rejected_with_or_without_data(self, q, samples):
        histogram = Histogram("h")
        for value in samples:
            histogram.observe(value)
        with pytest.raises(ValueError):
            histogram.percentiles((q,))
        with pytest.raises(ValueError):
            percentiles_of(samples, (q,))


class TestThroughputMeter:
    def test_needs_two_events(self):
        meter = ThroughputMeter()
        assert meter.events_per_second() == 0.0
        meter.record_event(0.0)
        assert meter.events_per_second() == 0.0

    def test_events_per_virtual_second(self):
        meter = ThroughputMeter()
        for i in range(11):
            meter.record_event(i * 10.0)  # 10 us apart -> 100k events/s
        assert meter.events_per_second() == pytest.approx(100_000.0)
        assert meter.events == 11
        assert meter.elapsed_us == 100.0

    def test_simultaneous_events_report_zero(self):
        # All events at the same virtual instant: elapsed is 0, and the
        # meter must report 0 instead of dividing by zero.
        meter = ThroughputMeter()
        meter.record_event(5.0)
        meter.record_event(5.0)
        meter.record_event(5.0)
        assert meter.elapsed_us == 0.0
        assert meter.events_per_second() == 0.0

    def test_empty_meter_snapshot(self):
        meter = ThroughputMeter()
        assert meter.events == 0
        assert meter.elapsed_us == 0.0
        assert meter.events_per_second() == 0.0
        assert "0 events" in repr(meter)


class TestReporting:
    ROWS = [
        {"strategy": "BL1", "p50": 100.0, "matches": 5},
        {"strategy": "Hybrid", "p50": 4.0, "matches": 5},
    ]

    def test_format_table_contains_cells(self):
        table = format_table("Fig X", self.ROWS, ("strategy", "p50"))
        assert "Fig X" in table
        assert "BL1" in table and "Hybrid" in table
        assert "100.00" in table

    def test_speedups(self):
        factors = speedups(self.ROWS, "p50")
        assert factors == {"BL1": pytest.approx(25.0)}

    def test_speedups_missing_subject(self):
        assert speedups([{"strategy": "BL1", "p50": 1.0}], "p50") == {}

    def test_format_comparison(self):
        line = format_comparison(self.ROWS)
        assert "BL1: 25.0x" in line

    def test_format_comparison_no_data(self):
        assert "no p50" in format_comparison([])
