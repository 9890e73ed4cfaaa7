"""Measurement: latency percentiles, throughput, report tables."""

from repro.metrics.latency import REPORT_PERCENTILES, percentile
from repro.metrics.throughput import ThroughputMeter

__all__ = ["percentile", "REPORT_PERCENTILES", "ThroughputMeter"]
