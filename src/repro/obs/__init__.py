"""Observability: trace bus, metrics registry, exporters, provenance replay.

The ``repro.obs`` package makes EIRES's scheduling decisions inspectable:

* :mod:`repro.obs.trace` — a structured trace bus emitting typed lifecycle
  records (event arrival, partial-match lifecycle, prefetch decisions, cache
  and fetch activity, obligation postpone/resolve, match emission), all
  timestamped from the virtual clock so traces are deterministic;
* :mod:`repro.obs.registry` — counter groups, gauges and virtual-time-windowed
  histograms; every component's counters are attached to one registry;
* :mod:`repro.obs.spans` — per-match causal latency spans: each detection
  latency decomposed into queueing / batch-wait / wire / retry-backoff /
  eval / shed-stall components that sum to the recorded latency exactly;
* :mod:`repro.obs.series` — a virtual-time sampler snapshotting the metrics
  registry on a fixed cadence into diffable JSONL;
* :mod:`repro.obs.slo` — SLO objectives (latency bound, recall floor, fetch
  budget) evaluated as burn rates into registered ``slo.*`` metrics;
* :mod:`repro.obs.export` — JSONL, Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``), flamegraph-folded spans, and metrics-snapshot
  writers;
* :mod:`repro.obs.provenance` — replays Eq. 7 / Eq. 8 / shedding / span
  records against the model, proving the trace explains the run;
* :mod:`repro.obs.validate` — the CI smoke validator for Chrome traces.
"""

from repro.obs.export import (
    chrome_trace,
    folded_spans,
    write_chrome_trace,
    write_folded,
    write_jsonl,
    write_metrics_snapshot,
)
from repro.obs.provenance import (
    replay_trace,
    verify_eq7_record,
    verify_eq8_record,
    verify_shed_record,
    verify_span_record,
)
from repro.obs.registry import Gauge, Histogram, MetricsRegistry
from repro.obs.series import SeriesSampler, load_series_jsonl, write_series_jsonl
from repro.obs.slo import SloPlane, SloSpec
from repro.obs.spans import SPAN_COMPONENTS, SpanTracker, aggregate_spans
from repro.obs.trace import (
    CATEGORIES,
    NULL_TRACER,
    JsonlSink,
    MemorySink,
    NullSink,
    Tracer,
    TraceSink,
)

__all__ = [
    "CATEGORIES",
    "NULL_TRACER",
    "Tracer",
    "TraceSink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SPAN_COMPONENTS",
    "SpanTracker",
    "aggregate_spans",
    "SeriesSampler",
    "write_series_jsonl",
    "load_series_jsonl",
    "SloSpec",
    "SloPlane",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics_snapshot",
    "folded_spans",
    "write_folded",
    "replay_trace",
    "verify_eq7_record",
    "verify_eq8_record",
    "verify_shed_record",
    "verify_span_record",
    "validate_chrome_trace",
]


def __getattr__(name: str):
    # Imported lazily so ``python -m repro.obs.validate`` does not trigger
    # runpy's found-in-sys.modules warning when the package initialises.
    if name == "validate_chrome_trace":
        from repro.obs.validate import validate_chrome_trace

        return validate_chrome_trace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
