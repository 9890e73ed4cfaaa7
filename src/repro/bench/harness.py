"""Shared experiment harness behind the ``benchmarks/`` suite.

One *experiment* evaluates a set of strategies (or one strategy across a
parameter sweep) on a workload and collects the paper's measures — latency
percentiles and throughput — into rows suitable for
:func:`repro.metrics.reporting.format_table`.  Results are also dumped as
JSON under ``results/`` so EXPERIMENTS.md numbers are regenerable.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Iterable, Sequence

from repro.core.config import EiresConfig
from repro.core.framework import EIRES
from repro.metrics.reporting import format_comparison, format_table
from repro.obs.trace import Tracer
from repro.runtime import RunResult
from repro.workloads.base import Workload

__all__ = [
    "run_strategy",
    "run_strategy_suite",
    "ExperimentResult",
    "save_results",
    "results_dir",
    "wall_time",
]

ALL_STRATEGIES = ("BL1", "BL2", "BL3", "PFetch", "LzEval", "Hybrid")


def results_dir() -> str:
    """``results/`` next to the repository root (created on demand)."""
    path = os.environ.get("REPRO_RESULTS_DIR")
    if path is None:
        path = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))), "results")
    os.makedirs(path, exist_ok=True)
    return path


def run_strategy(
    workload: Workload,
    strategy: str,
    config: EiresConfig,
    tracer: Tracer | None = None,
) -> RunResult:
    """One full replay of a workload under one strategy.

    Pass a :class:`~repro.obs.trace.Tracer` to capture the run's lifecycle
    trace; tracing never changes the result (same RNG streams, same matches).
    """
    eires = EIRES(
        workload.query,
        workload.store,
        workload.latency_model,
        strategy=strategy,
        config=config,
        tracer=tracer,
    )
    return eires.run(workload.stream)


def wall_time(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Call ``fn`` and return ``(result, wall-clock seconds)``.

    The only sanctioned wall-clock read in the tree (rule D1): every
    *reported result* is virtual-time deterministic, and this helper exists
    solely so benchmarks can report real-machine speedups *next to* those
    results (in sections the bench-regression gate ignores).
    """
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


class ExperimentResult:
    """Rows of one experiment plus table/summary rendering.

    ``metrics`` holds one registry snapshot per strategy when the experiment
    was run with observability enabled (see :func:`run_strategy_suite`).
    """

    def __init__(
        self,
        name: str,
        rows: list[dict[str, Any]],
        metrics: dict[str, dict[str, Any]] | None = None,
    ) -> None:
        self.name = name
        self.rows = rows
        self.metrics = metrics if metrics is not None else {}

    def table(self, columns: Sequence[str] = ("strategy", "matches", "p5", "p25", "p50", "p75", "p95")) -> str:
        return format_table(self.name, self.rows, columns)

    def comparison(self, metric: str = "p50", higher_is_better: bool = False) -> str:
        return format_comparison(self.rows, metric=metric, higher_is_better=higher_is_better)

    def row_for(self, strategy: str) -> dict[str, Any]:
        for row in self.rows:
            if row.get("strategy") == strategy:
                return row
        raise KeyError(f"no row for strategy {strategy!r} in {self.name}")

    def metric(self, strategy: str, metric: str) -> float:
        return self.row_for(strategy)[metric]


def run_strategy_suite(
    name: str,
    workload: Workload,
    config: EiresConfig,
    strategies: Iterable[str] = ALL_STRATEGIES,
    extra_fields: dict[str, Any] | None = None,
    trace_sink: Any | None = None,
) -> ExperimentResult:
    """Evaluate several strategies on one workload configuration.

    With ``trace_sink`` (a :class:`~repro.obs.trace.TraceSink`), every
    strategy's run is traced into the shared sink under its own track, and
    per-strategy metrics snapshots are collected on the result.
    """
    rows = []
    metrics: dict[str, dict[str, Any]] = {}
    for strategy in strategies:
        tracer = Tracer(trace_sink, track=strategy) if trace_sink is not None else None
        result = run_strategy(workload, strategy, config, tracer=tracer)
        row = result.summary()
        if extra_fields:
            row.update(extra_fields)
        rows.append(row)
        if result.metrics is not None:
            metrics[strategy] = result.metrics
    return ExperimentResult(name, rows, metrics=metrics)


def save_results(experiment: ExperimentResult, extra: dict[str, Any] | None = None) -> str:
    """Persist an experiment's rows as JSON; returns the file path.

    ``extra`` adds top-level sections *next to* ``rows``.  The bench gate
    (``tools/bench_diff.py``) compares only ``rows``, so machine-dependent
    data (wall-clock timings, say) belongs in an extra section.
    """
    path = os.path.join(results_dir(), f"{experiment.name.replace(' ', '_')}.json")
    payload: dict[str, Any] = {"name": experiment.name, "rows": experiment.rows}
    if extra:
        payload.update(extra)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, default=str)
    return path
