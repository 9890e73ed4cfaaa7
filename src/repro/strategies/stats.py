"""Strategy counters: the ``fetch.*`` registry view and its key lists.

Every counter a strategy maintains is declared here, in report order.
:data:`STRATEGY_COUNTER_KEYS` is the single source of truth:
:class:`StrategyStats` registers exactly these cells, ``as_dict()`` reports
them in this order, and the fault table derives its columns from the
degradation subset — a renamed counter breaks a test instead of silently
dropping out of a report.
"""

from __future__ import annotations

from typing import Any

from repro.obs.registry import MetricsRegistry, ScopedRegistry

__all__ = [
    "StrategyStats",
    "STRATEGY_COUNTER_KEYS",
    "DEGRADATION_COUNTER_KEYS",
    "DropStats",
    "RUN_DROP_REASONS",
]

STRATEGY_COUNTER_KEYS = (
    "blocking_stalls",
    "total_stall_time",
    "prefetches_issued",
    "prefetches_suppressed",
    "lazy_postponements",
    "forced_blocks",
    "history_hits",
    "history_misses",
    "fetch_failures",
    "retries",
    "breaker_opens",
    "breaker_skips",
    "obligations_expired",
    "stale_serves",
)

# The counters that stay zero on a healthy network; faulted runs surface
# them in ``repro.metrics.reporting``'s fault table.
DEGRADATION_COUNTER_KEYS = (
    "fetch_failures",
    "retries",
    "breaker_opens",
    "breaker_skips",
    "obligations_expired",
    "stale_serves",
)


# Every reason the engine passes to ``on_runs_dropped``, in report order.
# ``consumed`` is a run retiring into a match; the rest are losses.
RUN_DROP_REASONS = (
    "consumed",
    "expired",
    "obligation_failed",
    "flushed",
    "shed",
)


class DropStats:
    """Per-reason run-drop counters (``engine.dropped.<reason>`` cells).

    Same registry-view pattern as :class:`StrategyStats`: the reason list
    above is the single source of truth, every drop lands on a registered
    cell, and an unknown reason raises instead of vanishing.
    """

    __slots__ = ("_cells",)

    def __init__(self, registry: MetricsRegistry | ScopedRegistry | None = None) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        self._cells = {
            reason: registry.counter(f"engine.dropped.{reason}") for reason in RUN_DROP_REASONS
        }

    def record(self, reason: str, count: int = 1) -> None:
        cell = self._cells.get(reason)
        if cell is None:
            raise ValueError(f"unregistered run-drop reason {reason!r}; add it to RUN_DROP_REASONS")
        cell.inc(count)

    def as_dict(self) -> dict[str, int]:
        return {f"dropped.{reason}": self._cells[reason].value for reason in RUN_DROP_REASONS}

    def __getitem__(self, reason: str) -> int:
        return self._cells[reason].value


class StrategyStats:
    """Counters describing one strategy's behaviour during a run.

    A view over a :class:`~repro.obs.registry.MetricsRegistry`: each counter
    attribute reads and writes a registry cell under ``fetch.<name>``, so a
    metrics snapshot and this façade can never disagree.  Standalone
    construction (unit tests, unattached strategies) binds a private
    registry.
    """

    __slots__ = ("_cells", "extra")

    def __init__(self, registry: MetricsRegistry | ScopedRegistry | None = None) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        self._cells = {key: registry.counter(f"fetch.{key}") for key in STRATEGY_COUNTER_KEYS}
        # Stall time accumulates float microseconds; keep the cell float so
        # reports render `0.0` (not `0`) on stall-free runs.
        cell = self._cells["total_stall_time"]
        cell.value = float(cell.value)
        self.extra: dict[str, Any] = {}

    def as_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {}
        for key in STRATEGY_COUNTER_KEYS:
            value = self._cells[key].value
            data[key] = round(value, 3) if key == "total_stall_time" else value
        data.update(self.extra)
        return data


def _counter_property(key: str) -> property:
    def _get(self: StrategyStats):
        return self._cells[key].value

    def _set(self: StrategyStats, value) -> None:
        self._cells[key].value = value

    return property(_get, _set)


for _key in STRATEGY_COUNTER_KEYS:
    setattr(StrategyStats, _key, _counter_property(_key))
del _key
