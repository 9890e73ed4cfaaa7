"""Strategy counters: the ``fetch.*`` counter group and its key lists.

Every counter a strategy maintains is declared here, in report order.
:data:`STRATEGY_COUNTER_KEYS` is the single source of truth:
:class:`StrategyStats` holds exactly these attributes, ``as_dict()`` reports
them in this order, and the fault table derives its columns from the
degradation subset — a renamed counter breaks a test instead of silently
dropping out of a report.
"""

from __future__ import annotations

from repro.obs.registry import CounterGroup, MetricsRegistry, ScopedRegistry

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
    "breaker_skips",
    "obligations_expired",
    "stale_serves",
)

# The counters that stay zero on a healthy network; faulted runs surface
# them in ``repro.metrics.reporting``'s fault table.  Retries, terminal
# failures and breaker opens are the transport's (``transport.*``).
DEGRADATION_COUNTER_KEYS = (
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


class DropStats(CounterGroup):
    """Per-reason run-drop counters (``engine.dropped.<reason>``).

    The reason list above is the single source of truth: every drop lands on
    a declared counter, and an unknown reason raises instead of vanishing.
    """

    def __init__(self, registry: MetricsRegistry | ScopedRegistry | None = None) -> None:
        super().__init__("engine.dropped", RUN_DROP_REASONS, registry)

    def record(self, reason: str, count: int = 1) -> None:
        if reason not in self.keys:
            raise ValueError(f"unregistered run-drop reason {reason!r}; add it to RUN_DROP_REASONS")
        setattr(self, reason, getattr(self, reason) + count)


class StrategyStats(CounterGroup):
    """Counters describing one strategy's behaviour during a run (``fetch.*``).

    Stall time accumulates float microseconds, so reports render ``0.0``
    (not ``0``) on stall-free runs.
    """

    def __init__(self, registry: MetricsRegistry | ScopedRegistry | None = None) -> None:
        super().__init__(
            "fetch", STRATEGY_COUNTER_KEYS, registry, floats=("total_stall_time",)
        )
