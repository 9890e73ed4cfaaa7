# eires-fixture: place=strategies/clean_trace.py
"""Categories from CAT_* constants, metric names from the key tables."""
from repro.obs.registry import CounterGroup
from repro.obs.trace import CAT_FETCH
from repro.strategies.stats import STRATEGY_COUNTER_KEYS


def instrument(tracer, registry, now: float) -> None:
    if tracer.enabled:
        tracer.emit(CAT_FETCH, "issue", now)
    for key in STRATEGY_COUNTER_KEYS:
        registry.gauge(f"fetch.{key}")
    CounterGroup("fetch", STRATEGY_COUNTER_KEYS, registry)
