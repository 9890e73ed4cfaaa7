# eires-fixture: place=strategies/rogue_trace.py
"""Stray string literals at emission sites and an inline key list — M1 flags all three."""
from repro.obs.registry import CounterGroup


def instrument(tracer, registry, now: float) -> None:
    if tracer.enabled:
        tracer.emit("fetch", "issue", now)
    registry.gauge("fetch.retries").set(1.0)
    CounterGroup("fetch", ("retries", "stalls"), registry)
