# eires-fixture: place=strategies/rogue_trace.py
"""Stray string literals at emission sites, an inline key list and a
locally minted category (spelled like CAT_*, but repro.obs.trace has never
heard of it) — M1 flags all four."""
from repro.obs.registry import CounterGroup

CAT_BOGUS = "bogus"


def instrument(tracer, registry, now: float) -> None:
    if tracer.enabled:
        tracer.emit("fetch", "issue", now)
        tracer.emit(CAT_BOGUS, "issue", now)
    registry.gauge("fetch.retries").set(1.0)
    CounterGroup("fetch", ("retries", "stalls"), registry)
