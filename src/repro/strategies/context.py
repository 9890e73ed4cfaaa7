"""The strategy-facing view of an assembled runtime (§4, Fig. 4).

A :class:`RuntimeContext` is handed to every
:class:`~repro.strategies.base.FetchStrategy` by the composition root
(:mod:`repro.runtime`): it bundles the shared substrate (clock, transport,
cache) with the per-query models (utility, rates, history) and the knobs the
strategy's decision gates read.  Strategies never assemble these pieces
themselves — they only consume the context.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.base import Cache
from repro.cache.history import HitHistory
from repro.nfa.automaton import Automaton
from repro.obs.registry import FanoutScope, MetricsRegistry, ScopedRegistry
from repro.obs.trace import Tracer
from repro.remote.transport import Transport
from repro.sim.clock import VirtualClock
from repro.sim.scheduler import FutureScheduler
from repro.utility.model import UtilityModel
from repro.utility.noise import NoiseModel
from repro.utility.rates import RateEstimator

__all__ = ["RuntimeContext", "FAIL_OPEN", "FAIL_CLOSED"]

# How a predicate whose remote data is *terminally* unavailable (fetch failed
# after all retries, no stale value to serve) resolves:
# fail-closed — the predicate counts as false: the affected partial match is
#   dropped (no match emitted from unverified data);
# fail-open — the predicate counts as true: the match is emitted despite the
#   missing evidence (availability over strictness).
FAIL_OPEN = "fail_open"
FAIL_CLOSED = "fail_closed"


@dataclass
class RuntimeContext:
    """Everything a strategy needs from the assembled framework."""

    automaton: Automaton
    clock: VirtualClock
    transport: Transport
    cache: Cache | None
    utility: UtilityModel
    rates: RateEstimator
    scheduler: FutureScheduler
    history: HitHistory
    noise: NoiseModel
    omega_fetch: float
    ell_pm: float
    lookahead_enabled: bool
    lazy_gate_enabled: bool
    failure_mode: str
    # Observability: the shared metrics registry the counter groups attach
    # to and the trace bus.  Multi-query runtimes pass a scoped view so each
    # session's fetch.* counters get their own namespace in the shared
    # snapshot.
    metrics: MetricsRegistry | ScopedRegistry | FanoutScope
    tracer: Tracer
