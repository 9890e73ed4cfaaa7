"""Shared machinery for the remote-data fetching strategies (§5).

All strategies — the baselines BL1–BL3 and EIRES's PFetch, LzEval and Hybrid
— share the same skeleton: they mediate every remote predicate evaluation,
have the transport deliver asynchronously fetched elements into the cache,
and account for the stalls they impose on the engine.  The subclasses differ only in the
decision hooks:

* :meth:`FetchStrategy.decide_postpone` — block on missing data or postpone
  the predicate (L1 of LzEval);
* :meth:`FetchStrategy.should_block_obligations` — whether a run carrying
  postponed predicates may keep developing (L2);
* :meth:`FetchStrategy.on_runs_created` — prefetch triggering (P1/P2).

The machinery is split into focused modules behind this import surface:
:mod:`repro.strategies.context` (the runtime context and failure modes),
:mod:`repro.strategies.stats` (the ``fetch.*`` counter group),
:mod:`repro.strategies.fetch_plane` (data movement: blocking rounds, async
issue, stale serves), and :mod:`repro.strategies.obligations`
(postponed-predicate resolution).  ``FetchStrategy`` composes them and adds
the lifecycle wiring.
"""

from __future__ import annotations

from operator import attrgetter
from types import MappingProxyType
from typing import Any, Mapping, Sequence

from repro.events.event import Event
from repro.nfa.automaton import Transition
from repro.nfa.run import Run
from repro.obs.trace import CAT_OBLIGATION, CAT_RUN
from repro.query.guards import compile_remote
from repro.query.predicates import Predicate
from repro.remote.element import DataKey
from repro.strategies.context import FAIL_CLOSED, FAIL_OPEN, RuntimeContext
from repro.strategies.fetch_plane import FetchPlane
from repro.strategies.obligations import ObligationResolution
from repro.strategies.stats import (
    DEGRADATION_COUNTER_KEYS,
    RUN_DROP_REASONS,
    STRATEGY_COUNTER_KEYS,
    DropStats,
    StrategyStats,
)

__all__ = [
    "RuntimeContext",
    "StrategyStats",
    "FetchStrategy",
    "FAIL_OPEN",
    "FAIL_CLOSED",
    "STRATEGY_COUNTER_KEYS",
    "DEGRADATION_COUNTER_KEYS",
    "DropStats",
    "RUN_DROP_REASONS",
]


_NO_TRIGGERS: Mapping[int, Sequence] = MappingProxyType({})

_obligations = attrgetter("obligations")


class FetchStrategy(ObligationResolution, FetchPlane):
    """Base class implementing the engine-facing strategy protocol."""

    name = "base"
    uses_cache = True

    def __init__(self) -> None:
        self.ctx: RuntimeContext | None = None
        self.stats = StrategyStats()
        self.drops = DropStats()
        # Values staged by prepare_blocking for the duration of one blocking
        # obligation-resolution round (survives cache eviction races and
        # serves cacheless strategies like BL3).
        self._staged: dict[DataKey, Any] = {}
        # Keys whose fetch terminally failed during the current blocking
        # round: _collect must not re-request them (each re-fetch would stall
        # the engine again), and their predicates resolve per failure_mode.
        self._round_failed: set[DataKey] = set()
        self._in_blocking_round = False
        self.last_postpone_ell = 0.0
        # Each remote predicate of the attached automaton, compiled once into
        # its (keys, decide) pair.
        self._remote: dict[Predicate, tuple] = {}
        # Per-match latency-attribution tracker; attached by the composition
        # root only when tracing is enabled (None keeps the hot path to one
        # ``is None`` check per instrumentation site).
        self.spans = None
        # Whether run lifecycles and ticks reach the utility model; see attach.
        self._drives_utility = False

    # -- wiring ----------------------------------------------------------------
    def attach(self, ctx: RuntimeContext) -> None:
        self.ctx = ctx
        self._remote = {
            predicate: compile_remote(predicate)
            for transition in ctx.automaton.transitions
            for predicate in transition.remote_predicates
        }
        # Snapshots of the framework's shared registry include the fetch.*
        # and engine.dropped.* counters.
        ctx.metrics.attach(self.stats)
        ctx.metrics.attach(self.drops)
        # Utilities are read only at remote sites (Eq. 7, Eq. 8, the
        # cost-based cache), and a run of an automaton without one requires
        # no key: its model answers 0 for every key undriven, as it would
        # driven, so nothing registers, unregisters or ticks.  Arrival rates
        # are read only at remote sites too (Eq. 8, Alg. 3): nothing
        # observes them without one.
        self._drives_utility = bool(ctx.automaton.sites)

    @property
    def total_stall_time(self) -> float:
        return self.stats.total_stall_time

    # -- pipeline hooks -----------------------------------------------------------
    def on_event_start(self, event: Event) -> None:
        """Called before the engine processes ``event``: deliver what arrived,
        fire what is scheduled, tick the utility model.  Each step is skipped
        without a call while it has nothing to do."""
        ctx = self.ctx
        drives_utility = self._drives_utility
        if drives_utility:
            ctx.rates.observe_event(event.event_type or "", event.t)
        transport = ctx.transport
        if not ctx.clock.now < transport.next_due:  # deliver_due's own test
            transport.deliver_due(ctx.clock.now)
        if ctx.scheduler:
            self._fire_scheduled()
        # The engine is attached after construction; state_counts is wired
        # by the pipeline through `bind_engine`.
        if drives_utility and self._engine is not None:
            ctx.utility.tick(ctx.clock.now, self._engine.state_counts)

    _engine = None

    def bind_engine(self, engine) -> None:
        """Give the strategy access to live run counts (for #P_j)."""
        self._engine = engine

    # -- run lifecycle ------------------------------------------------------------
    def on_runs_created(self, runs: Sequence[Run]) -> None:
        # Alg. 2 registers the whole batch in one call.  A gated Eq. 7
        # candidate reads the registrations made so far, so while the cache
        # is full and the batch triggers prefetches, each run registers just
        # before its own prefetches fire.  The trace interleaves run and
        # prefetch records in run order.
        ctx = self.ctx
        now = ctx.clock.now
        triggers = self._prefetch_triggers(now)
        tracer = ctx.tracer
        register = None
        if self._drives_utility:
            cache = ctx.cache
            if triggers and cache is not None and cache.used >= cache.capacity:
                register = ctx.utility.on_runs_created
            else:
                ctx.utility.on_runs_created(runs)
        if register is None and not tracer.enabled and not triggers:
            return
        for run in runs:
            if register is not None:
                register((run,))
            if tracer.enabled:
                tracer.emit(
                    CAT_RUN,
                    "create",
                    now,
                    run_id=tracer.run_ref(run.run_id),
                    state=run.state.index,
                    bound=len(run.env),
                    obligations=len(run.obligations),
                )
            sites = triggers.get(run.state.index)
            if sites:
                self._fire_prefetches(run, sites, now)

    def on_runs_dropped(self, runs: Sequence[Run], reason: str) -> None:
        self.drops.record(reason, len(runs))
        # Obligations that ride a run out of its window, to end of stream,
        # or into a shedding eviction expire deterministically with the run:
        # the data they waited for never arrived in time to matter.
        rides_out = reason in ("expired", "flushed", "shed")
        ctx = self.ctx
        tracer = ctx.tracer
        if tracer.enabled:
            now = ctx.clock.now
            for run in runs:
                if rides_out and run.obligations:
                    self.stats.obligations_expired += len(run.obligations)
                    tracer.emit(
                        CAT_OBLIGATION,
                        "expire",
                        now,
                        run_id=tracer.run_ref(run.run_id),
                        count=len(run.obligations),
                        reason=reason,
                    )
                tracer.emit(
                    CAT_RUN,
                    "drop",
                    now,
                    run_id=tracer.run_ref(run.run_id),
                    state=run.state.index,
                    reason=reason,
                )
        elif rides_out:
            self.stats.obligations_expired += sum(map(len, map(_obligations, runs)))
        if self._drives_utility:
            ctx.utility.on_runs_dropped(runs)

    def guard_tally(self, transition: Transition):
        return self.ctx.rates.guard_tally(transition.index)

    # -- subclass hooks -------------------------------------------------------------
    def _fire_scheduled(self) -> None:
        """Consume scheduler payloads (offset prefetches); default: none."""
        for _ in self.ctx.scheduler.pop_due(self.ctx.clock.now):
            pass

    def _prefetch_triggers(self, now: float) -> Mapping[int, Sequence]:
        """What a run triggers a prefetch for, by the index of the state it
        enters — asked once per batch of new runs; default: nothing (no
        prefetch).  A strategy that returns entries also implements
        ``_fire_prefetches(run, entry, now)``."""
        return _NO_TRIGGERS

    def _record_history(
        self, transition: Transition, predicate: Predicate, missing: list[DataKey]
    ) -> None:
        """Prefetch hit/miss history bookkeeping; default: none (no prefetch)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
