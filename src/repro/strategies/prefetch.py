"""The PFetch strategy: prefetching remote data based on anticipated use (§5.1).

Two cooperating pieces:

:class:`PrefetchPlanner` answers operation **P1** — *when* to prefetch — per
remote site:

* **Lookahead timing** walks the site's trigger candidates from the class
  closest to the need back towards the class where the lookup key is first
  bound, and picks the closest one whose recent prefetches actually hit
  (cache hit history ``H``, Alg. 3 lines 3–9).  Triggering means: the moment
  a partial match *enters* that class, the concrete key is computed from its
  bound events and a fetch may be issued.
* **Estimated-arrival timing** is the fallback when every candidate has
  accumulated negative evidence: the fetch is delayed by
  ``1/lambda - l_remote`` after the partial match enters the earliest
  key-bearing class, aiming the response to land just before the extension
  event is expected (Alg. 3 lines 10–12, Poisson arrivals).

:class:`PFetchStrategy` answers operation **P2** — *what* to prefetch — with
the utility gate of Eq. 7: an element is fetched only if its utility exceeds
the minimum utility currently represented in the cache (always, while the
cache has free room).  A missing element at evaluation time interrupts
processing exactly like BL2 — the cost of a misprediction the paper's
Fig. 5d tail latencies show.
"""

from __future__ import annotations

from typing import Sequence

from repro.events.event import Event
from repro.nfa.automaton import RemoteSite, Transition
from repro.nfa.run import Run
from repro.query.predicates import Predicate
from repro.obs.trace import CAT_PREFETCH, trace_key
from repro.remote.element import DataKey
from repro.strategies.base import FetchStrategy

__all__ = ["PrefetchPlan", "PrefetchPlanner", "PFetchStrategy"]

# Virtual us between two recomputations of every site's prefetch plan.
PLAN_REFRESH_INTERVAL_US = 1_000.0


class PrefetchPlan:
    """Current prefetch decision for one remote site."""

    __slots__ = ("trigger_state_index", "offset")

    def __init__(self, trigger_state_index: int, offset: float) -> None:
        self.trigger_state_index = trigger_state_index
        self.offset = offset

    def __repr__(self) -> str:
        return f"PrefetchPlan(trigger=q{self.trigger_state_index}, offset={self.offset:.1f}us)"


class PrefetchPlanner:
    """Computes and refreshes prefetch timing plans (P1, Alg. 3)."""

    def __init__(self, strategy: "PFetchStrategy") -> None:
        self._strategy = strategy
        # site_id -> its current plan; no entry: the site is unprefetchable
        self.plans: dict[int, PrefetchPlan] = {}
        # trigger state index -> (site, plan) pairs fired when a run enters
        # it; rebuilt in place by refresh
        self.triggers: dict[int, list[tuple[RemoteSite, PrefetchPlan]]] = {}
        # When the plans were last computed; -inf: never, so the first
        # refresh always computes.
        self.refreshed_at = float("-inf")

    def refresh(self, now: float) -> None:
        """Recompute all plans if the refresh interval elapsed."""
        if now - self.refreshed_at < PLAN_REFRESH_INTERVAL_US:
            return
        self.refreshed_at = now
        ctx = self._strategy.ctx
        self.plans.clear()
        self.triggers.clear()
        for site in ctx.automaton.sites:
            plan = self._plan_site(site, now)
            if plan is None:
                continue
            self.plans[site.site_id] = plan
            self.triggers.setdefault(plan.trigger_state_index, []).append((site, plan))

    def _plan_site(self, site: RemoteSite, now: float) -> PrefetchPlan | None:
        """Alg. 3 for one site; None when the site is unprefetchable."""
        if not site.prefetchable:
            return None
        ctx = self._strategy.ctx
        if ctx.lookahead_enabled:
            for state in site.lookahead_states:  # closest to the need first
                if state.is_root:
                    continue
                if ctx.history.usable(site.site_id, state.index, now):
                    return PrefetchPlan(state.index, 0.0)
        # Estimated-arrival fallback: anchor at the earliest key-bearing
        # class and delay by the expected wait minus the transmission time.
        anchor = site.lookahead_states[-1]
        if anchor.is_root:
            return None
        expected_wait = ctx.rates.expected_gap(site.transition.index, site.transition.event_type)
        transmission = ctx.transport.monitor.estimate_source(site.source)
        offset = max(0.0, expected_wait - transmission)
        return PrefetchPlan(anchor.index, offset)


class PFetchStrategy(FetchStrategy):
    """Prefetching with lookahead / estimated-arrival timing (§5.1)."""

    name = "PFetch"

    def __init__(self) -> None:
        super().__init__()
        self.planner = PrefetchPlanner(self)

    # -- pipeline hooks ---------------------------------------------------------
    def on_event_start(self, event: Event) -> None:
        super().on_event_start(event)
        # refresh's own interval test, repeated here: this runs per event,
        # and most events fall inside the interval.
        now = self.ctx.clock.now
        if not now - self.planner.refreshed_at < PLAN_REFRESH_INTERVAL_US:
            self.planner.refresh(now)

    def _fire_scheduled(self) -> None:
        """Issue offset-timed prefetches whose due time has come."""
        for payload in self.ctx.scheduler.pop_due(self.ctx.clock.now):
            kind, site, key = payload
            if kind == "prefetch":
                self.issue_prefetch(site, key)

    # -- engine hooks ---------------------------------------------------------------
    def attach(self, ctx) -> None:
        super().attach(ctx)
        # The sites whose hit/miss history one evaluation of a predicate
        # feeds, per (transition, predicate) — resolved once, not per visit.
        self._history_sites = {
            (transition.index, predicate): tuple(
                site.site_id
                for site in transition.sites
                if site.predicate is predicate and site.prefetchable
            )
            for transition in ctx.automaton.transitions
            for predicate in transition.remote_predicates
        }

    def _prefetch_triggers(self, now: float) -> dict[int, list[tuple[RemoteSite, PrefetchPlan]]]:
        # Once per batch, not per run: the refresh is time-gated, the clock
        # stands still while a batch registers, and plans read hit history,
        # rates and latency estimates — no utility state.
        planner = self.planner
        planner.refresh(now)
        return planner.triggers

    def _fire_prefetches(
        self, run: Run, sites: Sequence[tuple[RemoteSite, PrefetchPlan]], now: float
    ) -> None:
        """Issue (or schedule) the prefetches ``run`` triggers on entering its state.

        A trigger state binds every key it prefetches, and the run was
        registered first, which read the same attributes of the same events
        (``UtilityModel.on_runs_created``) and raised the worded error for a
        missing one: each key here is one read.
        """
        env = run.env
        for site, plan in sites:
            ref = site.ref
            key_expr = ref.key_expr
            key = (ref.source, env[key_expr.binding].attrs[key_expr.attr])
            if plan.offset <= 0.0:
                self.issue_prefetch(site, key)
            else:
                self.ctx.scheduler.schedule(now + plan.offset, ("prefetch", site, key))

    def _record_history(
        self, transition: Transition, predicate: Predicate, missing: list[DataKey]
    ) -> None:
        """Feed the cache hit/miss history for lookahead timing.

        Runs once per remote resolution.
        """
        ctx = self.ctx
        now = ctx.clock.now
        plans = self.planner.plans
        hit = not missing
        history = ctx.history
        for site_id in self._history_sites[transition.index, predicate]:
            plan = plans.get(site_id)
            if plan is None:
                continue
            if hit:
                self.stats.history_hits += 1
            else:
                self.stats.history_misses += 1
            history.record(site_id, plan.trigger_state_index, now, hit)

    # -- P2: prefetch selection --------------------------------------------------------
    def issue_prefetch(self, site: RemoteSite, key: DataKey) -> None:
        """Issue one speculative fetch, subject to the Eq. 7 utility gate."""
        ctx = self.ctx
        now = ctx.clock.now
        if ctx.noise.active and ctx.noise.flip(("prefetch", site.site_id, key), now):
            # A phantom partial match was expected: fetch a useless element.
            key = ctx.noise.decoy_key(key)
        tracer = ctx.tracer
        cache = ctx.cache
        available = cache is not None and cache.peek(key, now) is not None
        if available or ctx.transport.in_flight(key) is not None:
            if tracer.enabled:
                tracer.emit(
                    CAT_PREFETCH,
                    "decision",
                    now,
                    decision="skip_local",
                    gated=False,
                    site=site.site_id,
                    key=trace_key(key),
                )
            return
        if not ctx.transport.source_available(key[0], now):
            # Speculative traffic to a source with an open breaker is pure
            # waste; a later urgent need will probe it via the blocking path.
            self.stats.breaker_skips += 1
            if tracer.enabled:
                tracer.emit(
                    CAT_PREFETCH,
                    "decision",
                    now,
                    decision="breaker_skip",
                    gated=False,
                    site=site.site_id,
                    key=trace_key(key),
                )
            return
        if cache is not None and cache.used >= cache.capacity:
            # Eq. 7: only displace cached data for higher-utility elements.
            # The candidate's own utility includes the anticipated urgent
            # need of the triggering partial match (one latency-weighted use).
            # Eq. 5 over the two terms, as ``ctx.utility.value`` combines
            # them, so the trace record can carry the Eq. 5/7 inputs.
            omega = ctx.omega_fetch
            uu, fu = ctx.utility.terms(key)
            candidate = omega * uu + (1.0 - omega) * fu
            ell_estimate = ctx.transport.monitor.estimate(key)
            candidate += omega * ell_estimate
            cache_min = cache.min_utility()
            if candidate <= cache_min:
                self.stats.prefetches_suppressed += 1
                if tracer.enabled:
                    tracer.emit(
                        CAT_PREFETCH,
                        "decision",
                        now,
                        decision="suppressed",
                        gated=True,
                        site=site.site_id,
                        key=trace_key(key),
                        uu=uu,
                        fu=fu,
                        omega=omega,
                        ell_estimate=ell_estimate,
                        candidate_utility=candidate,
                        cache_min=cache_min,
                    )
                return
            self.stats.prefetches_issued += 1
            if tracer.enabled:
                tracer.emit(
                    CAT_PREFETCH,
                    "decision",
                    now,
                    decision="issued",
                    gated=True,
                    site=site.site_id,
                    key=trace_key(key),
                    uu=uu,
                    fu=fu,
                    omega=omega,
                    ell_estimate=ell_estimate,
                    candidate_utility=candidate,
                    cache_min=cache_min,
                )
            # The Eq. 7 candidate utility doubles as the batch-assembly rank.
            self._fetch_async_prefetch(key, utility=candidate)
            return
        self.stats.prefetches_issued += 1
        if tracer.enabled:
            tracer.emit(
                CAT_PREFETCH,
                "decision",
                now,
                decision="issued",
                gated=False,
                site=site.site_id,
                key=trace_key(key),
            )
        self._fetch_async_prefetch(key)
