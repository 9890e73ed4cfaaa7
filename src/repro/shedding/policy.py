"""Shedding policies: what to drop once the detector reports overload.

Three names make up the registry, mirroring the eSPICE/pSPICE line of
input-event vs. partial-match shedding:

* ``none`` — no policy at all.  The composition root builds no
  :class:`~repro.shedding.shedder.LoadShedder` for it, so the default
  configuration is byte-identical to a build without the plane.
* ``events`` (eSPICE-style) — under overload, drop input events whose
  *utility* — the partial matches they could advance, weighted by how close
  each is to completion — falls below a cutoff that scales with the
  overload's severity: just past the bound only zero-utility events go
  (all they could do is open fresh runs); the deeper the lag, the higher
  the cutoff climbs through the running average of recent utilities.
* ``runs`` (pSPICE-style) — under overload, evict the lowest-utility
  partial matches down to the run budget (or, latency-bound-only, to half
  the current population).  Utility follows the Eq. 5 shape the prefetch
  plane uses for data elements, transposed to partial matches: the urgent
  component is the progress already invested (bound events over pattern
  length), the future component the run's residual window lifetime — the
  exact term :meth:`repro.utility.model.UtilityModel.terms` adds to Eq. 6
  for element scoring — combined with the same ``omega`` weighting
  and discounted by unresolved obligations (a run that may yet fail its
  postponed predicates is cheaper to lose).

Every score is a pure function of run/engine state and virtual time — ties
break on ``run_id`` (creation order) — so shedding decisions are
deterministic and replay-verifiable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.shedding.detector import Overload

__all__ = [
    "SHED_NONE",
    "SHED_EVENTS",
    "SHED_RUNS",
    "SHED_POLICIES",
    "ShedDecision",
    "SheddingPolicy",
    "EventShedding",
    "RunShedding",
    "make_shedding_policy",
    "partial_match_utility",
    "event_utility",
]

SHED_NONE = "none"
SHED_EVENTS = "events"
SHED_RUNS = "runs"

#: Latency-bound-only run shedding keeps this fraction of the population
#: (with a budget configured, the budget itself is the target).
RUNS_KEEP_FRACTION = 0.5

#: Weight of the newest event in event shedding's running utility average.
EVENT_UTILITY_EWMA_ALPHA = 0.125

ACTION_DROP_EVENT = "drop_event"
ACTION_SHED_RUNS = "shed_runs"


def partial_match_utility(run, automaton, now: float, events_seen: int, omega: float) -> float:
    """Eq. 5 transposed to a partial match: ``omega*UU + (1-omega)*FU``.

    The urgent component is the fraction of the pattern already bound (work
    invested that eviction would waste); the future component is the
    remaining fraction of the run's window (how long it can still complete).
    Unresolved obligations discount the whole score: such a run is
    speculative and may be killed by its postponed predicates anyway.
    """
    bindable = max(automaton.n_states - 1, 1)
    progress = min(len(run.env) / bindable, 1.0)
    window = automaton.window
    if window.kind == "count":
        elapsed = (events_seen - run.first_seq) / window.value
    else:
        elapsed = (now - run.first_t) / window.value
    residual = max(0.0, 1.0 - elapsed)
    score = omega * progress + (1.0 - omega) * residual
    return score / (1.0 + len(run.obligations))


def event_utility(event, engine, automaton) -> float:
    """eSPICE-style utility of one input event for one engine.

    The sum, over every automaton class the event's type can advance, of the
    live partial matches in the event's partition weighted by the class's
    progress through the pattern.  Zero means the event cannot extend any
    live run — its only possible contribution is opening new ones.
    """
    depth_scale = max(automaton.n_states - 1, 1)
    total = 0.0
    for state_index, count in engine.extendable_runs(event):
        total += count * (state_index / depth_scale)
    return total


@dataclass(frozen=True)
class ShedDecision:
    """One shedding action, with the inputs that justify it (for tracing)."""

    action: str
    fields: dict[str, Any] = field(default_factory=dict)


class SheddingPolicy:
    """Decision hooks consulted by the :class:`LoadShedder` under overload."""

    name = "?"

    def on_overload_event(self, overload: Overload, event, engine) -> ShedDecision | None:
        """Before the engine evaluates ``event``: drop it?  (eSPICE hook)"""
        return None

    def on_overload_post(self, overload: Overload, engine, strategy) -> ShedDecision | None:
        """After an event was evaluated: evict partial matches?  (pSPICE hook)"""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class EventShedding(SheddingPolicy):
    """eSPICE-style input-event shedding (drop before NFA evaluation).

    The cutoff adapts to the overload's depth: at severity just past 1.0
    only zero-utility events (which can open runs but extend none) are
    dropped; as lag keeps climbing, the cutoff rises through the running
    average of recent event utilities, shedding below-average events first
    and, in deep overload, everything but the top performers — the
    deterministic analogue of eSPICE tying its drop ratio to the violation
    of the latency bound.  The exponential average is a pure function of
    the consulted event sequence, and each decision records the cutoff it
    compared against, so replay verification needs no private state.
    """

    name = SHED_EVENTS

    def __init__(self, automaton, threshold: float = 0.0) -> None:
        self.automaton = automaton
        self.threshold = threshold
        self._ewma = 0.0

    def on_overload_event(self, overload: Overload, event, engine) -> ShedDecision | None:
        utility = event_utility(event, engine, self.automaton)
        cutoff = self.threshold + self._ewma * max(overload.severity - 1.0, 0.0)
        self._ewma += EVENT_UTILITY_EWMA_ALPHA * (utility - self._ewma)
        if utility > cutoff:
            return None
        return ShedDecision(
            ACTION_DROP_EVENT,
            {"event_seq": event.seq, "utility": utility, "cutoff": cutoff},
        )


class RunShedding(SheddingPolicy):
    """pSPICE-style partial-match eviction, utility-scored per Eq. 5."""

    name = SHED_RUNS

    def __init__(self, automaton, omega: float, run_budget: int | None = None) -> None:
        if not 0.0 <= omega <= 1.0:
            raise ValueError(f"omega must be in [0, 1]: {omega}")
        self.automaton = automaton
        self.omega = omega
        self.run_budget = run_budget

    def target_population(self, active: int) -> int:
        """How many runs to keep: the budget, else half the population."""
        if self.run_budget is not None:
            return self.run_budget
        return int(active * RUNS_KEEP_FRACTION)

    def on_overload_post(self, overload: Overload, engine, strategy) -> ShedDecision | None:
        active = engine.active_runs
        target = self.target_population(active)
        excess = active - target
        if excess <= 0:
            return None
        now = engine.clock.now
        events_seen = engine.stats.events_processed
        automaton, omega = self.automaton, self.omega

        def score(run) -> float:
            return partial_match_utility(run, automaton, now, events_seen, omega)

        victims = engine.shed_lowest(excess, score, strategy)
        return ShedDecision(
            ACTION_SHED_RUNS,
            {"victims": victims, "target": target, "before": active},
        )


#: Every valid ``shed_policy`` name; ``none`` has no policy object.
SHED_POLICIES = (SHED_NONE, SHED_EVENTS, SHED_RUNS)


def make_shedding_policy(
    name: str,
    automaton=None,
    omega: float = 0.5,
    run_budget: int | None = None,
    event_threshold: float = 0.0,
) -> SheddingPolicy:
    """Instantiate a policy by registry name (the composition root's entry)."""
    if name == SHED_EVENTS:
        return EventShedding(automaton, threshold=event_threshold)
    if name == SHED_RUNS:
        return RunShedding(automaton, omega=omega, run_budget=run_budget)
    raise ValueError(f"unknown shedding policy {name!r}; choose from {[SHED_EVENTS, SHED_RUNS]}")
