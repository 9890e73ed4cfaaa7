"""Contracts between the CEP engine and the fetch strategies.

The engine implements the evaluation function ``f_Q`` of Eq. 1; everything
specific to §5's strategies (when to block, when to postpone, what to
prefetch) is delegated through the :class:`StrategyProtocol`.  Keeping the
boundary here avoids circular imports: both the engine and the strategy
implementations depend only on this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Protocol, Sequence

from repro.events.event import Event
from repro.nfa.automaton import Transition
from repro.nfa.run import Run
from repro.query.predicates import Predicate

__all__ = [
    "POSTPONED",
    "CostModel",
    "MatchRecord",
    "ENGINE_COUNTER_KEYS",
    "StrategyProtocol",
]


class _Postponed:
    """Sentinel: a remote predicate's evaluation was deferred (§5.2)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<POSTPONED>"


POSTPONED = _Postponed()


@dataclass(frozen=True)
class CostModel:
    """Virtual-time costs the engine charges while evaluating.

    ``per_guard_cost`` is the paper's ``l_pm`` — the additional evaluation
    latency per partial match (Eq. 8); the engine charges it for every
    (run, transition) guard evaluation, so the overhead of extra partial
    matches created by lazy evaluation is felt exactly where the cost model
    predicts it.
    """

    base_event_cost: float = 0.2
    per_guard_cost: float = 0.05
    per_obligation_cost: float = 0.02

    def __post_init__(self) -> None:
        for name in ("base_event_cost", "per_guard_cost", "per_obligation_cost"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class MatchRecord:
    """One complete match as the engine emits it, with its latency
    decomposition.  It lives for one step: the dispatch loop copies what a
    result reports into the session's match store and drops the record.

    ``span`` is the critical-path attribution captured by
    :class:`repro.obs.spans.SpanTracker` at emission time (a dict of
    :data:`~repro.obs.spans.SPAN_COMPONENTS` summing to :attr:`latency`);
    ``None`` when tracing is disabled.  ``events`` is the mapping given,
    kept rather than copied: the engine hands over a run's environment,
    which nothing mutates once built.
    """

    __slots__ = ("events", "last_event_t", "detected_at", "fetch_wait", "span")

    def __init__(
        self,
        events: Mapping[str, Event],
        last_event_t: float,
        detected_at: float,
        fetch_wait: float = 0.0,
        span: dict[str, float] | None = None,
    ) -> None:
        self.events = events
        self.last_event_t = last_event_t
        self.detected_at = detected_at
        self.fetch_wait = fetch_wait
        self.span = span

    @property
    def latency(self) -> float:
        """Detection latency: last-event arrival to match detection (§2.2)."""
        return self.detected_at - self.last_event_t

    def signature(self) -> tuple:
        """Canonical identity of the match, for cross-strategy comparison."""
        return tuple(sorted((binding, event.seq) for binding, event in self.events.items()))

    def __repr__(self) -> str:
        bound = ",".join(f"{b}:{e.seq}" for b, e in sorted(self.events.items()))
        return f"MatchRecord([{bound}], latency={self.latency:.1f}us)"


# Every counter an engine maintains (``Engine.stats``), in report order.
ENGINE_COUNTER_KEYS = (
    "events_processed",
    "guard_evaluations",
    "predicate_evaluations",
    "obligation_checks",
    "runs_created",
    "runs_expired",
    "runs_consumed",
    "runs_failed_obligation",
    "matches_emitted",
    "matches_rejected",
    "peak_active_runs",
    "shed_runs",
)


class StrategyProtocol(Protocol):
    """What the engine requires of a fetch strategy.

    Implementations live in :mod:`repro.strategies`; see
    :class:`repro.strategies.base.FetchStrategy` for the shared behaviour.
    """

    name: str

    def resolve_predicate(
        self, transition: Transition, predicate: Predicate, run: Run, env: Mapping[str, Event]
    ) -> Any:
        """Evaluate a remote predicate: ``bool`` outcome or ``POSTPONED``."""

    def resolve_obligation_predicate(
        self, predicate: Predicate, env: Mapping[str, Event], blocking: bool
    ) -> Any:
        """Re-evaluate a postponed predicate; ``POSTPONED`` if still missing
        and ``blocking`` is False."""

    def should_block_obligations(self, run: Run) -> bool:
        """Whether a newly extended run's pending obligations must be
        resolved now rather than carried further (Alg. 4 line 15)."""

    def prepare_blocking(self, run: Run) -> None:
        """Stage one concurrent fetch round for a blocking resolution."""

    def finish_blocking(self) -> None:
        """Drop values staged by :meth:`prepare_blocking`."""

    def on_runs_created(self, runs: Sequence[Run]) -> None:
        """Partial matches were created or extended (utility bookkeeping,
        prefetch triggering): everything one event added, in creation order.
        Must not advance the clock."""

    def on_runs_dropped(self, runs: Sequence[Run], reason: str) -> None:
        """Partial matches left the system for one ``reason`` (expired /
        consumed / obligation_failed / flushed / shed), in drop order."""

    def guard_tally(self, transition: Transition) -> Any:
        """The cell ``transition``'s guard evaluations are counted in, for
        rate monitoring.

        Two float attributes, ``evaluations`` and ``passes``; the engine adds
        ``1.0`` per guard.  A generated bucket loop adds to local copies and
        the engine stores them back once per bucket; the per-run loop writes
        the attributes directly, because a decision the strategy takes
        between two guards reads them — the same additions in the same order
        either way (the cells are halved periodically, so ``+= n`` would
        round differently).
        """
