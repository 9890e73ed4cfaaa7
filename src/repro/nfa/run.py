"""Partial matches (automaton runs) and postponed-predicate obligations.

A :class:`Run` is one partial match: the state it occupies and the events
bound so far.  Under lazy evaluation (§5.2) and BL3, remote predicates may be
*postponed*: the run then carries :class:`Obligation` records that must all
hold before the run can produce a match.

Obligations also encode correctness under the non-greedy policy.  If a
transition's remote predicate cannot be resolved, a skip-till-next-match
engine cannot yet know whether the input event should have been consumed.
EIRES resolves this by splitting: the extended run carries the obligation
``p`` while the retained original carries the *negated* obligation ``¬p``.
Whichever way the remote data decides ``p``, exactly one branch survives, so
the final match set is identical to an oracle engine that had the data all
along — the cost is precisely the extra partial matches that LzEval's benefit
model (Eq. 8) accounts for.
"""

from __future__ import annotations

from typing import Mapping

from repro.events.event import Event
from repro.nfa.automaton import State, Transition
from repro.query.predicates import Predicate

__all__ = ["Obligation", "Run"]


class Obligation:
    """A postponed predicate group the run's survival is conditioned on.

    ``negated=False`` requires *all* predicates to evaluate to ``True`` (the
    extended branch of a split: the transition really fired).
    ``negated=True`` requires *at least one* to be ``False`` (the retained
    branch of a non-greedy split: the transition would not have fired).

    ``origin`` is the transition at which postponement happened —
    LzEval's adapted procedure (L2) consults it to decide whether a run that
    has meanwhile reached class ``m`` may keep postponing (``m`` in
    ``succ(j)``) or must block.  ``ell_estimate`` is the transmission-latency
    estimate at postponement time, the other input to that decision.
    Obligation objects are immutable and may be shared between a run and its
    extensions; each run tracks its own remaining obligations.
    """

    __slots__ = ("predicates", "negated", "env", "origin", "ell_estimate", "issued_at")

    def __init__(
        self,
        predicates: tuple[Predicate, ...],
        negated: bool,
        issued_at: float,
        env: Mapping[str, Event],
        origin: "Transition | None" = None,
        ell_estimate: float = 0.0,
    ) -> None:
        if not predicates:
            raise ValueError("an obligation needs at least one predicate")
        self.predicates = predicates
        self.negated = negated
        # The guard-evaluation environment at postponement time.  The
        # *retained* branch of a non-greedy split does not bind the
        # candidate event, so its NOT(p) obligation can only be checked
        # against this snapshot — a run's own env would lack the binding.
        self.env = env
        self.origin = origin
        self.ell_estimate = ell_estimate
        self.issued_at = issued_at

    def __repr__(self) -> str:
        inner = " AND ".join(repr(p) for p in self.predicates)
        if self.negated:
            return f"Obligation(NOT({inner}))"
        return f"Obligation({inner})"


class Run:
    """One partial match of the automaton.

    Runs are persistent-by-copy: extending one builds a new run with one
    more binding, leaving the original untouched (the greedy policy keeps
    both alive).  ``created_at`` is the virtual time the run entered its
    current state — the anchor for prefetch offset timing (Alg. 3 line 11).
    """

    __slots__ = (
        "run_id",
        "state",
        "env",
        "first_t",
        "first_seq",
        "last_seq",
        "obligations",
        "created_at",
        "required_keys",
    )

    _next_id = 0

    def __init__(
        self,
        state: State,
        env: dict[str, Event],
        first_t: float,
        first_seq: int,
        last_seq: int,
        obligations: tuple[Obligation, ...],
        created_at: float,
    ) -> None:
        self.run_id = Run._next_id
        Run._next_id += 1
        self.state = state
        self.env = env
        self.first_t = first_t
        self.first_seq = first_seq
        self.last_seq = last_seq
        self.obligations = obligations
        self.created_at = created_at
        # Concrete remote keys this run needs to process upcoming events
        # (the paper's D(p, k+1)); filled in by the strategy's utility
        # bookkeeping when the run is registered.
        self.required_keys: tuple = ()

    @classmethod
    def start(cls, state: State, binding: str, event: Event, created_at: float) -> "Run":
        """Create a fresh run from the first selected event."""
        return cls(
            state=state,
            env={binding: event},
            first_t=event.t,
            first_seq=event.seq,
            last_seq=event.seq,
            obligations=(),
            created_at=created_at,
        )

    def add_obligations(self, extra: tuple[Obligation, ...]) -> None:
        """Attach further obligations (the retained branch of a split)."""
        self.obligations = self.obligations + extra

    def __repr__(self) -> str:
        bound = ",".join(self.env)
        pending = f", {len(self.obligations)} pending" if self.obligations else ""
        return f"Run(#{self.run_id} at {self.state.name}, bound=[{bound}]{pending})"
