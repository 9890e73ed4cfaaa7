"""Obligation handling: postponed predicates and their resolution (§5.2).

This mixin implements the engine-facing predicate protocol — evaluate now,
block, or postpone — and the blocking obligation-resolution rounds that
gather everything a run still misses in one stall.  The data movement it
triggers lives in :mod:`repro.strategies.fetch_plane`; the postpone/block
*decisions* are the subclass hooks :meth:`decide_postpone` and
:meth:`should_block_obligations`.
"""

from __future__ import annotations

from typing import Mapping

from repro.engine.interface import POSTPONED
from repro.events.event import Event
from repro.nfa.automaton import Transition
from repro.nfa.run import Run
from repro.obs.trace import CAT_OBLIGATION, trace_key
from repro.query.errors import RemoteDataUnavailable
from repro.query.predicates import Predicate
from repro.remote.element import DataKey
from repro.strategies.context import FAIL_CLOSED, FAIL_OPEN

__all__ = ["ObligationResolution", "_evaluate_with"]


class ObligationResolution:
    """Remote-predicate evaluation with postponement, for the engine protocol.

    Mixed into :class:`~repro.strategies.base.FetchStrategy`; relies on the
    fetch plane (``_collect``, ``_block_for``) and the instance state
    declared there — including ``_remote``, each remote
    predicate's generated ``(keys, decide)`` pair
    (:func:`repro.query.guards.compile_remote`).  Generated code words no
    errors and knows no failure mode: whenever ``decide`` raises, the
    interpretive :func:`_evaluate_with` runs instead and does both.  ``keys``
    falls back to ``remote_keys`` (for the wording) in
    :meth:`resolve_predicate` only: an obligation's ``env`` is the very
    environment its keys were computed from there, so on an obligation
    ``keys`` cannot raise.
    """

    def resolve_predicate(
        self, transition: Transition, predicate: Predicate, run: Run | None, env: Mapping[str, Event]
    ):
        """Evaluate a remote predicate, or return POSTPONED (§5.2).

        One key outside a blocking round — nothing staged, nothing failed
        this round — takes one probe: ``_collect``'s snapshot of that key is
        the one ``cache.get`` it would make, so it is made here, with no
        snapshot built around it.  Several keys, a blocking round or no cache
        go through ``_collect``.
        """
        keys_of, decide = self._remote[predicate]
        try:
            keys = keys_of(env)
        except Exception:
            keys = predicate.remote_keys(env)
        ctx = self.ctx
        cache = ctx.cache
        if cache is not None and len(keys) == 1 and not self._in_blocking_round:
            now = ctx.clock.now
            transport = ctx.transport
            if not now < transport.next_due:  # deliver_due's own test
                transport.deliver_due(now)
            key = keys[0]
            element = cache.get(key, now)
            if element is None:
                values, missing = {}, [key]
            else:
                value = element.value if element.key == key else self._value_for(key, element)
                values, missing = {key: value}, ()
        else:
            ctx.transport.deliver_due(ctx.clock.now)
            values, missing = self._collect(keys)
        self._record_history(transition, predicate, missing)
        if missing:
            if self.decide_postpone(transition, predicate, run, env, missing):
                self.stats.lazy_postponements += 1
                tracer = self.ctx.tracer
                if tracer.enabled:
                    tracer.emit(
                        CAT_OBLIGATION,
                        "postpone",
                        self.ctx.clock.now,
                        transition=transition.index,
                        run_id=tracer.run_ref(run.run_id) if run is not None else None,
                        keys=[trace_key(key) for key in missing],
                    )
                return POSTPONED
            values.update(self._block_for(missing))
        try:
            return decide(env, values)
        except Exception:
            return _evaluate_with(predicate, env, values, self.ctx.failure_mode)

    def resolve_obligation_predicate(
        self, predicate: Predicate, env: Mapping[str, Event], blocking: bool
    ):
        """Re-evaluate a postponed predicate once its data (maybe) arrived."""
        keys_of, decide = self._remote[predicate]
        ctx = self.ctx
        ctx.transport.deliver_due(ctx.clock.now)
        values, missing = self._collect(keys_of(env))
        if missing:
            if not blocking:
                return POSTPONED
            values.update(self._block_for(missing))
        try:
            outcome = decide(env, values)
        except Exception:
            outcome = _evaluate_with(predicate, env, values, ctx.failure_mode)
        tracer = ctx.tracer
        if tracer.enabled:
            tracer.emit(
                CAT_OBLIGATION,
                "resolve",
                ctx.clock.now,
                outcome=bool(outcome),
                blocking=blocking,
            )
        return outcome

    def prepare_blocking(self, run: Run) -> None:
        """Fetch everything a run's obligations still miss, in one round.

        Called by the engine before blocking obligation resolution so the
        stall is the *maximum* outstanding transmission latency rather than
        the sum over predicates — the effect the paper credits for BL3
        beating BL1/BL2 on Q1 (§7.2).
        """
        missing: list[DataKey] = []
        seen: set[DataKey] = set()
        remote = self._remote
        ctx = self.ctx
        ctx.transport.deliver_due(ctx.clock.now)
        self._in_blocking_round = True
        for obligation in run.obligations:
            for predicate in obligation.predicates:
                keys_of, _ = remote[predicate]
                for key in keys_of(obligation.env):
                    if key not in seen and not self._available(key):
                        seen.add(key)
                        missing.append(key)
        if missing:
            self._staged.update(self._block_for(missing))

    def finish_blocking(self) -> None:
        """End of a blocking obligation-resolution round: drop staged values."""
        self._staged.clear()
        self._round_failed.clear()
        self._in_blocking_round = False

    def should_block_obligations(self, run: Run) -> bool:
        """Default: obligations ride until the final state resolves them."""
        return False

    def decide_postpone(
        self,
        transition: Transition,
        predicate: Predicate,
        run: Run | None,
        env: Mapping[str, Event],
        missing: list[DataKey],
    ) -> bool:
        """Default: never postpone — block until the data is fetched."""
        return False


def _evaluate_with(
    predicate: Predicate,
    env: Mapping[str, Event],
    values: dict,
    failure_mode: str | None = None,
) -> bool:
    """Evaluate a predicate against a pre-collected value snapshot.

    A key absent from ``values`` after a blocking round means its fetch
    terminally failed; ``failure_mode`` then decides the predicate
    (fail-open: true, fail-closed: false).  Without a failure mode the
    unavailability propagates — on a healthy network it indicates a bug.
    """

    def resolver(key):
        try:
            return values[key]
        except KeyError:
            raise RemoteDataUnavailable(key) from None

    try:
        return predicate.evaluate(env, resolver)
    except RemoteDataUnavailable:
        if failure_mode == FAIL_OPEN:
            return True
        if failure_mode == FAIL_CLOSED:
            return False
        raise
