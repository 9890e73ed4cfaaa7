"""The LzEval strategy: lazy evaluation of remote predicates (§5.2, Alg. 4).

**L1 — selection of partial matches.**  Postponing a remote predicate hides
(part of) the transmission latency but makes event selection less strict,
creating extra partial matches whose evaluation costs ``l_pm`` each.  For a
predicate needed at class ``j`` and a candidate postponement horizon ``m``
(a descendant class), the benefit model estimates

* the hidden latency  ``delta- = min(E(j,m), l_remote)``  where
  ``E(j,m) = 1 / sum(lambda_i)`` is the expectation of the compound Poisson
  process over the intermediate classes (Alg. 4 line 6–7), and
* the overhead  ``delta+ = l_pm * prod_i(#P_i(k) * lambda_{i+1} * E(j,m))``
  (Eq. 8, Alg. 4 line 8).

``succ(j, l_remote)`` collects the classes where ``delta- > delta+``;
postponement is applied iff the set is non-empty, and a fetch for the
missing element is issued *immediately* (non-blocking) so the data travels
while the run develops.

**L2 — adapted evaluation.**  The engine re-checks a run's obligations
whenever the run is touched; when a run extends into a class outside
``succ`` the strategy orders a block (Alg. 4 line 15), and final states
always resolve everything before a match is emitted.

Transmission latencies are lifted to coarse buckets so ``succ`` sets can be
cached and reused (the paper suggests millisecond granularity; here the
bucket is a configurable multiplicative decade).
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.events.event import Event
from repro.nfa.automaton import State, Transition
from repro.nfa.run import Run
from repro.obs.trace import CAT_OBLIGATION, trace_key
from repro.query.predicates import Predicate
from repro.remote.element import DataKey
from repro.strategies.base import FetchStrategy

__all__ = ["LazyBenefitModel", "LzEvalStrategy"]

# Virtual us a computed ``succ`` set stays valid before it is recomputed.
RECOMPUTE_INTERVAL_US = 500.0


class LazyBenefitModel:
    """Computes and caches the beneficial-postponement sets ``succ``."""

    def __init__(self, strategy: "LzEvalStrategy") -> None:
        self._strategy = strategy
        # (transition index, latency bucket)
        #   -> (computed_at, succ state indices, per-class Eq. 8 deltas)
        self._cache: dict[
            tuple[int, int], tuple[float, frozenset[int], tuple[dict[str, object], ...]]
        ] = {}

    @staticmethod
    def latency_bucket(ell: float) -> int:
        """Coarse bucket for a transmission latency (decade granularity)."""
        if ell <= 0:
            return 0
        return int(math.log10(max(ell, 1.0)) * 2)

    def succ_set(self, transition: Transition, ell: float) -> frozenset[int]:
        """Classes up to which postponing ``transition``'s remote predicates pays."""
        return self.lookup(transition, ell)[0]

    def lookup(
        self, transition: Transition, ell: float
    ) -> tuple[frozenset[int], tuple[dict[str, object], ...]]:
        """``succ`` plus the per-class ``delta-``/``delta+`` values behind it."""
        now = self._strategy.ctx.clock.now
        bucket = self.latency_bucket(ell)
        cached = self._cache.get((transition.index, bucket))
        if cached is not None and now - cached[0] < RECOMPUTE_INTERVAL_US:
            return cached[1], cached[2]
        succ, deltas = self._compute(transition, ell)
        self._cache[(transition.index, bucket)] = (now, succ, deltas)
        return succ, deltas

    def _compute(
        self, transition: Transition, ell: float
    ) -> tuple[frozenset[int], tuple[dict[str, object], ...]]:
        ctx = self._strategy.ctx
        beneficial: set[int] = set()
        deltas: list[dict[str, object]] = []
        # Walk every path of descendant classes below the postponing
        # transition's target; `chain` is [r1=target, r2, ..., m].
        stack: list[list[State]] = [[transition.target]]
        while stack:
            chain = stack.pop()
            m = chain[-1]
            rate_sum = 0.0
            for state in chain:
                entry = self._entry_transition(state)
                rate_sum += ctx.rates.extension_rate(entry.index, entry.event_type)
            expectation = 1.0 / max(rate_sum, 1e-9)  # E(j, m)
            hidden = min(expectation, ell)  # delta- l_remote
            overhead = ctx.ell_pm  # delta+ l_match, Eq. 8
            for intermediate, successor in zip(chain[:-1], chain[1:]):
                entry = self._entry_transition(successor)
                overhead *= (
                    ctx.utility.class_count(intermediate.index)
                    * ctx.rates.extension_rate(entry.index, entry.event_type)
                    * expectation
                )
            # Postponement must survive at least one *future* arrival to hide
            # any latency: the paper's succ classes are strictly later than
            # the postponing transition's own target (j < m), so a chain of
            # length one (m == target) never qualifies.  In particular, a
            # remote predicate on a transition into a leaf final state has an
            # empty succ set and is evaluated by blocking (Alg. 4 line 15).
            if len(chain) > 1:
                wins = hidden > overhead
                deltas.append(
                    {
                        "state": m.index,
                        "delta_minus": hidden,
                        "delta_plus": overhead,
                        "beneficial": wins,
                    }
                )
                if wins:
                    beneficial.add(m.index)
            for next_transition in m.transitions:
                stack.append(chain + [next_transition.target])
        deltas.sort(key=lambda entry: entry["state"])
        return frozenset(beneficial), tuple(deltas)

    @staticmethod
    def _entry_transition(state: State) -> Transition:
        parent = state.parent
        if parent is None:
            raise ValueError("root state has no entry transition")
        for transition in parent.transitions:
            if transition.target is state:
                return transition
        raise ValueError(f"no entry transition found for {state!r}")


class LzEvalStrategy(FetchStrategy):
    """Lazy evaluation gated by the Alg. 4 benefit model."""

    name = "LzEval"

    def __init__(self) -> None:
        super().__init__()
        self.benefit = LazyBenefitModel(self)

    def decide_postpone(
        self,
        transition: Transition,
        predicate: Predicate,
        run: Run | None,
        env: Mapping[str, Event],
        missing: list[DataKey],
    ) -> bool:
        ctx = self.ctx
        # Effective latency includes the expected retry overhead for keys on
        # flaky sources — postponement must hide the *whole* expected wait
        # (Eq. 8 with ell lifted to the fault-adjusted estimate).  On a
        # healthy source this is exactly the monitored estimate.
        ell = max(ctx.transport.effective_estimate(key) for key in missing)
        tracer = ctx.tracer
        if ctx.lazy_gate_enabled:
            succ, deltas = self.benefit.lookup(transition, ell)
            if not succ:
                self.stats.forced_blocks += 1
                if tracer.enabled:
                    tracer.emit(
                        CAT_OBLIGATION,
                        "eq8_gate",
                        ctx.clock.now,
                        branch="block",
                        gated=True,
                        transition=transition.index,
                        ell=ell,
                        succ=sorted(succ),
                        deltas=list(deltas),
                        keys=[trace_key(key) for key in missing],
                    )
                return False
            if tracer.enabled:
                tracer.emit(
                    CAT_OBLIGATION,
                    "eq8_gate",
                    ctx.clock.now,
                    branch="postpone",
                    gated=True,
                    transition=transition.index,
                    ell=ell,
                    succ=sorted(succ),
                    deltas=list(deltas),
                    keys=[trace_key(key) for key in missing],
                )
        elif tracer.enabled:
            # Gate disabled: postponement is unconditional; record it so the
            # trace still explains why no block happened here.
            tracer.emit(
                CAT_OBLIGATION,
                "eq8_gate",
                ctx.clock.now,
                branch="postpone",
                gated=False,
                transition=transition.index,
                ell=ell,
                succ=[],
                deltas=[],
                keys=[trace_key(key) for key in missing],
            )
        # Postpone: fetch now (non-blocking) so the data travels while the
        # run develops; its use is certain, so it lands in cache tier T1.
        self._fetch_async_lazy(missing)
        self.last_postpone_ell = ell
        return True

    def should_block_obligations(self, run: Run) -> bool:
        """L2: block once the run leaves the beneficial region (line 15)."""
        state_index = run.state.index
        for obligation in run.obligations:
            origin = obligation.origin
            if origin is None:
                continue
            if state_index == origin.target.index:
                # The extension that carries the fresh obligation: the
                # postponement decision was just made; let it ride.
                continue
            succ = self.benefit.succ_set(origin, obligation.ell_estimate)
            if state_index not in succ:
                return True
        return False
