"""Online event-rate monitoring.

Both prefetch timing (Alg. 3's ``1/lambda - l_remote`` offset) and LzEval's
benefit model (Alg. 4's compound-Poisson estimate ``E(j,m) = 1/sum(lambda)``)
need, per transition, the arrival rate of events that would extend a partial
match along that transition.

A CEP engine evaluates guards anyway, so the estimator piggybacks on that:
for transition ``t`` it holds the cell the engine tallies guard evaluations
and passes in (decayed counters) and multiplies the pass fraction by the
monitored arrival rate of events of ``t``'s type.  This matches how the
paper assumes rates "shall be learned from historic data or through
monitoring" (§5.1) while staying O(1) per observation.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["RateEstimator"]

_DECAY = 0.5
# Stream events between two halvings of the decayed counters.
DECAY_INTERVAL_EVENTS = 512
_MIN_RATE = 1e-9  # events/us; avoids division blow-ups before warm-up


class _PassCounter:
    __slots__ = ("evaluations", "passes")

    def __init__(self) -> None:
        self.evaluations = 0.0
        self.passes = 0.0


class RateEstimator:
    """Per-type arrival rates and per-transition extension rates."""

    def __init__(self) -> None:
        self._events_seen = 0
        self._gap_ewma: float | None = None
        self._last_event_t: float | None = None
        self._type_counts: dict[str, float] = {}
        self._total_count = 0.0
        self._guards: defaultdict[int, _PassCounter] = defaultdict(_PassCounter)

    # -- observations --------------------------------------------------------
    def observe_event(self, event_type: str, timestamp: float) -> None:
        """Record one stream arrival."""
        self._events_seen += 1
        if self._last_event_t is not None:
            gap = max(timestamp - self._last_event_t, 1e-9)
            if self._gap_ewma is None:
                self._gap_ewma = gap
            else:
                self._gap_ewma = 0.95 * self._gap_ewma + 0.05 * gap
        self._last_event_t = timestamp
        self._type_counts[event_type] = self._type_counts.get(event_type, 0.0) + 1.0
        self._total_count += 1.0
        if self._events_seen % DECAY_INTERVAL_EVENTS == 0:
            self._decay()

    def guard_tally(self, transition_index: int) -> _PassCounter:
        """The cell a transition's guard evaluations are counted in.

        Whoever evaluates the guards adds ``1.0`` to ``evaluations`` per
        guard and ``1.0`` to ``passes`` per guard that passed — one addition
        per guard, never a batch total: the counters are halved
        periodically, so ``+= n`` would round differently.
        """
        return self._guards[transition_index]

    def _decay(self) -> None:
        for event_type in self._type_counts:
            self._type_counts[event_type] *= _DECAY
        self._total_count *= _DECAY
        for counter in self._guards.values():
            counter.evaluations *= _DECAY
            counter.passes *= _DECAY

    # -- estimates -------------------------------------------------------------
    def event_rate(self) -> float:
        """Overall stream arrival rate in events per microsecond."""
        if self._gap_ewma is None or self._gap_ewma <= 0:
            return _MIN_RATE
        return 1.0 / self._gap_ewma

    def type_rate(self, event_type: str) -> float:
        """Arrival rate of events of one type."""
        if self._total_count <= 0:
            return _MIN_RATE
        share = self._type_counts.get(event_type, 0.0) / self._total_count
        return max(share * self.event_rate(), _MIN_RATE)

    def extension_rate(self, transition_index: int, event_type: str) -> float:
        """Rate of arrivals that extend a partial match along a transition.

        Before any guard has been observed for the transition, the type rate
        alone is used — an optimistic prior that self-corrects quickly.
        """
        type_rate = self.type_rate(event_type)
        counter = self._guards.get(transition_index)
        if counter is None or counter.evaluations <= 0:
            return type_rate
        pass_fraction = counter.passes / counter.evaluations
        return max(type_rate * pass_fraction, _MIN_RATE)

    def expected_gap(self, transition_index: int, event_type: str) -> float:
        """Expected wait (us) for the next extending arrival: ``1/lambda``."""
        return 1.0 / self.extension_rate(transition_index, event_type)

    def __repr__(self) -> str:
        return (
            f"RateEstimator({self._events_seen} events, rate={self.event_rate():.6f}/us, "
            f"{len(self._guards)} transitions)"
        )
