"""Per-element transmission-latency and per-source health monitoring.

The paper assumes ``l_remote(d)`` "is monitored per data element" (§2.1) and
both PFetch timing (Alg. 3) and the LzEval benefit estimate (Alg. 4) consume
the monitored value.  :class:`LatencyMonitor` keeps an exponentially weighted
moving average per key, falling back to a per-source average for keys never
fetched before, then to a constant prior — a fresh system has no
observations yet but still needs a usable estimate.

With faults in play (see :mod:`repro.remote.faults`) latency is not the only
signal worth monitoring: a source that keeps failing should stop receiving
speculative traffic.  :class:`FailureWindow` tracks a sliding window of
recent attempt outcomes per source, :class:`CircuitBreaker` turns that
window into the classic closed / open / half-open state machine, and
:class:`BreakerBoard` keeps one breaker per source for the transport, the
prefetch planner (skip dead sources), and the LzEval gate (inflate latency
estimates by the expected retry overhead).
"""

from __future__ import annotations

from collections import deque

from repro.obs.trace import CAT_FETCH, NULL_TRACER, Tracer
from repro.remote.element import DataKey

__all__ = [
    "LatencyMonitor",
    "FailureWindow",
    "CircuitBreaker",
    "BreakerBoard",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

# Weight of a new observation in the latency EWMAs.
EWMA_ALPHA = 0.2
# Virtual us estimated for a source nothing has been fetched from yet.
LATENCY_PRIOR_US = 50.0
# Attempt outcomes a breaker's failure window holds per source.
BREAKER_WINDOW_SIZE = 32
# Outcomes the window must hold before a breaker may open.
BREAKER_MIN_SAMPLES = 8


class LatencyMonitor:
    """EWMA latency estimates keyed by element and by source."""

    def __init__(self) -> None:
        self._by_key: dict[DataKey, float] = {}
        self._by_source: dict[str, float] = {}
        self.observations = 0

    def record(self, key: DataKey, latency: float) -> None:
        """Fold one observed transmission latency into the estimates."""
        if latency < 0:
            raise ValueError(f"observed latency must be non-negative: {latency}")
        self.observations += 1
        self._by_key[key] = self._blend(self._by_key.get(key), latency)
        self._by_source[key[0]] = self._blend(self._by_source.get(key[0]), latency)

    def estimate(self, key: DataKey) -> float:
        """Best available estimate of ``l_remote`` for ``key``."""
        if key in self._by_key:
            return self._by_key[key]
        return self._by_source.get(key[0], LATENCY_PRIOR_US)

    def estimate_source(self, source: str) -> float:
        """Estimate for an entire source (used before any key is known)."""
        return self._by_source.get(source, LATENCY_PRIOR_US)

    def _blend(self, current: float | None, observation: float) -> float:
        if current is None:
            return observation
        return (1 - EWMA_ALPHA) * current + EWMA_ALPHA * observation

    def __repr__(self) -> str:
        return f"LatencyMonitor({self.observations} observations, {len(self._by_key)} keys)"


class FailureWindow:
    """Sliding window over the last ``size`` attempt outcomes of one source."""

    __slots__ = ("_outcomes", "_failures")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"window size must be >= 1: {size}")
        self._outcomes: deque[bool] = deque(maxlen=size)
        self._failures = 0

    def __len__(self) -> int:
        return len(self._outcomes)

    def record(self, ok: bool) -> None:
        if len(self._outcomes) == self._outcomes.maxlen and not self._outcomes[0]:
            self._failures -= 1
        self._outcomes.append(ok)
        if not ok:
            self._failures += 1

    def failure_rate(self) -> float:
        """Fraction of failed attempts in the window (0 while empty)."""
        if not self._outcomes:
            return 0.0
        return self._failures / len(self._outcomes)

    def __repr__(self) -> str:
        return f"FailureWindow({self._failures}/{len(self._outcomes)} failed)"


def _check_breaker_knobs(failure_threshold: float, cooldown: float) -> None:
    if not 0.0 < failure_threshold <= 1.0:
        raise ValueError(f"failure_threshold must be in (0, 1]: {failure_threshold}")
    if cooldown <= 0:
        raise ValueError(f"cooldown must be positive: {cooldown}")


class CircuitBreaker:
    """Closed / open / half-open breaker over one source's failure window.

    *Closed*: requests flow; once the window holds :data:`BREAKER_MIN_SAMPLES` outcomes
    and its failure rate reaches ``failure_threshold``, the breaker opens.
    *Open*: requests fail fast (no wire attempt) for ``cooldown`` virtual us.
    *Half-open*: after the cooldown the next request probes the source; a
    success closes the breaker (and resets the window), a failure re-opens
    it for another cooldown.

    The simulation is single-threaded and attempt outcomes are recorded at
    issue time, so the half-open state needs no concurrent-probe limit: the
    probe's outcome transitions the breaker before the next request asks.
    """

    __slots__ = ("window", "failure_threshold", "cooldown",
                 "_state", "_opened_at", "tracer", "source")

    def __init__(
        self,
        failure_threshold: float = 0.5,
        cooldown: float = 2_000.0,
        tracer: Tracer = NULL_TRACER,
        source: str = "",
    ) -> None:
        _check_breaker_knobs(failure_threshold, cooldown)
        self.window = FailureWindow(BREAKER_WINDOW_SIZE)
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._state = BREAKER_CLOSED
        self._opened_at = 0.0
        self.tracer = tracer
        self.source = source

    def _trace_transition(self, to_state: str, now: float) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                CAT_FETCH, "breaker_transition", now, source=self.source, to=to_state
            )

    def state(self, now: float) -> str:
        if self._state == BREAKER_OPEN and now - self._opened_at >= self.cooldown:
            return BREAKER_HALF_OPEN
        return self._state

    def allow(self, now: float) -> bool:
        """May a request be issued to this source at ``now``?"""
        state = self.state(now)
        if state == BREAKER_OPEN:
            return False
        if state == BREAKER_HALF_OPEN and self._state != BREAKER_HALF_OPEN:
            self._state = BREAKER_HALF_OPEN
            self._trace_transition(BREAKER_HALF_OPEN, now)
        return True

    def record(self, ok: bool, now: float) -> bool:
        """Fold one attempt outcome into the breaker; True if it opened it."""
        self.window.record(ok)
        if self._state == BREAKER_HALF_OPEN:
            if ok:
                self._state = BREAKER_CLOSED
                self.window = FailureWindow(BREAKER_WINDOW_SIZE)
                self.window.record(ok)
                self._trace_transition(BREAKER_CLOSED, now)
                return False
            return self._open(now)
        if (
            self._state == BREAKER_CLOSED
            and not ok
            and len(self.window) >= BREAKER_MIN_SAMPLES
            and self.window.failure_rate() >= self.failure_threshold
        ):
            return self._open(now)
        return False

    def _open(self, now: float) -> bool:
        self._state = BREAKER_OPEN
        self._opened_at = now
        self._trace_transition(BREAKER_OPEN, now)
        return True

    def __repr__(self) -> str:
        return f"CircuitBreaker({self._state})"


class BreakerBoard:
    """One circuit breaker per remote source, created on first contact."""

    __slots__ = ("failure_threshold", "cooldown", "tracer", "_breakers")

    def __init__(
        self,
        failure_threshold: float = 0.5,
        cooldown: float = 2_000.0,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        # Checked here, not at the first breaker a source creates mid-run.
        _check_breaker_knobs(failure_threshold, cooldown)
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.tracer = tracer
        self._breakers: dict[str, CircuitBreaker] = {}

    def breaker(self, source: str) -> CircuitBreaker:
        breaker = self._breakers.get(source)
        if breaker is None:
            breaker = CircuitBreaker(
                self.failure_threshold, self.cooldown, tracer=self.tracer, source=source
            )
            self._breakers[source] = breaker
        return breaker

    def allow(self, source: str, now: float) -> bool:
        return self.breaker(source).allow(now)

    def available(self, source: str, now: float) -> bool:
        """Pure availability probe (no half-open side effects) for planners."""
        breaker = self._breakers.get(source)
        return breaker is None or breaker.state(now) != BREAKER_OPEN

    def record(self, source: str, ok: bool, now: float) -> bool:
        """Fold one attempt outcome into ``source``'s breaker; True if it opened it."""
        return self.breaker(source).record(ok, now)

    def failure_rate(self, source: str) -> float:
        breaker = self._breakers.get(source)
        return breaker.window.failure_rate() if breaker is not None else 0.0

    def state(self, source: str, now: float) -> str:
        breaker = self._breakers.get(source)
        return breaker.state(now) if breaker is not None else BREAKER_CLOSED

    def __repr__(self) -> str:
        return f"BreakerBoard({len(self._breakers)} sources)"
