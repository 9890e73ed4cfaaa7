"""Retry policy for failed remote fetches: backoff, caps, deadlines.

A failed fetch attempt (see :mod:`repro.remote.faults`) may be retried.
:class:`RetryPolicy` bounds how hard the transport tries:

* ``max_attempts`` — total attempts per fetch, including the first;
* exponential backoff with multiplicative jitter between attempts
  (``backoff_base * backoff_factor**(attempt-1)``, jittered by ``+-jitter``);
* ``attempt_timeout`` — how long a silently dropped request is awaited
  before it is declared dead (drops produce no response; this is the only
  way their failure becomes *known*);
* ``deadline`` — a per-fetch budget from the first issue; once exceeded, no
  further attempts are made even if ``max_attempts`` is not yet reached.

All durations are virtual microseconds; backoff waits reschedule through the
virtual clock (async fetches re-enter the in-flight table, blocking fetches
extend the stall).  :meth:`expected_overhead` is the deterministic
expectation of the added latency given an observed failure rate — LzEval's
Eq. 8 gate uses it so postponement decisions account for retry cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds and timing for re-issuing failed fetch attempts."""

    max_attempts: int = 3
    backoff_base: float = 25.0
    backoff_factor: float = 2.0
    jitter: float = 0.1
    attempt_timeout: float = 400.0
    deadline: float = 4_000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be non-negative: {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1: {self.backoff_factor}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1): {self.jitter}")
        if self.attempt_timeout <= 0:
            raise ValueError(f"attempt_timeout must be positive: {self.attempt_timeout}")
        if self.deadline <= 0:
            raise ValueError(f"deadline must be positive: {self.deadline}")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Wait before re-issuing after failed attempt number ``attempt``."""
        if attempt < 1:
            raise ValueError(f"attempt numbers start at 1: {attempt}")
        wait = self.backoff_base * self.backoff_factor ** (attempt - 1)
        if self.jitter:
            wait *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return wait

    def allows(self, next_attempt: int, elapsed: float) -> bool:
        """May attempt number ``next_attempt`` be issued ``elapsed`` us in?"""
        return next_attempt <= self.max_attempts and elapsed < self.deadline

    def expected_overhead(self, failure_rate: float, base_latency: float) -> float:
        """Expected extra latency per fetch given an attempt failure rate.

        Deterministic (jitter-free) expectation: attempt ``k`` is reached
        with probability ``p**k`` and adds one failure-detection wait (the
        round trip for errors, the attempt timeout for drops — we use the
        smaller of latency and timeout as the optimistic mix) plus its
        backoff.  Zero when ``failure_rate`` is zero, so fault-free runs see
        exactly the pre-fault estimates.
        """
        p = min(max(failure_rate, 0.0), 0.95)
        if p == 0.0 or self.max_attempts <= 1:
            return 0.0
        detection = min(max(base_latency, 0.0), self.attempt_timeout)
        overhead = 0.0
        weight = p
        for attempt in range(1, self.max_attempts):
            overhead += weight * (detection + self.backoff_base * self.backoff_factor ** (attempt - 1))
            weight *= p
        return overhead
