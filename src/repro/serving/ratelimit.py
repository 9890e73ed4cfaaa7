"""Per-tenant admission control: a virtual-time token bucket.

Rates are declared in events per virtual *second* (the clock runs in
microseconds); the bucket refills continuously, so admission depends only
on the event timestamps — never on wall time or arrival jitter — and a
fleet replay admits and throttles the exact same events every run.

Construction is confined to :mod:`repro.serving` (rule A7 of
``tests/test_invariants.py``):
tenants declare ``rate_limit``/``burst`` on their :class:`TenantSpec` and
:class:`~repro.serving.fleet.FleetBuilder` builds the buckets, so every
throttle decision carries a ``serving`` trace record the provenance
replayer can verify.
"""

from __future__ import annotations

__all__ = ["TokenBucket", "US_PER_SECOND"]

US_PER_SECOND = 1_000_000.0


class TokenBucket:
    """Continuous-refill token bucket over virtual microseconds.

    ``rate`` is tokens (events) per virtual second; ``burst`` caps the
    bucket.  The bucket starts full, so a tenant's first ``burst`` events
    are always admitted.  ``burst`` must be at least 1.0 — a smaller cap
    could never accumulate a whole token and would throttle everything.
    """

    __slots__ = ("rate", "burst", "tokens", "last", "admitted", "throttled")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0.0:
            raise ValueError(f"token-bucket rate must be positive: {rate}")
        if burst < 1.0:
            raise ValueError(
                f"token-bucket burst must be at least 1.0 (got {burst}); "
                "a smaller bucket can never hold a whole token"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last = 0.0
        self.admitted = 0
        self.throttled = 0

    def refill(self, now: float) -> float:
        """Advance the bucket to ``now``; returns the refilled token count."""
        elapsed = max(0.0, now - self.last)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate / US_PER_SECOND)
        self.last = now
        return self.tokens

    def decide(self, now: float) -> tuple[bool, float]:
        """One admission decision plus the post-refill level it was made at.

        The token level is what the fleet's ``serving`` trace records carry
        — the provenance replayer re-derives the decision from it.
        """
        tokens = self.refill(now)
        if tokens >= 1.0:
            self.tokens -= 1.0
            self.admitted += 1
            return True, tokens
        self.throttled += 1
        return False, tokens

    def admit(self, now: float) -> bool:
        """One admission decision at virtual time ``now``."""
        return self.decide(now)[0]

    def __repr__(self) -> str:
        return (
            f"TokenBucket(rate={self.rate}/s, burst={self.burst}, "
            f"tokens={self.tokens:.2f}, admitted={self.admitted}, "
            f"throttled={self.throttled})"
        )
