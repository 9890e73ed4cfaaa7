"""Prefetch cache hit/miss history ``H`` (Alg. 3).

Lookahead timing picks, per remote site, the trigger class closest to the
need whose recent prefetches actually hit.  ``H(site, j)`` aggregates recent
evidence for "prefetching this site's element when a partial match enters
class ``j`` makes it available in time".

The paper maintains counts of cache misses with a threshold deciding what is
sufficient negative evidence, and resets values a fixed period after their
last increment to cope with stream fluctuation: the threshold is
:data:`MISS_THRESHOLD`, the period is configured (``reset_after``).
Evidence is tracked per (site, trigger-state) rather than per concrete
element — elements fetched for one site share fate, and per-element
tracking would be both noisy and unbounded.
"""

from __future__ import annotations

__all__ = ["HitHistory"]

# Consecutive misses after which a trigger class stops being trusted.
MISS_THRESHOLD = 3


class _SiteRecord:
    __slots__ = ("misses", "hits", "last_update")

    def __init__(self) -> None:
        self.misses = 0
        self.hits = 0
        self.last_update = 0.0


class HitHistory:
    """Per (site, trigger state) prefetch outcome counters."""

    def __init__(self, reset_after: float = 1_000_000.0) -> None:
        if reset_after <= 0:
            raise ValueError(f"reset_after must be positive: {reset_after}")
        self._reset_after = reset_after
        self._records: dict[tuple[int, int], _SiteRecord] = {}

    def record(self, site_id: int, state_index: int, now: float, hit: bool) -> None:
        """Whether a prefetch triggered at ``state_index`` was in cache when
        needed (``hit``) or *not* available in time."""
        record = self._records.get((site_id, state_index))
        if record is None:
            record = self._records[(site_id, state_index)] = _SiteRecord()
        elif now - record.last_update > self._reset_after:
            # Stale evidence: the stream may have shifted; start over.
            record.hits = 0
            record.misses = 0
        if hit:
            record.hits += 1
            # A hit forgives accumulated misses — evidence is about the recent past.
            record.misses = 0
        else:
            record.misses += 1
        record.last_update = now

    def usable(self, site_id: int, state_index: int, now: float) -> bool:
        """Whether class ``state_index`` is (still) a trusted prefetch trigger.

        Optimistic by default: with no evidence, the closest class is tried
        first, exactly like Alg. 3's initial walk.
        """
        record = self._records.get((site_id, state_index))
        if record is None:
            return True
        if now - record.last_update > self._reset_after:
            return True
        return record.misses < MISS_THRESHOLD

    def __repr__(self) -> str:
        return f"HitHistory({len(self._records)} site/state records)"
