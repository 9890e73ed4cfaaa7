"""Cache statistics, reported by the experiment harness."""

from __future__ import annotations

from repro.obs.registry import CounterGroup

__all__ = ["CacheStats", "CACHE_COUNTER_KEYS"]

# Every counter a cache maintains, in report order.
CACHE_COUNTER_KEYS = ("hits", "misses", "insertions", "evictions", "rejected")


class CacheStats(CounterGroup):
    """Hit/miss/insertion/eviction counters for one cache (``cache.*``)."""

    def __init__(self) -> None:
        super().__init__("cache", CACHE_COUNTER_KEYS)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> dict[str, float]:
        return {**super().as_dict(), "hit_rate": round(self.hit_rate, 4)}
