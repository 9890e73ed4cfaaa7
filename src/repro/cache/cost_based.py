"""Cost-based cache policy with two conceptual tiers (§6).

Elements whose use is *certain* (requested by lazy evaluation: some partial
match already needs them) enter tier T1; speculatively prefetched elements
enter tier T2.  T1 elements are retained over all T2 elements but drop to T2
after their first access, at which point their guaranteed use has been
consumed.

When capacity is reached, victims are taken from T2 before T1.  Within a
tier, the paper formulates retention as a knapsack over utility subject to
the size budget and approximates it greedily by utility/size ratio; evicting
the minimum-ratio element first is the complementary greedy rule used here.

Utilities are *time-varying in both directions* — they grow as partial
matches accumulate and collapse to zero when their matches expire — so
priority-queue bookkeeping keyed on stale snapshots systematically shields
worthless entries behind once-high values.  Eviction therefore uses
**sampling**: draw a bounded random sample of resident keys from the
preferred tier and evict the one with the lowest *current* utility/size
ratio.  This is O(sample) per eviction, needs no invalidation machinery,
and approximates exact min-eviction the same way sampled-LRU does in
production caches.

Ratio *ties* are broken by recency (least recently accessed first).  Under
partial-match workloads most elements serve exactly one live family and tie
at the same urgent utility; among those, older families are closer to
window expiry and less likely to produce further accesses, which is the
same signal LRU exploits.  The utility dominates whenever it actually
discriminates (multi-family elements, containers, dying keys).

The utility function is injected (``utility_fn``), wired by the framework to
:class:`repro.utility.model.UtilityModel` evaluated with the cache's
weighting factor ``omega_cache`` (§4.1).

Both sampled decisions **stop at the utility floor**: Eq. 5 is a sum of
products of non-negatives, so once a candidate's ratio is 0.0 no other can
be lower.  The sample is always drawn in full first, so the RNG stream —
and with it every decision — is the one a full scan would make.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.cache.base import Cache
from repro.remote.element import DataKey
from repro.sim.rng import make_rng

__all__ = ["CostBasedCache"]

# Cached elements scored per eviction or admission-gate decision.
SAMPLE_SIZE = 12


class _SampledSet:
    """A set supporting O(1) add/discard and O(k) random sampling.

    ``positions`` maps each member to its slot in the item list; a hot
    caller tests membership on it directly (``key in s.positions``) to skip
    the Python ``__contains__`` frame.
    """

    __slots__ = ("_items", "positions")

    def __init__(self) -> None:
        self._items: list[DataKey] = []
        self.positions: dict[DataKey, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: DataKey) -> bool:
        return key in self.positions

    def add(self, key: DataKey) -> None:
        if key not in self.positions:
            self.positions[key] = len(self._items)
            self._items.append(key)

    def discard(self, key: DataKey) -> None:
        position = self.positions.pop(key, None)
        if position is None:
            return
        last = self._items.pop()
        if last != key:
            self._items[position] = last
            self.positions[last] = position

    def sample(self, rng: random.Random, k: int) -> list[DataKey]:
        """``k`` keys drawn with replacement, ``items[rng.randrange(n)]`` each,
        by the ``getrandbits`` rejection loop :mod:`repro.sim.rng` describes;
        every key when there are no more than ``k``."""
        items = self._items
        n = len(items)
        if n <= k:
            return list(items)
        getrandbits = rng.getrandbits
        bits = n.bit_length()
        sample = []
        for _ in range(k):
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            sample.append(items[r])
        return sample


class CostBasedCache(Cache):
    """Two-tier, sampled utility/size-ratio eviction (knapsack approximation).

    Contract: ``utility_fn`` returns values ``>= 0``.  Eviction and
    :meth:`min_utility` stop scoring a sample at the first element worth
    nothing; that is the policy itself, not a shortcut around it — a
    worthless element is the greedy knapsack's first victim (§6) whatever
    else the sample holds.
    """

    TIER_CERTAIN = 1
    TIER_SPECULATIVE = 2

    def __init__(
        self,
        capacity: int,
        utility_fn: Callable[[DataKey], float],
        seed: int = 0,
    ) -> None:
        super().__init__(capacity)
        self._utility_fn = utility_fn
        self._rng = make_rng(seed)
        self._tiers: dict[int, _SampledSet] = {
            self.TIER_CERTAIN: _SampledSet(),
            self.TIER_SPECULATIVE: _SampledSet(),
        }
        self._last_touch: dict[DataKey, float] = {}

    # -- policy hooks --------------------------------------------------------
    def _on_access(self, key: DataKey, now: float) -> None:
        # First access consumes a T1 element's guaranteed use: demote to T2.
        certain = self._tiers[self.TIER_CERTAIN]
        if key in certain.positions:
            certain.discard(key)
            self._tiers[self.TIER_SPECULATIVE].add(key)
        self._last_touch[key] = now

    def _on_insert(self, key: DataKey, now: float, certain: bool) -> None:
        tier = self.TIER_CERTAIN if certain else self.TIER_SPECULATIVE
        self._tiers[tier].add(key)
        self._last_touch[key] = now

    def _on_remove(self, key: DataKey) -> None:
        self._tiers[self.TIER_CERTAIN].discard(key)
        self._tiers[self.TIER_SPECULATIVE].discard(key)
        self._last_touch.pop(key, None)

    def _select_victim(self) -> DataKey:
        for tier in (self.TIER_SPECULATIVE, self.TIER_CERTAIN):
            candidates = self._tiers[tier].sample(self._rng, SAMPLE_SIZE)
            if candidates:
                return self._oldest_lowest(candidates)[0]
        # Tier sets can only be empty together with the cache itself; reaching
        # here means an accounting bug upstream.
        raise RuntimeError("cost-based cache asked to evict from an empty cache")

    def min_utility(self) -> float:
        """Estimated lowest utility/size ratio among cached elements (Eq. 7).

        Sampled like eviction: the admission gate needs a cheap, current
        estimate of what a new element would displace.
        """
        for tier in (self.TIER_SPECULATIVE, self.TIER_CERTAIN):
            candidates = self._tiers[tier].sample(self._rng, SAMPLE_SIZE)
            if candidates:
                return self._oldest_lowest(candidates)[1]
        return 0.0

    # -- internals ----------------------------------------------------------------
    def _oldest_lowest(self, candidates: list[DataKey]) -> tuple[DataKey, float]:
        """The candidate minimal in (utility/size ratio, last touch), first in
        sample order among equals, and its ratio.

        Scored oldest-first.  The sort is stable, so sample order decides
        among equally old candidates and only a strictly lower ratio displaces
        the best so far.  The scan stops at the utility floor: past a ratio
        ``<= 0.0`` nothing is older or worth less.  (A minimum alone would not
        need the order; the oldest candidates are the likeliest to be dead.)
        """
        candidates.sort(key=self._last_touch.__getitem__)
        entries = self._entries
        utility_fn = self._utility_fn
        lowest_key = candidates[0]
        lowest = None
        for key in candidates:
            ratio = utility_fn(key) / max(entries[key].total_size(), 1)
            if lowest is None or ratio < lowest:
                lowest_key, lowest = key, ratio
                if ratio <= 0.0:
                    break
        return lowest_key, lowest
