"""Unit tests for the cache policies (§6)."""

import pytest

from repro.cache.cost_based import SAMPLE_SIZE, CostBasedCache
from repro.cache.history import MISS_THRESHOLD, HitHistory
from repro.cache.lru import LRUCache
from repro.remote.element import DataElement


def element(key, size=1, value="v"):
    return DataElement(("src", key), value, size=size)


class TestLRUCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_put_and_get(self):
        cache = LRUCache(4)
        cache.put(element(1), now=0.0)
        assert cache.get(("src", 1), now=1.0) is not None
        assert cache.stats.hits == 1

    def test_miss_counted(self):
        cache = LRUCache(4)
        assert cache.get(("src", 9), now=0.0) is None
        assert cache.stats.misses == 1

    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put(element(1), 0.0)
        cache.put(element(2), 1.0)
        cache.get(("src", 1), 2.0)  # refresh 1
        cache.put(element(3), 3.0)  # evicts 2
        assert ("src", 1) in cache
        assert ("src", 2) not in cache
        assert ("src", 3) in cache
        assert cache.stats.evictions == 1

    def test_insert_refreshes_recency_of_existing(self):
        cache = LRUCache(2)
        cache.put(element(1), 0.0)
        cache.put(element(2), 1.0)
        cache.put(element(1), 2.0)  # re-insert: refresh, not duplicate
        cache.put(element(3), 3.0)
        assert ("src", 1) in cache
        assert ("src", 2) not in cache

    def test_size_aware_capacity(self):
        cache = LRUCache(10)
        cache.put(element(1, size=6), 0.0)
        cache.put(element(2, size=6), 1.0)  # cannot coexist with 1
        assert cache.used <= 10
        assert len(cache) == 1

    def test_oversized_element_rejected(self):
        cache = LRUCache(4)
        assert not cache.put(element(1, size=5), 0.0)
        assert cache.stats.rejected == 1

    def test_peek_does_not_count_stats(self):
        cache = LRUCache(4)
        cache.put(element(1), 0.0)
        cache.peek(("src", 1), 1.0)
        cache.peek(("src", 2), 1.0)
        assert cache.stats.hits + cache.stats.misses == 0

    def test_min_utility_is_zero_for_lru(self):
        assert LRUCache(4).min_utility() == 0.0


class TestHierarchicalLookup:
    def test_container_hit_serves_child(self):
        cache = LRUCache(10)
        container = DataElement(("src", "org"), "all", size=0)
        child = DataElement(("src", "card"), "one", size=1, parent=container)
        cache.put(container, 0.0)
        hit = cache.get(("src", "card"), 1.0)
        assert hit is container
        assert cache.stats.hits == 1

    def test_container_eviction_removes_child_index(self):
        cache = LRUCache(2)
        container = DataElement(("src", "org"), "all", size=1)
        DataElement(("src", "card"), "one", size=1, parent=container)
        cache.put(container, 0.0)
        cache.put(element("a"), 1.0)
        cache.put(element("b"), 2.0)  # evicts container
        assert cache.get(("src", "card"), 3.0) is None


    @pytest.mark.parametrize(
        "make",
        [lambda: LRUCache(10), lambda: CostBasedCache(10, utility_fn=lambda key: 0.0)],
        ids=["lru", "cost_based"],
    )
    @pytest.mark.parametrize("order", ["user first", "org first"])
    @pytest.mark.parametrize("removed", ["org", "user"])
    def test_removing_a_container_keeps_the_parts_another_one_holds(self, make, order, removed):
        cache = make()
        org = DataElement(("src", "org"), "all", size=1)
        user = DataElement(("src", "user"), "some", size=1, parent=org)
        DataElement(("src", "card"), "one", size=1, parent=user)
        for container in ((user, org) if order == "user first" else (org, user)):
            cache.put(container, 0.0)
        kept = user if removed == "org" else org
        cache._remove(("src", removed))  # what an eviction does
        assert ("src", "card") in cache
        assert cache.peek(("src", "card"), 1.0) is kept
        assert cache.get(("src", "card"), 1.0) is kept
        # The removed container's own key is served only by a cached ancestor.
        if removed == "user":
            assert cache.peek(("src", "user"), 1.0) is org
        else:
            assert cache.peek(("src", "org"), 1.0) is None
            assert ("src", "org") not in cache
        cache._remove(kept.key)
        assert ("src", "card") not in cache and cache.peek(("src", "card"), 2.0) is None
        assert cache._part_index == {}


class TestCostBasedCache:
    def test_evicts_lowest_utility_first(self):
        utilities = {("src", 1): 10.0, ("src", 2): 1.0, ("src", 3): 5.0}
        cache = CostBasedCache(2, utility_fn=lambda key: utilities.get(key, 0.0))
        cache.put(element(1), 0.0, certain=False)
        cache.put(element(2), 1.0, certain=False)
        cache.put(element(3), 2.0, certain=False)  # key 2 has lowest utility
        assert ("src", 2) not in cache
        assert ("src", 1) in cache and ("src", 3) in cache

    def test_speculative_tier_evicted_before_certain(self):
        cache = CostBasedCache(2, utility_fn=lambda key: 5.0)
        cache.put(element(1), 0.0, certain=True)  # T1
        cache.put(element(2), 1.0, certain=False)  # T2
        cache.put(element(3), 2.0, certain=True)  # must displace the T2 entry
        assert ("src", 1) in cache
        assert ("src", 2) not in cache

    def test_first_access_demotes_t1_to_t2(self):
        utilities = {("src", 1): 100.0, ("src", 2): 1.0}
        cache = CostBasedCache(2, utility_fn=lambda key: utilities.get(key, 50.0))
        cache.put(element(1), 0.0, certain=True)
        cache.get(("src", 1), 0.5)  # consume guaranteed use: demote to T2
        cache.put(element(2), 1.0, certain=True)
        # Next insertion must evict from T2 first, i.e. element 1 despite its
        # higher utility, because element 2 still sits in T1.
        cache.put(element(3), 2.0, certain=False)
        assert ("src", 2) in cache
        assert ("src", 1) not in cache

    def test_utility_per_size_ratio(self):
        utilities = {("src", "big"): 10.0, ("src", "small"): 4.0}
        cache = CostBasedCache(10, utility_fn=lambda key: utilities.get(key, 0.0))
        cache.put(element("big", size=8), 0.0, certain=False)  # ratio 1.25
        cache.put(element("small", size=2), 1.0, certain=False)  # ratio 2.0
        cache.put(element("new", size=4), 2.0, certain=False)  # must evict big
        assert ("src", "big") not in cache
        assert ("src", "small") in cache

    def test_min_utility_reflects_lowest_ratio(self):
        utilities = {("src", 1): 8.0, ("src", 2): 2.0}
        cache = CostBasedCache(4, utility_fn=lambda key: utilities.get(key, 0.0))
        cache.put(element(1), 0.0, certain=False)
        cache.put(element(2), 1.0, certain=False)
        assert cache.min_utility() == pytest.approx(2.0)

    def test_min_utility_empty_cache(self):
        cache = CostBasedCache(4, utility_fn=lambda key: 1.0)
        assert cache.min_utility() == 0.0

    def test_eviction_reads_current_utility(self):
        utilities = {("src", 1): 1.0, ("src", 2): 2.0, ("src", 3): 3.0}
        cache = CostBasedCache(2, utility_fn=lambda key: utilities.get(key, 0.0))
        cache.put(element(1), 0.0, certain=False)
        cache.put(element(2), 1.0, certain=False)
        cache.put(element(3), 2.0, certain=False)  # evicts 1
        utilities[("src", 2)] = 0.5
        cache.put(element(4, size=1), 3.0, certain=False)  # must evict 2 now
        assert ("src", 2) not in cache
        assert ("src", 3) in cache

    def _counting_cache(self, utility):
        """A full T2 of 50 unit-size entries (key i touched at time i) whose
        ``utility_fn`` logs every key it is asked about."""
        scored = []

        def utility_fn(key):
            scored.append(key)
            return utility(key)

        cache = CostBasedCache(50, utility_fn=utility_fn, seed=1)
        for i in range(50):
            cache.put(element(i), float(i), certain=False)
        assert scored == []  # nothing is scored until the cache is full
        return cache, scored

    def test_scoring_stops_at_the_utility_floor(self):
        # 49 of 50 entries are worthless; only the oldest has any utility.
        cache, scored = self._counting_cache(lambda key: 3.0 if key[1] == 0 else 0.0)
        assert cache.min_utility() == 0.0
        assert scored == [("src", 4)]  # the oldest of the 12 sampled is on the floor
        del scored[:]
        cache.put(element(99), 50.0, certain=False)
        # Oldest first: key 0 (worth 3.0), then key 1 (worthless) ends the scan.
        assert scored == [("src", 0), ("src", 1)]
        assert ("src", 1) not in cache and ("src", 0) in cache

    def test_a_tier_above_the_floor_is_scored_in_full(self):
        cache, scored = self._counting_cache(lambda key: 1.0 + key[1])
        cache.min_utility()
        assert len(scored) == SAMPLE_SIZE
        cache.put(element(99), 50.0, certain=False)
        assert len(scored) == 2 * SAMPLE_SIZE

    def test_capacity_never_exceeded_under_churn(self):
        cache = CostBasedCache(5, utility_fn=lambda key: float(key[1] % 7))
        for i in range(100):
            cache.put(element(i, size=1 + i % 3), float(i), certain=i % 2 == 0)
            assert cache.used <= 5


class TestHitHistory:
    @staticmethod
    def _distrust(history, site, state, now):
        """Record the misses that take a trigger class to the threshold."""
        for _ in range(MISS_THRESHOLD):
            history.record(site, state, now=now, hit=False)

    def test_optimistic_without_evidence(self):
        history = HitHistory()
        assert history.usable(0, 1, now=0.0)

    def test_miss_threshold_disables_trigger(self):
        history = HitHistory()
        for _ in range(MISS_THRESHOLD - 1):
            history.record(0, 1, now=0.0, hit=False)
        assert history.usable(0, 1, now=1.0)
        history.record(0, 1, now=2.0, hit=False)
        assert not history.usable(0, 1, now=3.0)

    def test_hit_forgives_misses(self):
        history = HitHistory()
        for _ in range(MISS_THRESHOLD - 1):
            history.record(0, 1, now=0.0, hit=False)
        history.record(0, 1, now=1.0, hit=True)
        history.record(0, 1, now=2.0, hit=False)
        assert history.usable(0, 1, now=3.0)

    def test_evidence_expires_after_reset_period(self):
        history = HitHistory(reset_after=100.0)
        self._distrust(history, 0, 1, now=0.0)
        assert not history.usable(0, 1, now=50.0)
        assert history.usable(0, 1, now=200.0)

    def test_records_are_per_site_and_state(self):
        history = HitHistory()
        self._distrust(history, 0, 1, now=0.0)
        assert not history.usable(0, 1, now=1.0)
        assert history.usable(0, 2, now=1.0)
        assert history.usable(1, 1, now=1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HitHistory(reset_after=0.0)
