"""Unit tests for strategy-specific machinery (planner, benefit model, tiers)."""

import pytest

from repro.core.config import EiresConfig
from repro.core.framework import EIRES
from repro.query.parser import parse_query
from repro.remote.store import RemoteStore
from repro.remote.transport import FixedLatency
from repro.strategies import STRATEGIES, make_strategy
from repro.strategies.lazy import LazyBenefitModel

from tests.helpers import make_abc_scenario, random_stream, run_eires


class TestStrategyRegistry:
    def test_all_paper_strategies_present(self):
        assert set(STRATEGIES) == {"BL1", "BL2", "BL3", "PFetch", "LzEval", "Hybrid"}

    def test_make_strategy(self):
        strategy = make_strategy("PFetch")
        assert strategy.name == "PFetch"

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("BL9")

    def test_cache_usage_flags(self):
        assert not STRATEGIES["BL1"].uses_cache
        assert not STRATEGIES["BL3"].uses_cache
        for name in ("BL2", "PFetch", "LzEval", "Hybrid"):
            assert STRATEGIES[name].uses_cache


class TestPrefetchPlanner:
    def _eires(self, text, strategy="PFetch", **config):
        query = parse_query(text, name="t")
        store = RemoteStore()
        store.register_source("r", lambda key: frozenset(range(5)))
        return EIRES(query, store, FixedLatency(20.0), strategy=strategy,
                     config=EiresConfig(cache_capacity=50, **config))

    def test_plans_closest_lookahead_class_first(self):
        eires = self._eires(
            "SEQ(A a, B b, C c) WHERE c.v IN REMOTE<r>[a.v] WITHIN 1000"
        )
        planner = eires.strategy.planner
        planner.refresh(0.0)
        (site,) = eires.automaton.sites
        plan = planner.plan_for(site.site_id)
        # Closest candidate to the need: the state reached after binding b.
        assert plan.trigger_state_index == 2
        assert plan.offset == 0.0

    def test_falls_back_after_recorded_misses(self):
        eires = self._eires(
            "SEQ(A a, B b, C c) WHERE c.v IN REMOTE<r>[a.v] WITHIN 1000"
        )
        planner = eires.strategy.planner
        (site,) = eires.automaton.sites
        for _ in range(5):
            eires.history.record_miss(site.site_id, 2, now=10.0)
        planner.refresh(10.0, interval=0.0)
        plan = planner.plan_for(site.site_id)
        # The b-state trigger is distrusted; the a-state (index 1) remains.
        assert plan.trigger_state_index == 1

    def test_offset_timing_when_every_class_distrusted(self):
        eires = self._eires(
            "SEQ(A a, B b, C c) WHERE c.v IN REMOTE<r>[a.v] WITHIN 1000"
        )
        planner = eires.strategy.planner
        (site,) = eires.automaton.sites
        for state_index in (1, 2):
            for _ in range(5):
                eires.history.record_miss(site.site_id, state_index, now=10.0)
        planner.refresh(10.0, interval=0.0)
        plan = planner.plan_for(site.site_id)
        # Estimated-arrival: anchored at the earliest key-bearing class.
        assert plan.trigger_state_index == 1
        assert plan.offset >= 0.0

    def test_lookahead_disabled_uses_offset_timing(self):
        eires = self._eires(
            "SEQ(A a, B b, C c) WHERE c.v IN REMOTE<r>[a.v] WITHIN 1000",
            lookahead_enabled=False,
        )
        planner = eires.strategy.planner
        planner.refresh(0.0)
        (site,) = eires.automaton.sites
        plan = planner.plan_for(site.site_id)
        assert plan.trigger_state_index == 1  # anchor, not closest

    def test_unprefetchable_site_has_no_plan(self):
        eires = self._eires(
            "SEQ(A a, B b) WHERE a.v IN REMOTE<r>[b.v] WITHIN 1000"
        )
        planner = eires.strategy.planner
        planner.refresh(0.0)
        (site,) = eires.automaton.sites
        assert planner.plan_for(site.site_id) is None


class TestPrefetchGate:
    def test_suppression_when_cache_full_of_valuable_data(self):
        # With a noise-free utility of zero for candidates and a full cache of
        # positive-utility elements, Eq. 7 must suppress prefetches.
        query, store = make_abc_scenario()
        result = run_eires(
            query, store, random_stream(300, seed=77, v_domain=500),
            strategy="PFetch", cache_capacity=3,
        )
        stats = result.summary()
        assert stats["fetch.prefetches_suppressed"] >= 0  # counter exists
        assert stats["fetch.prefetches_issued"] + stats["fetch.prefetches_suppressed"] > 0


class TestLazyBenefitModel:
    def _eires(self, strategy="LzEval"):
        query = parse_query(
            "SEQ(A a, B b, C c, D d) WHERE SAME[id] AND b.v IN REMOTE[a.v] WITHIN 10000",
            name="t",
        )
        store = RemoteStore()
        store.register_source("v", lambda key: frozenset(range(10)))
        return EIRES(query, store, FixedLatency(100.0), strategy=strategy,
                     config=EiresConfig(cache_capacity=50))

    def test_latency_buckets_monotone(self):
        buckets = [LazyBenefitModel.latency_bucket(ell) for ell in (0, 1, 10, 100, 1000)]
        assert buckets == sorted(buckets)

    def test_succ_set_nonempty_for_cheap_postponement(self):
        eires = self._eires()
        model = eires.strategy.benefit
        # Warm up rates so expectations are meaningful.
        for i in range(50):
            eires.rates.observe_event("ABCD"[i % 4], i * 10.0)
        transition = eires.automaton.transitions[1]  # binds b, carries the site
        succ = model.succ_set(transition, ell=100.0)
        assert succ  # plenty of time to hide 100us across c and d arrivals

    def test_succ_cache_reused_within_interval(self):
        eires = self._eires()
        model = eires.strategy.benefit
        transition = eires.automaton.transitions[1]
        first = model.succ_set(transition, ell=100.0)
        assert model.succ_set(transition, ell=100.0) is first


class TestCacheTiering:
    def test_lazy_fetches_enter_certain_tier(self):
        from repro.cache.cost_based import CostBasedCache

        query = parse_query(
            "SEQ(A a, B b, C c) WHERE SAME[id] AND b.v IN REMOTE[a.v] WITHIN 10000",
            name="t",
        )
        store = RemoteStore()
        store.register_source("v", lambda key: frozenset(range(10)))
        eires = EIRES(query, store, FixedLatency(40.0), strategy="LzEval",
                      config=EiresConfig(cache_capacity=50, cache_policy="cost"))
        eires.run(random_stream(100, seed=55))
        cache = eires.cache
        assert isinstance(cache, CostBasedCache)
        # Everything this strategy fetched was needed by a partial match, so
        # entries entered T1 (possibly demoted to T2 after first access).
        assert cache.stats.insertions > 0


class TestStrategyStatsReporting:
    def test_describe_includes_counters(self):
        query, store = make_abc_scenario()
        result = run_eires(query, store, random_stream(100, seed=2), strategy="Hybrid")
        summary = result.summary()
        assert summary["strategy"] == "Hybrid"
        assert "fetch.prefetches_issued" in summary
        assert "cache.hit_rate" in summary
        assert "transport.async_fetches" in summary

    def test_bl1_has_no_cache_columns(self):
        query, store = make_abc_scenario()
        result = run_eires(query, store, random_stream(50, seed=2), strategy="BL1")
        assert not any(key.startswith("cache.") for key in result.summary())
        assert not any(key.startswith("cache.") for key in result.metrics)
