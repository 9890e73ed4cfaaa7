"""Tests for configuration validation and framework assembly."""

import pytest

from repro.cache.cost_based import CostBasedCache
from repro.cache.lru import LRUCache
from repro.core.config import CACHE_COST, CACHE_LRU, EiresConfig
from repro.core.framework import EIRES
from repro.remote.transport import FixedLatency

from tests.helpers import make_abc_scenario, random_stream


class TestEiresConfig:
    def test_defaults_are_paper_values(self):
        config = EiresConfig()
        assert config.omega_fetch == 0.7  # Fig. 9a optimum
        assert config.omega_cache == 0.5  # Fig. 9b optimum
        assert config.cache_capacity == 10_000  # 10% of the synthetic key range

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy": "sometimes"},
            {"cache_policy": "fifo"},
            {"cache_capacity": 0},
            {"omega_fetch": 1.2},
            {"omega_cache": -0.1},
            {"noise_ratio": 2.0},
            {"utility_tick_interval": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EiresConfig(**kwargs)

    def test_with_creates_modified_copy(self):
        base = EiresConfig()
        tweaked = base.with_(omega_fetch=0.3)
        assert tweaked.omega_fetch == 0.3
        assert base.omega_fetch == 0.7
        assert tweaked.cache_capacity == base.cache_capacity


class TestFrameworkAssembly:
    def _eires(self, **kwargs):
        query, store = make_abc_scenario()
        strategy = kwargs.pop("strategy", "Hybrid")
        config = EiresConfig(cache_capacity=32, **kwargs)
        return EIRES(query, store, FixedLatency(10.0), strategy=strategy, config=config)

    def test_cost_cache_selected(self):
        eires = self._eires(cache_policy=CACHE_COST)
        assert isinstance(eires.cache, CostBasedCache)

    def test_lru_cache_selected(self):
        eires = self._eires(cache_policy=CACHE_LRU)
        assert isinstance(eires.cache, LRUCache)

    def test_cacheless_strategy_gets_no_cache(self):
        eires = self._eires(strategy="BL1")
        assert eires.cache is None

    def test_strategy_instance_accepted(self):
        from repro.strategies import PFetchStrategy

        query, store = make_abc_scenario()
        eires = EIRES(query, store, FixedLatency(10.0), strategy=PFetchStrategy(),
                      config=EiresConfig(cache_capacity=8))
        assert eires.strategy.name == "PFetch"

    def test_cost_cache_utility_fn_wired_to_model(self):
        eires = self._eires(cache_policy=CACHE_COST)
        # The utility closure must consult the live model: a never-seen key
        # has zero utility.
        assert eires.cache._utility_fn(("v", 12345)) == 0.0

    def test_run_returns_complete_result(self):
        eires = self._eires()
        result = eires.run(random_stream(80, seed=6))
        assert result.strategy_name == "Hybrid"
        assert result.summary()["engine.events_processed"] == 80
        assert result.duration_us > 0
        assert result.throughput.events == 80

    def test_seed_makes_runs_reproducible(self):
        query, store = make_abc_scenario()
        stream = random_stream(120, seed=14)

        def once():
            eires = EIRES(query, store, FixedLatency(10.0), strategy="Hybrid",
                          config=EiresConfig(cache_capacity=32, seed=123))
            result = eires.run(stream)
            return (result.match_count, result.latency.percentiles()[50])

        assert once() == once()

    def test_repr_mentions_strategy(self):
        assert "Hybrid" in repr(self._eires())

    @pytest.mark.parametrize("qs", [(99.0,), (50.0, 99.9)])
    def test_result_repr_renders_the_configured_quantiles(self, qs):
        result = self._eires(report_percentiles=qs).run(random_stream(80, seed=6))
        text = repr(result)
        for q, value in result.latency_percentiles().items():
            assert f"p{q:g}={value:.1f}us" in text
        assert text.count("us,") == len(qs)
