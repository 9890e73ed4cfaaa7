"""Tests for configuration validation and framework assembly."""

import ast
import dataclasses
import importlib
import inspect
import re
import typing
from pathlib import Path

import pytest

from repro.cache.cost_based import CostBasedCache
from repro.cache.history import HitHistory
from repro.cache.lru import LRUCache
from repro.cli import CONFIG_FLAGS
from repro.core.config import CACHE_COST, CACHE_LRU, EiresConfig
from repro.core.framework import EIRES
from repro.engine.engine import Engine
from repro.engine.interface import CostModel
from repro.events.io import events_from_dicts, read_csv, read_jsonl, write_csv, write_jsonl
from repro.metrics.latency import REPORT_PERCENTILES, percentiles_of
from repro.metrics.reporting import speedups
from repro.obs.registry import MetricsRegistry, ScopedRegistry
from repro.obs.slo import SloPlane
from repro.obs.trace import Tracer
from repro.remote.monitor import BreakerBoard, CircuitBreaker, LatencyMonitor
from repro.remote.transport import FixedLatency
from repro.runtime.builder import Runtime
from repro.runtime.dispatch import dispatch
from repro.runtime.session import QuerySession
from repro.serving.fleet import Fleet
from repro.shedding.policy import EventShedding
from repro.strategies.lazy import LazyBenefitModel
from repro.strategies.prefetch import PrefetchPlanner
from repro.utility.model import UtilityModel
from repro.utility.noise import NoiseModel
from repro.utility.rates import RateEstimator

from tests.helpers import make_abc_scenario, random_stream

REPO_ROOT = Path(__file__).resolve().parents[1]


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


_LEDGER_TEXT = (REPO_ROOT / "docs" / "architecture.md").read_text().split(
    "### Configuration ledger", 1
)[1].split("\n## ", 1)[0]
_FIELD_TABLE, _CONSTANT_TABLE = _LEDGER_TEXT.split("#### Constants in the component", 1)


def _ledger() -> list[tuple[str, str]]:
    """The (field, fate) rows of docs/architecture.md's configuration ledger."""
    return re.findall(r"^\| `(\w+)` \| (.+?) \|$", _FIELD_TABLE, flags=re.MULTILINE)


def _constants() -> list[tuple[str, str, str]]:
    """The (option, constant, value) rows of the ledger's constants table."""
    rows = re.findall(r"^\| `(\w+)` \| .+? \| (.+?) \| (.+?) \| .+? \|$", _CONSTANT_TABLE,
                      flags=re.MULTILINE)
    return [(option, constant.strip("`"), value) for option, constant, value in rows]


# Options below EiresConfig that only tests turned, each with every callable
# that took it: none may take it again.
_RETIRED_OPTIONS = [
    ("smoothing_window", (dispatch, Runtime.run, QuerySession.begin_run, EIRES.run,
                          Fleet.dispatch)),
    ("expiry_interval", (Engine,)),
    ("recompute_interval", (LazyBenefitModel,)),
    ("interval", (PrefetchPlanner.refresh,)),
    ("horizon_events", (UtilityModel,)),
    ("decay_interval_events", (RateEstimator,)),
    ("epoch_length", (NoiseModel,)),
    ("miss_threshold", (HitHistory,)),
    ("alpha", (LatencyMonitor,)),
    ("prior", (LatencyMonitor,)),
    ("window_size", (CircuitBreaker, BreakerBoard)),
    ("min_samples", (CircuitBreaker, BreakerBoard)),
    ("window", (SloPlane, MetricsRegistry.histogram, ScopedRegistry.histogram)),
    ("refresh_interval", (SloPlane,)),
    ("sample_size", (CostBasedCache,)),
    ("categories", (Tracer,)),
    ("timestamp_key", (read_jsonl, write_jsonl, events_from_dicts)),
    ("timestamp_column", (read_csv, write_csv)),
    ("strategy_key", (speedups,)),
    ("ewma_alpha", (EventShedding,)),
]


def _sets_field(path: Path, field: str) -> bool:
    """Whether ``path`` passes ``field`` as a keyword (``EiresConfig(field=...)``)
    or names it as a string (a sweep over field names, ``{"field": ...}``)."""
    tree = ast.parse(path.read_text())
    return any(
        (isinstance(node, ast.keyword) and node.arg == field)
        or (isinstance(node, ast.Constant) and node.value == field)
        for node in ast.walk(tree)
    )


_LEDGER = _ledger()


class TestConfigLedger:
    """Every EiresConfig field has one fate in the ledger, and it holds."""

    def test_ledger_lists_every_field_once(self):
        names = [name for name, _ in _LEDGER]
        assert len(names) == len(set(names)), names
        assert set(names) == {field.name for field in dataclasses.fields(EiresConfig)}

    def test_flag_fate_is_exactly_the_cli_flag_table(self):
        flagged = {name for name, fate in _LEDGER if fate == "flag"}
        assert flagged == set(CONFIG_FLAGS)

    @pytest.mark.parametrize("name,fate", _LEDGER, ids=[name for name, _ in _LEDGER])
    def test_fate_holds(self, name, fate):
        kind, _, detail = fate.partition(": ")
        if kind == "varied":
            path = REPO_ROOT / detail
            assert path.is_file(), f"{name}: no benchmark {detail}"
            assert _sets_field(path, name), f"{detail} never sets {name}"
        elif kind == "unit":
            hint = typing.get_type_hints(EiresConfig)[name]
            assert hint in (float, CostModel), f"{name}: {hint} is not a time quantity"
        elif kind == "pending":
            assert detail, f"{name}: pending on no item"
        else:
            assert fate == "flag", f"{name}: unknown fate {fate!r}"

    @pytest.mark.parametrize("option,owners", _RETIRED_OPTIONS,
                             ids=[option for option, _ in _RETIRED_OPTIONS])
    def test_retired_option_is_in_no_signature(self, option, owners):
        for owner in owners:
            assert option not in inspect.signature(owner).parameters, (
                f"{owner.__qualname__} takes {option} again"
            )

    def test_constant_table_matches_the_code(self):
        rows = _constants()
        assert [option for option, _, _ in rows] == [option for option, _ in _RETIRED_OPTIONS]
        named = [(constant, value) for _, constant, value in rows if constant.startswith("repro.")]
        for constant, value in named:
            module, _, name = constant.rpartition(".")
            assert getattr(importlib.import_module(module), name) == ast.literal_eval(value), (
                constant
            )


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
            return (result.match_count, result.latency_percentiles()[50])

        assert once() == once()

    def test_repr_mentions_strategy(self):
        assert "Hybrid" in repr(self._eires())

    @pytest.mark.parametrize("qs", [(99.0,), (50.0, 95.0)])
    def test_result_repr_renders_the_configured_quantiles(self, qs):
        # The rendered set is the REPORT_PERCENTILES constant; any subset of
        # it asked for explicitly must read back exactly as the repr shows it.
        assert set(qs) <= set(REPORT_PERCENTILES)
        result = self._eires().run(random_stream(80, seed=6))
        text = repr(result)
        for q, value in percentiles_of([m.latency for m in result.matches], qs).items():
            assert f"p{q:g}={value:.1f}us" in text

    def test_result_repr_renders_the_report_quantiles(self):
        result = self._eires().run(random_stream(80, seed=6))
        text = repr(result)
        assert set(result.latency_percentiles()) == set(REPORT_PERCENTILES)
        for q, value in result.latency_percentiles().items():
            assert f"p{q:g}={value:.1f}us" in text
        assert text.count("us,") == len(REPORT_PERCENTILES)
