"""Tests for the unified runtime layer (builder, sessions, dispatch).

Single- and multi-query evaluation share one composition root
(:class:`repro.runtime.RuntimeBuilder`) and one dispatch loop
(:func:`repro.runtime.dispatch.dispatch`); these tests pin down the parity
that refactor promises: multi-query runs get the full fault-tolerance,
tracing, and metrics plumbing of single-query runs, and observability never
changes results.
"""

import importlib

import pytest

import repro
from repro.bench.harness import run_strategy
from repro.cli import main as cli_main
from repro.core.config import EiresConfig
from repro.core.framework import EIRES
from repro.engine.engine import Engine
from repro.obs.export import write_chrome_trace
from repro.obs.trace import MemorySink, Tracer
from repro.obs.validate import validate_chrome_trace
from repro.query.parser import parse_query
from repro.remote.store import RemoteStore
from repro.remote.transport import TRANSPORT_COUNTER_KEYS, FixedLatency, UniformLatency
from repro.runtime import QuerySpec, RuntimeBuilder
from repro.serving import TenantSpec
from repro.workloads import SyntheticConfig, q1_workload

from tests.helpers import random_stream


def two_queries():
    q_ab = parse_query(
        "SEQ(A a, B b) WHERE SAME[id] AND b.v IN REMOTE[a.v] WITHIN 2000",
        name="ab",
    )
    q_ac = parse_query(
        "SEQ(A a, C c) WHERE SAME[id] AND c.v IN REMOTE[a.v] WITHIN 2000",
        name="ac",
    )
    store = RemoteStore()
    store.register_source("v", lambda key: frozenset(range(5)))
    return q_ab, q_ac, store


def build_multi(config=None, tracer=None, strategies=("Hybrid", "Hybrid")):
    q_ab, q_ac, store = two_queries()
    return (
        RuntimeBuilder(
            store, FixedLatency(20.0),
            config=config if config is not None else EiresConfig(cache_capacity=50),
            tracer=tracer,
        )
        .add_spec(QuerySpec(q_ab, strategy=strategies[0]))
        .add_spec(QuerySpec(q_ac, strategy=strategies[1]))
        .build()
    )


class TestOneEngine:
    """There is one engine and no selector: the old knob is gone, not ignored."""

    def test_sessions_run_the_engine_class_itself(self):
        q_ab, q_ac, store = two_queries()
        runtime = (
            RuntimeBuilder(store, FixedLatency(20.0))
            .add_query(q_ab).add_query(q_ac).build()
        )
        assert [type(session.engine) for session in runtime.sessions] == [Engine, Engine]

    def test_stale_backend_keyword_is_a_type_error(self):
        q_ab, _, store = two_queries()
        with pytest.raises(TypeError):
            QuerySpec(q_ab, backend="tree")
        with pytest.raises(TypeError):
            TenantSpec("t", q_ab, backend="tree")
        with pytest.raises(TypeError):
            EIRES(q_ab, store, FixedLatency(20.0), backend="tree")
        with pytest.raises(TypeError):
            run_strategy(q1_workload(SyntheticConfig(n_events=50)), "BL1",
                         EiresConfig(), backend="reference")

    def test_stale_cli_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["compare", "--workload", "q1", "--engine-backend", "tree"])
        assert exit_info.value.code == 2
        assert "--engine-backend" in capsys.readouterr().err

    def test_registry_package_and_exports_are_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.backends")
        assert not {"EvalBackend", "list_backends"} & set(repro.__all__)


class TestBuilder:
    def test_builder_is_the_facade_path(self):
        # The facade exposes the Runtime the builder assembled.
        q_ab, _, store = two_queries()
        facade = EIRES(q_ab, store, FixedLatency(20.0))
        assert facade.runtime.transport is facade.transport
        assert facade.runtime.clock is facade.clock
        assert facade.runtime.metrics is facade.metrics

    def test_direct_builder_matches_facade(self):
        q_ab, _, store = two_queries()
        stream = random_stream(200, seed=3)
        config = EiresConfig(cache_capacity=50)
        direct = (
            RuntimeBuilder(store, FixedLatency(20.0), config=config)
            .add_query(q_ab, strategy="Hybrid")
            .build()
            .run(stream)["ab"]
        )
        facade = EIRES(q_ab, store, FixedLatency(20.0), config=config).run(stream)
        assert direct.match_signatures() == facade.match_signatures()
        assert direct.summary() == facade.summary()

    def test_requires_queries(self):
        _, _, store = two_queries()
        with pytest.raises(ValueError, match="at least one"):
            RuntimeBuilder(store, FixedLatency(10.0)).build()

    def test_strategy_instance_accepted(self):
        from repro.strategies import make_strategy

        q_ab, _, store = two_queries()
        strategy = make_strategy("LzEval")
        runtime = (
            RuntimeBuilder(store, FixedLatency(20.0))
            .add_query(q_ab, strategy=strategy)
            .build()
        )
        assert runtime.sessions[0].strategy is strategy

    def test_sessions_sorted_by_priority(self):
        q_ab, q_ac, store = two_queries()
        runtime = (
            RuntimeBuilder(store, FixedLatency(20.0))
            .add_query(q_ab, priority=1.0)
            .add_query(q_ac, priority=5.0)
            .build()
        )
        assert [session.name for session in runtime.sessions] == ["ac", "ab"]
        assert runtime.session("ab").priority == 1.0
        with pytest.raises(KeyError):
            runtime.session("missing")


class TestSharedUtility:
    @pytest.mark.parametrize("priority", [1.0, 2.5])
    def test_one_session_shortcut_is_the_sum_bit_for_bit(self, priority):
        q_ab, _, store = two_queries()
        runtime = (
            RuntimeBuilder(store, UniformLatency(10.0, 80.0), config=EiresConfig(cache_capacity=4))
            .add_query(q_ab, strategy="Hybrid", priority=priority)
            .build()
        )
        runtime.run(random_stream(120, seed=5))  # leaves live runs, counters and latencies behind
        omega = runtime.config.omega_cache
        values = []
        for v in range(10):
            key = ("v", v)
            expected = sum(s.priority * s.utility.value(key, omega) for s in runtime.sessions)
            shared = runtime.shared_utility(key)
            assert shared == expected and type(shared) is type(expected)
            values.append(expected)
        assert any(values)  # not vacuous: some key is worth something


class TestMultiQueryFaultParity:
    """Multi-query runs ride the same fault substrate as single-query runs."""

    def test_transport_columns_cover_all_counters(self):
        results = build_multi().run(random_stream(150, seed=3))
        for result in results.values():
            columns = {key for key in result.summary() if key.startswith("transport.")}
            assert columns == {f"transport.{key}" for key in TRANSPORT_COUNTER_KEYS}

    def test_fault_profile_degrades_gracefully(self):
        config = EiresConfig(cache_capacity=50, fault_profile="drop:0.3", seed=11)
        results = build_multi(config=config).run(random_stream(300, seed=5))
        stats = [result.summary() for result in results.values()]
        # The shared transport saw faults: retries happened (and are shared
        # across the per-query views of the same transport) ...
        assert all(s["transport.retries"] > 0 for s in stats)
        # ... and every query still completed its replay with results.
        assert sum(r.match_count for r in results.values()) > 0

    def test_retry_policy_honored(self):
        # With max_attempts=1 the transport may fail but can never retry.
        stream = random_stream(300, seed=5)
        no_retry = EiresConfig(
            cache_capacity=50, fault_profile="drop:0.3",
            retry_max_attempts=1, seed=11,
        )
        results = build_multi(config=no_retry).run(stream)
        first = next(iter(results.values()))
        assert first.summary()["transport.retries"] == 0
        assert first.summary()["transport.failed_fetches"] > 0

        retrying = EiresConfig(
            cache_capacity=50, fault_profile="drop:0.3",
            retry_max_attempts=5, seed=11,
        )
        results = build_multi(config=retrying).run(stream)
        first = next(iter(results.values()))
        assert first.summary()["transport.retries"] > 0


class TestMultiQueryTracing:
    """Multi-query runs are traceable and observability never changes results."""

    def test_traced_multi_run_produces_valid_trace(self, tmp_path):
        sink = MemorySink()
        runtime = build_multi(tracer=Tracer(sink, track="multi"))
        results = runtime.run(random_stream(250, seed=9))
        assert all(result.match_count > 0 for result in results.values())

        path = tmp_path / "multi.trace.json"
        write_chrome_trace(sink.records, str(path))
        counts = validate_chrome_trace(str(path), require_categories=False)
        for category in ("event", "fetch", "match", "cache", "run"):
            assert counts[category] > 0, f"no {category} records in multi-query trace"

    def test_match_records_name_their_query(self):
        sink = MemorySink()
        runtime = build_multi(tracer=Tracer(sink, track="multi"))
        runtime.run(random_stream(250, seed=9))
        emitted = {record["query"] for record in sink.by_category("match")}
        assert emitted == {"ab", "ac"}

    def test_results_identical_with_tracing_on_and_off(self):
        stream = random_stream(250, seed=9)
        config = EiresConfig(cache_capacity=50, fault_profile="drop:0.1", seed=7)
        plain = build_multi(config=config).run(stream)
        traced = build_multi(config=config, tracer=Tracer(MemorySink(), track="T")).run(stream)
        assert set(plain) == set(traced)
        for name in plain:
            assert plain[name].match_signatures() == traced[name].match_signatures()
            assert plain[name].latency_percentiles() == traced[name].latency_percentiles()
            assert plain[name].summary() == traced[name].summary()

    def test_metrics_snapshot_covers_every_query(self):
        results = build_multi().run(random_stream(200, seed=3))
        for result in results.values():
            assert result.metrics is not None
            names = set(result.metrics)
            # Per-session counters are namespaced on the shared registry and
            # every result carries the full shared snapshot.
            assert any(name.startswith("query.ab.fetch.") for name in names)
            assert any(name.startswith("query.ac.fetch.") for name in names)
            assert any(name.startswith("transport.") for name in names)


class TestThroughputScope:
    def test_multi_query_meter_is_shared_and_labelled(self):
        results = build_multi().run(random_stream(200, seed=3))
        meters = [result.throughput for result in results.values()]
        assert meters[0] is meters[1]
        for result in results.values():
            assert result.throughput_scope == "shared"
            assert result.summary()["throughput_scope"] == "shared"

    def test_single_query_meter_is_run_scoped(self):
        q_ab, _, store = two_queries()
        result = EIRES(q_ab, store, FixedLatency(20.0)).run(random_stream(150, seed=3))
        assert result.throughput_scope == "run"
        assert "throughput_scope" not in result.summary()


class TestSingleMultiParity:
    def test_multi_with_one_query_equals_single(self):
        # A one-spec builder runtime and EIRES are the same assembly, so
        # results must coincide exactly.
        q_ab, _, store = two_queries()
        stream = random_stream(250, seed=9)
        config = EiresConfig(cache_capacity=50)
        single = EIRES(q_ab, store, UniformLatency(10.0, 80.0), config=config).run(stream)
        multi = (
            RuntimeBuilder(store, UniformLatency(10.0, 80.0), config=config)
            .add_spec(QuerySpec(q_ab))
            .build()
            .run(stream)["ab"]
        )
        assert single.match_signatures() == multi.match_signatures()
        assert single.latency_percentiles() == multi.latency_percentiles()
        assert single.summary() == multi.summary()
