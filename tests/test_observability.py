"""Tests for the observability layer: trace bus, registry, exporters, provenance.

The heavyweight guarantees live here too:

* every gated Eq. 7 / Eq. 8 decision record carries the numeric inputs that
  reproduce the decision, verified by replaying a real traced run;
* tracing is inert — enabling it changes no summary, match set, or RNG
  outcome, on healthy and faulted runs alike (the determinism regression).
"""

import json
import sys

import pytest

from repro.bench.harness import run_strategy
from repro.core.config import EiresConfig
from repro.core.framework import EIRES
from repro.engine.interface import ENGINE_COUNTER_KEYS
from repro.metrics.reporting import FAULT_COLUMNS
from repro.obs.export import chrome_trace, write_chrome_trace, write_jsonl
from repro.obs.provenance import (
    EQ7_FIELDS,
    EQ8_FIELDS,
    replay_trace,
    verify_eq7_record,
    verify_eq8_record,
)
from repro.obs.registry import CounterGroup, MetricsRegistry
from repro.obs.trace import (
    CATEGORIES,
    NULL_TRACER,
    JsonlSink,
    MemorySink,
    Tracer,
)
from repro.obs.validate import validate_chrome_trace
from repro.remote.transport import (
    TRANSPORT_COUNTER_KEYS,
    TRANSPORT_FAULT_COUNTER_KEYS,
    FixedLatency,
)
from repro.runtime.builder import RuntimeBuilder
from repro.serving import FleetBuilder, TenantSpec
from repro.strategies.base import (
    DEGRADATION_COUNTER_KEYS,
    STRATEGY_COUNTER_KEYS,
    StrategyStats,
)
from repro.workloads.synthetic import SyntheticConfig, q1_workload

from tests.helpers import make_abc_scenario, random_stream, renamed


def small_q1():
    return q1_workload(SyntheticConfig(n_events=1500, id_domain=20, window_events=400))


def traced_run(strategy="Hybrid", config=None):
    sink = MemorySink()
    result = run_strategy(
        small_q1(),
        strategy,
        config if config is not None else EiresConfig(),
        tracer=Tracer(sink, track=strategy),
    )
    return result, sink


class TestTracer:
    def test_null_tracer_is_disabled_and_silent(self):
        assert not NULL_TRACER.enabled
        NULL_TRACER.emit("fetch", "issue", 1.0, key=["s", 1])  # must not raise

    def test_records_carry_schema_fields(self):
        sink = MemorySink()
        tracer = Tracer(sink, track="T")
        tracer.emit("fetch", "issue", 10.0, key=["v", 3])
        tracer.emit("cache", "hit", 11.0)
        assert [r["seq"] for r in sink.records] == [0, 1]
        assert sink.records[0] == {
            "seq": 0, "t": 10.0, "cat": "fetch", "name": "issue",
            "track": "T", "key": ["v", 3],
        }
        assert sink.by_category("cache") == [sink.records[1]]

    def test_category_filter(self):
        sink = MemorySink()
        tracer = Tracer(sink, categories=("match",))
        tracer.emit("fetch", "issue", 1.0)
        tracer.emit("match", "emit", 2.0)
        assert [r["cat"] for r in sink.records] == ["match"]

    def test_jsonl_sink_round_trips(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        tracer = Tracer(sink, track="T")
        tracer.emit("run", "create", 5.0, run_id=7)
        tracer.close()
        lines = [json.loads(line) for line in open(path)]
        assert lines == [{"seq": 0, "t": 5.0, "cat": "run", "name": "create",
                          "track": "T", "run_id": 7}]


class TestMetricsRegistry:
    def test_counters_are_idempotent_cells(self):
        registry = MetricsRegistry()
        a = registry.gauge("x.hits")
        b = registry.gauge("x.hits")
        assert a is b
        a.set(3)
        assert registry.snapshot()["x.hits"] == 3
        assert registry.histogram("x.lat") is registry.histogram("x.lat")

    def test_type_collision_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("dual")
        with pytest.raises(ValueError):
            registry.histogram("dual")
        CounterGroup("x", ("n",), registry)
        with pytest.raises(ValueError):
            registry.gauge("x.n")

    def test_histogram_windowing_drops_old_samples(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", window=100.0)
        hist.observe(10.0, t=0.0)
        hist.observe(20.0, t=50.0)
        hist.observe(30.0, t=200.0)  # evicts both earlier samples
        assert hist.windowed_values() == [30.0]
        assert hist.count == 3  # totals still cover the whole run
        assert hist.total == 60.0

    def test_histogram_empty_percentiles_are_zero(self):
        hist = MetricsRegistry().histogram("empty")
        assert hist.percentiles((50, 95)) == {50: 0.0, 95: 0.0}
        assert hist.snapshot()["count"] == 0

    def test_snapshot_is_sorted_and_flat(self):
        registry = MetricsRegistry()
        CounterGroup("b", ("n",), registry).n += 1
        registry.gauge("a.g").set(1.5)
        snap = registry.snapshot()
        assert list(snap) == ["a.g", "b.n"]


class TestCounterGroup:
    def test_bumping_a_counter_enters_no_python_frame(self):
        workload = small_q1()
        eires = EIRES(
            workload.query, workload.store, workload.latency_model,
            config=EiresConfig(shed_policy="runs", run_budget=50),
        )
        cache, strategy, transport = eires.cache.stats, eires.strategy.stats, eires.transport.stats
        shed, engine = eires.runtime.sessions[0].shedder.stats, eires.engine.stats
        calls = []
        sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame.f_code))
        try:
            cache.hits += 1
            strategy.retries += 1
            strategy.total_stall_time += 1.5
            transport.wire_requests += 1
            shed.runs_shed += 1
            engine.guard_evaluations += 1
        finally:
            sys.setprofile(None)
        assert calls == []
        snapshot = eires.metrics.snapshot()
        assert snapshot["cache.hits"] == snapshot["fetch.retries"] == 1
        assert snapshot["transport.wire_requests"] == snapshot["shed.runs_shed"] == 1

    def test_attach_under_a_scope_and_name_collisions(self):
        registry = MetricsRegistry()
        group = CounterGroup("fetch", STRATEGY_COUNTER_KEYS, floats=("total_stall_time",))
        registry.scoped("tenant.a").attach(group)
        group.retries += 3
        snapshot = registry.snapshot()
        assert snapshot["tenant.a.fetch.retries"] == 3
        assert registry.scoped("tenant.a").names() == [
            f"tenant.a.fetch.{key}" for key in sorted(STRATEGY_COUNTER_KEYS)
        ]
        stall = snapshot["tenant.a.fetch.total_stall_time"]
        stalls = snapshot["tenant.a.fetch.blocking_stalls"]
        assert (stall, type(stall)) == (0.0, float) and (stalls, type(stalls)) == (0, int)
        with pytest.raises(ValueError, match="already registered"):
            CounterGroup("fetch", STRATEGY_COUNTER_KEYS, registry.scoped("tenant.a"))
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("tenant.a.fetch.retries")
        CounterGroup("fetch", STRATEGY_COUNTER_KEYS, registry.scoped("tenant.b"))  # free name


class TestStatsFacades:
    def test_strategy_counters_are_registry_views(self):
        registry = MetricsRegistry()
        stats = StrategyStats(registry)
        stats.retries += 2
        stats.total_stall_time += 1.5
        assert registry.snapshot()["fetch.retries"] == 2
        assert registry.snapshot()["fetch.total_stall_time"] == 1.5
        assert stats.retries == 2

    def test_strategy_counters_as_dict_order_and_types(self):
        data = StrategyStats().as_dict()
        assert list(data) == list(STRATEGY_COUNTER_KEYS)
        assert data["total_stall_time"] == 0.0
        assert isinstance(data["total_stall_time"], float)
        assert data["blocking_stalls"] == 0

    def test_degradation_keys_are_a_subset(self):
        assert set(DEGRADATION_COUNTER_KEYS) <= set(STRATEGY_COUNTER_KEYS)

    def test_fault_columns_derive_from_counter_tuples(self):
        assert FAULT_COLUMNS == (
            "strategy",
            *(f"fetch.{key}" for key in DEGRADATION_COUNTER_KEYS),
            *(f"transport.{key}" for key in TRANSPORT_FAULT_COUNTER_KEYS),
        )
        assert set(TRANSPORT_FAULT_COUNTER_KEYS) <= set(TRANSPORT_COUNTER_KEYS)

    @pytest.mark.parametrize("layout", ["single", "two_queries", "fleet"])
    def test_engine_counters_live_in_the_snapshot_under_every_scope(self, layout):
        """The snapshot is the one counter record: each subscriber finds its
        session's engine.* (and fetch.*) counters under its own scope, and
        summary() reports exactly those numbers."""
        query, store = make_abc_scenario()
        config = EiresConfig(cache_capacity=50)
        if layout == "single":
            runtime = RuntimeBuilder(store, FixedLatency(20.0), config=config).add_query(
                query
            ).build()
            results, scopes = runtime.run(random_stream(300, seed=4)), {query.name: ""}
        elif layout == "two_queries":
            runtime = (
                RuntimeBuilder(store, FixedLatency(20.0), config=config)
                .add_query(renamed(query, "hy"), strategy="Hybrid")
                .add_query(renamed(query, "bl"), strategy="BL1")
                .build()
            )
            results = runtime.run(random_stream(300, seed=4))
            scopes = {name: f"query.{name}." for name in ("hy", "bl")}
        else:
            # Tenants a and b run the same query at the same priority: one session.
            builder = FleetBuilder(store, FixedLatency(20.0), config=config)
            for tenant, priority in (("a", 1.0), ("b", 1.0), ("c", 2.0)):
                builder.add_tenant(TenantSpec(tenant, renamed(query, f"q_{tenant}"),
                                              priority=priority))
            fleet = builder.build()
            assert len(fleet.runtime.sessions) == 2
            runtime = fleet.runtime
            results = {
                name: result
                for runs in fleet.dispatch(random_stream(300, seed=4)).results.values()
                for name, result in runs.items()
            }
            scopes = {f"q_{t}": f"tenant.{t}.query.q_{t}." for t in "abc"}
        assert set(results) == set(scopes)
        for name, result in results.items():
            scope, summary = scopes[name], result.summary()
            engine = runtime.session(name).engine.stats
            assert result.scope == scope
            assert engine.events_processed > 0
            for key in ENGINE_COUNTER_KEYS:
                assert result.metrics[f"{scope}engine.{key}"] == summary[f"engine.{key}"]
                assert summary[f"engine.{key}"] == getattr(engine, key)
            for key in STRATEGY_COUNTER_KEYS:
                assert result.metrics[f"{scope}fetch.{key}"] == summary[f"fetch.{key}"]
            for key in TRANSPORT_COUNTER_KEYS:
                assert result.metrics[f"transport.{key}"] == summary[f"transport.{key}"]


class TestTracedRun:
    def test_all_lifecycle_categories_emitted(self):
        _, sink = traced_run()
        seen = {record["cat"] for record in sink.records}
        assert seen == set(CATEGORIES)

    def test_records_are_sequenced_and_tracked(self):
        _, sink = traced_run()
        assert [r["seq"] for r in sink.records] == list(range(len(sink.records)))
        assert {r["track"] for r in sink.records} == {"Hybrid"}

    def test_traces_are_deterministic(self):
        _, first = traced_run()
        _, second = traced_run()
        assert first.records == second.records


class TestDecisionProvenance:
    """Every Eq. 7 / Eq. 8 decision must be reproducible from its record."""

    GATING_CONFIG = dict(cache_capacity=24)  # force the Eq. 7 utility gate

    def test_gated_eq7_records_carry_all_inputs(self):
        _, sink = traced_run(config=EiresConfig(**self.GATING_CONFIG))
        gated = [r for r in sink.by_category("prefetch") if r.get("gated")]
        assert len(gated) > 100
        assert {r["decision"] for r in gated} == {"issued", "suppressed"}
        for record in gated:
            assert all(field in record for field in EQ7_FIELDS)

    def test_eq8_records_carry_all_inputs(self):
        _, sink = traced_run("LzEval")
        gates = [r for r in sink.by_category("obligation") if r["name"] == "eq8_gate"]
        assert len(gates) > 100
        for record in gates:
            assert all(field in record for field in EQ8_FIELDS)

    @pytest.mark.parametrize("strategy", ["PFetch", "LzEval", "Hybrid"])
    def test_replay_confirms_every_decision(self, strategy):
        _, sink = traced_run(strategy, config=EiresConfig(**self.GATING_CONFIG))
        replay = replay_trace(sink.records)
        assert replay["problems"] == []
        if strategy in ("PFetch", "Hybrid"):
            assert replay["checked_eq7"] > 0
        if strategy in ("LzEval", "Hybrid"):
            assert replay["checked_eq8"] > 0

    def test_tampered_eq7_decision_is_caught(self):
        record = {
            "seq": 1, "gated": True, "decision": "issued",
            "uu": 2.0, "fu": 1.0, "omega": 0.5,
            "ell_estimate": 4.0, "candidate_utility": 0.5 * 2.0 + 0.5 * 1.0 + 0.5 * 4.0,
            "cache_min": 10.0,  # inputs imply "suppressed"
        }
        assert verify_eq7_record(record)
        record["cache_min"] = 0.0
        assert verify_eq7_record(record) == []

    def test_tampered_eq8_branch_is_caught(self):
        record = {
            "seq": 2, "gated": True, "branch": "block", "ell": 100.0,
            "succ": [3], "deltas": [
                {"state": 3, "delta_minus": 50.0, "delta_plus": 1.0, "beneficial": True},
            ],
        }
        assert verify_eq8_record(record)  # non-empty succ implies "postpone"
        record["branch"] = "postpone"
        assert verify_eq8_record(record) == []

    def test_missing_inputs_reported(self):
        assert verify_eq7_record({"gated": True, "decision": "issued"})
        assert verify_eq8_record({"branch": "postpone"})


class TestExporters:
    def test_chrome_trace_structure(self):
        trace = chrome_trace([
            {"seq": 0, "t": 1.0, "cat": "fetch", "name": "issue", "track": "S"},
            {"seq": 1, "t": 2.0, "cat": "fetch", "name": "stall", "track": "S",
             "dur": 5.0},
        ])
        events = trace["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" and e["args"]["name"] == "S" for e in metas)
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["name"] == "fetch.issue" and instant["ts"] == 1.0
        complete = next(e for e in events if e["ph"] == "X")
        assert complete["dur"] == 5.0

    def test_real_trace_validates(self, tmp_path):
        _, sink = traced_run()
        path = str(tmp_path / "run.trace.json")
        write_chrome_trace(sink.records, path)
        counts = validate_chrome_trace(path)
        assert set(counts) == set(CATEGORIES)
        assert all(count > 0 for count in counts.values())

    def test_validator_rejects_missing_category(self, tmp_path):
        path = str(tmp_path / "partial.trace.json")
        write_chrome_trace([{"seq": 0, "t": 0.0, "cat": "event", "name": "arrival"}], path)
        with pytest.raises(ValueError, match="no records for"):
            validate_chrome_trace(path)
        counts = validate_chrome_trace(path, require_categories=False)
        assert counts["event"] == 1

    def test_validator_rejects_garbage(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            handle.write("not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            validate_chrome_trace(path)

    def test_write_jsonl(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        count = write_jsonl([{"a": 1}, {"b": 2}], path)
        assert count == 2
        assert [json.loads(line) for line in open(path)] == [{"a": 1}, {"b": 2}]


class TestDeterminismRegression:
    """Tracing must not perturb results: same summary, same matches, same RNG."""

    @pytest.mark.parametrize("fault_profile", ["none", "drop:0.05"])
    @pytest.mark.parametrize("strategy", ["PFetch", "Hybrid"])
    def test_summary_and_matches_identical_with_tracing(self, strategy, fault_profile):
        config = dict(fault_profile=fault_profile, cache_capacity=24)
        plain = run_strategy(small_q1(), strategy, EiresConfig(**config))
        traced = run_strategy(
            small_q1(), strategy, EiresConfig(**config),
            tracer=Tracer(MemorySink(), track=strategy),
        )
        plain_summary = json.dumps(plain.summary(), sort_keys=True)
        traced_summary = json.dumps(traced.summary(), sort_keys=True)
        assert plain_summary == traced_summary
        assert plain.match_signatures() == traced.match_signatures()
