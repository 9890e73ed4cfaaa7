"""Tests for the serving layer: fleet builder, admission, provenance.

Five promises are pinned down here, mirroring the layer's acceptance bar:

* **byte identity** — a single-tenant fleet is the same machine as a plain
  :class:`repro.RuntimeBuilder` run: identical summaries, match
  signatures, and metric snapshots, healthy and under transport faults
  alike;
* **determinism** — a rate-limited, traced fleet replays to the exact same
  results *and the exact same trace* every run, and the provenance
  replayer re-derives every ``serving`` decision;
* **eager validation** — every malformed spec (duplicate names, zero
  rates, quotas without a shedding policy) fails at build time with the
  offending field, never mid-dispatch;
* **admission mechanics** — the virtual-time token bucket refills, caps,
  and counts exactly as the trace records claim;
* **one runtime** — the config-level SLO plane is evaluated once per
  fleet, and sessions run in descending priority, then declaration order.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EiresConfig
from repro.engine.reference import reference_match_signatures
from repro.nfa.compiler import compile_query
from repro.obs.provenance import replay_trace, verify_serving_record
from repro.obs.slo import SloSpec
from repro.obs.trace import CAT_SERVING, CAT_SHED, MemorySink, Tracer
from repro.query.ast import Query
from repro.query.parser import parse_query
from repro.query.predicates import Attr, Comparison, Const, FunctionPredicate
from repro.remote.transport import FixedLatency, UniformLatency
from repro.runtime.builder import RuntimeBuilder
from repro.runtime.session import QuerySpec
from repro.serving import FleetBuilder, TenantSpec, TokenBucket
from repro.serving.ratelimit import US_PER_SECOND
from repro.strategies import make_strategy
from repro.workloads.synthetic import (
    SyntheticConfig,
    make_store,
    make_stream,
    q1_query,
    q2_query,
)

from tests.helpers import make_abc_scenario, random_stream, renamed


SYNTH = SyntheticConfig(n_events=2_000, seed=11)


def synth_latency(sc: SyntheticConfig) -> UniformLatency:
    return UniformLatency(sc.latency_low_us, sc.latency_high_us)


def plain_run(sc: SyntheticConfig, **config_kwargs):
    """The reference: q1+q2 through a plain RuntimeBuilder."""
    runtime = (
        RuntimeBuilder(make_store(sc), synth_latency(sc),
                       config=EiresConfig(**config_kwargs))
        .add_query(q1_query(sc))
        .add_query(q2_query(sc))
        .build()
    )
    return runtime.run(make_stream(sc))


def fleet_run(sc: SyntheticConfig, **config_kwargs):
    """The same q1+q2 run as a one-tenant fleet."""
    fleet = (
        FleetBuilder(make_store(sc), synth_latency(sc),
                     config=EiresConfig(**config_kwargs))
        .add_tenant(TenantSpec("solo", [q1_query(sc), q2_query(sc)]))
        .build()
    )
    return fleet.dispatch(make_stream(sc))


def build_abc_fleet(tenant_kwargs_by_name, tracer=None, **config_kwargs):
    """A fleet of renamed copies of the ABC query, one per tenant."""
    base_query, store = make_abc_scenario()
    builder = FleetBuilder(
        store, FixedLatency(20.0),
        config=EiresConfig(cache_capacity=50, **config_kwargs), tracer=tracer,
    )
    for name, kwargs in tenant_kwargs_by_name.items():
        builder.add_tenant(TenantSpec(name, renamed(base_query, f"abc_{name}"), **kwargs))
    return builder.build()


class TestByteIdentity:
    """A trivial fleet must be byte-identical to a plain runtime run."""

    def assert_identical(self, plain, fleet_result):
        tenant = fleet_result.tenant_result("solo")
        assert set(plain) == set(tenant)
        for name in plain:
            assert plain[name].match_signatures() == tenant[name].match_signatures()
            assert plain[name].summary() == tenant[name].summary()
            assert plain[name].metrics == tenant[name].metrics

    def test_healthy_run_is_identical(self):
        plain = plain_run(SYNTH)
        fleet_result = fleet_run(SYNTH)
        self.assert_identical(plain, fleet_result)

    def test_faulty_run_is_identical(self):
        plain = plain_run(SYNTH, fault_profile="drop:0.05", seed=11)
        fleet_result = fleet_run(SYNTH, fault_profile="drop:0.05", seed=11)
        self.assert_identical(plain, fleet_result)

    def test_fleet_level_accounting_matches(self):
        fleet_result = fleet_run(SYNTH)
        assert fleet_result.events_total == SYNTH.n_events
        # No rate limit: every event is admitted, none throttled.
        assert fleet_result.admitted == {"solo": SYNTH.n_events}
        assert fleet_result.throttled == {"solo": 0}
        # Amortization reads the one plane every tenant result reports.
        summary = fleet_result.tenant_result("solo")["Q1"].summary()
        demand = summary["transport.blocking_fetches"] + summary["transport.async_fetches"]
        assert fleet_result.amortization == demand / summary["transport.wire_requests"]


def traced_fleet():
    tenants = {
        "alpha": dict(rate_limit=30_000.0, burst=16.0),
        "beta": dict(rate_limit=30_000.0, burst=16.0),
        "gamma": {},
        "delta": {},
    }
    sink = MemorySink()
    fleet = build_abc_fleet(tenants, tracer=Tracer(sink, track="F"))
    result = fleet.dispatch(random_stream(600, seed=9))
    return result, sink


class TestDeterminism:
    @pytest.fixture(scope="class")
    def replay(self):
        """One traced replay, shared: the tests below only read it."""
        return traced_fleet()

    def test_rate_limited_traced_replay_is_deterministic(self, replay):
        first, first_sink = replay
        second, second_sink = traced_fleet()
        assert first.summary() == second.summary()
        assert first_sink.records == second_sink.records
        for tenant in first.results:
            ours, theirs = first.results[tenant], second.results[tenant]
            for name in ours:
                assert ours[name].match_signatures() == theirs[name].match_signatures()

    def test_serving_records_replay_clean(self, replay):
        _, sink = replay
        serving = sink.by_category(CAT_SERVING)
        names = {record["name"] for record in serving}
        assert names == {"admit", "throttle"}
        replayed = replay_trace(sink.records)
        assert replayed["problems"] == []
        assert replayed["checked_serving"] == len(serving) > 0

    def test_throttling_shows_up_everywhere(self, replay):
        result, sink = replay
        throttles = [r for r in sink.by_category(CAT_SERVING) if r["name"] == "throttle"]
        assert throttles, "burst=16 over 600 events must throttle"
        throttled_tenants = {record["tenant"] for record in throttles}
        assert throttled_tenants <= {"alpha", "beta"}
        for tenant in ("alpha", "beta"):
            assert result.throttled[tenant] > 0
            assert result.admitted[tenant] + result.throttled[tenant] == 600
        for tenant in ("gamma", "delta"):
            assert result.throttled[tenant] == 0
            assert result.admitted[tenant] == 600

    def test_tracing_does_not_change_results(self):
        tenants = {"alpha": dict(rate_limit=30_000.0, burst=16.0), "beta": {}}
        stream_seed = 9

        def run(tracer):
            fleet = build_abc_fleet(tenants, tracer=tracer)
            return fleet.dispatch(random_stream(400, seed=stream_seed))

        plain = run(None)
        traced = run(Tracer(MemorySink(), track="F"))
        assert plain.summary() == traced.summary()
        for tenant in plain.results:
            for name in plain.results[tenant]:
                assert (
                    plain.results[tenant][name].match_signatures()
                    == traced.results[tenant][name].match_signatures()
                )


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


FOUR_TENANTS = ("alpha", "beta", "gamma", "delta")

# Four equal-priority tenants, two of them rate-limited, over
# random_stream(300, seed=9).  Per query: matches, p50, p95, digest of the
# full summary, digest of the sorted match signatures.  Re-pinned when
# equivalent tenants began to share one evaluation and admission moved to
# pickup: one row per equivalence class — the two throttled tenants share a
# session, and so do the two unlimited ones.  The plane's counters are read
# from a tenant's summary: every session reports the one plane.  The summary
# digests were re-pinned again when the fetch.* copies of the transport's
# retries, failures and breaker opens left the summary (every other value,
# with those three mapped to their transport.* columns, is unchanged).
GOLDEN_FLEET = {"admitted": 810, "throttled": 390}
GOLDEN_PLANE = {"transport.wire_requests": 10, "cache.hits": 1865}
GOLDEN_QUERIES = {
    "abc_alpha": (312, 3.81, 47.84, "00d5e25f2a2bbed1", "9f21474ca5b33754"),
    "abc_beta": (312, 3.81, 47.84, "00d5e25f2a2bbed1", "9f21474ca5b33754"),
    "abc_gamma": (8663, 7.61, 65.02, "95eb8503c910a7f2", "3ee583b1768c6aef"),
    "abc_delta": (8663, 7.61, 65.02, "95eb8503c910a7f2", "3ee583b1768c6aef"),
}


class TestOneRuntime:
    """One runtime: one SLO plane, one session order for the whole fleet."""

    @pytest.mark.parametrize("n_tenants", [2, 4])
    def test_config_slo_is_evaluated_once_per_fleet(self, n_tenants):
        def slo_metrics(tenants):
            # The tenants share one evaluation, which replays the 400
            # events in ~4 ms of virtual time: sample every millisecond.
            fleet = build_abc_fleet(
                {name: {} for name in FOUR_TENANTS[:tenants]},
                slo_latency_bound=50.0, series_interval=1_000.0,
            )
            result = fleet.dispatch(random_stream(400, seed=9))
            metrics = result.tenant_result("alpha")["abc_alpha"].metrics
            return {k: v for k, v in metrics.items() if k.startswith("slo.")}

        one = slo_metrics(1)
        assert one["slo.evaluations"] > 1 and one["slo.breaches"] > 0
        assert {"slo.latency_burn", "slo.recall_burn", "slo.fetch_burn"} <= set(one)
        # The plane observes each subscriber's copy of every match, so only
        # its latency histogram grows with the tenant count.
        many = slo_metrics(n_tenants)
        histogram = many.pop("slo.match_latency_us")
        assert histogram["count"] == n_tenants * one.pop("slo.match_latency_us")["count"]
        assert many == one

    @pytest.mark.parametrize("offset,order", [
        (1, "round_robin"), (2, "round_robin"), (4, "round_robin"), (3, "hash"),
    ])
    def test_priority_order_holds_fleet_wide(self, offset, order):
        # Declare the tenants rotated by `offset`, or shuffled by a digest
        # seeded with it: the high-priority tenant leads wherever it sits.
        names = ["alpha", "beta", "gamma", "delta"]
        if order == "round_robin":
            names = names[offset % 4:] + names[:offset % 4]
        else:
            names.sort(key=lambda name: digest((offset, name)))
        fleet = build_abc_fleet(
            {name: dict(priority=2.0) if name == "delta" else {} for name in names},
        )
        result = fleet.dispatch(random_stream(300, seed=9))
        # Identical queries on one clock: whoever is dispatched first
        # detects every match first, so it has the lowest median latency.
        p50 = {
            tenant: runs[f"abc_{tenant}"].latency_percentiles()[50]
            for tenant, runs in result.results.items()
        }
        assert min(p50, key=p50.get) == "delta"
        sessions = fleet.runtime.sessions
        assert sessions[0].names == ("abc_delta",)
        # The rest follow in declaration order.
        assert [name for session in sessions[1:] for name in session.names] == [
            f"abc_{name}" for name in names if name != "delta"
        ]

    def test_equal_priority_sessions_run_in_declaration_order(self):
        fleet = build_abc_fleet({
            "gamma": dict(rate_limit=20_000.0, burst=8.0),
            "alpha": dict(strategy="LzEval"),
            "delta": {},
            "beta": dict(rate_limit=30_000.0, burst=16.0),
        })
        assert [session.names for session in fleet.runtime.sessions] == [
            ("abc_gamma",), ("abc_alpha",), ("abc_delta",), ("abc_beta",),
        ]

    def test_equal_priority_fleet_matches_pre_change_golden(self):
        tenants = {
            "alpha": dict(rate_limit=30_000.0, burst=16.0),
            "beta": dict(rate_limit=30_000.0, burst=16.0),
            "gamma": {},
            "delta": {},
        }
        fleet = build_abc_fleet(tenants)
        result = fleet.dispatch(random_stream(300, seed=9))
        summary = result.summary()
        assert {key: summary[key] for key in GOLDEN_FLEET} == GOLDEN_FLEET
        plane = result.tenant_result("gamma")["abc_gamma"].summary()
        assert {key: plane[key] for key in GOLDEN_PLANE} == GOLDEN_PLANE
        got = {}
        for runs in result.results.values():
            for name, run in runs.items():
                row = run.summary()
                got[name] = (
                    row["matches"], row["p50"], row["p95"],
                    digest(sorted(row.items())),
                    digest(sorted(run.match_signatures())),
                )
        assert got == GOLDEN_QUERIES


SHARE_SC = SyntheticConfig(n_events=1_500, seed=42, id_domain=20, window_events=400)


def q1_tenant_fleet(queries, config, sc=SHARE_SC):
    """One tenant per query, over the synthetic Q1 inputs."""
    builder = FleetBuilder(make_store(sc), synth_latency(sc), config=config)
    for index, query in enumerate(queries):
        builder.add_tenant(TenantSpec(f"tenant{index}", query))
    return builder.build()


def match_facts(run):
    return [
        (match.signature(), match.detected_at, match.last_event_t, match.fetch_wait)
        for match in run.matches
    ]


ADMISSIONS = ({}, dict(rate_limit=30_000.0, burst=16.0), dict(rate_limit=20_000.0, burst=8.0))


class TestSharing:
    """Tenants running equivalent queries share one evaluation.

    The oracle: N tenants of query Q at priority p are, per tenant, the
    plain run of Q at priority N*p — bit for bit, in every match's
    identity and timing.
    """

    # At capacity 100 the cache evicts, so the session's Eq. 3 weight (the
    # summed priority) decides what it keeps.
    @pytest.mark.parametrize("capacity", [10_000, 100])
    @pytest.mark.parametrize("parse", ["renamed", "separately_parsed"])
    def test_shared_tenants_equal_the_isolated_run_at_summed_priority(
        self, parse, capacity
    ):
        config = EiresConfig(cache_capacity=capacity)
        isolated = (
            RuntimeBuilder(make_store(SHARE_SC), synth_latency(SHARE_SC), config=config)
            .add_query(q1_query(SHARE_SC), priority=4.0)
            .build()
            .run(make_stream(SHARE_SC))["Q1"]
        )
        base = q1_query(SHARE_SC)
        queries = [
            renamed(base if parse == "renamed" else q1_query(SHARE_SC), f"Q1_t{index}")
            for index in range(4)
        ]
        fleet = q1_tenant_fleet(queries, config)
        stream = make_stream(SHARE_SC)
        result = fleet.dispatch(stream)

        (session,) = fleet.runtime.sessions
        assert session.engine.stats.events_processed == len(stream)
        assert result.summary()["sessions"] == 1
        expected = {k: v for k, v in isolated.summary().items() if k != "throughput_scope"}
        for index, query in enumerate(queries):
            tenant = f"tenant{index}"
            run = result.tenant_result(tenant)[query.name]
            assert run.summary() == {**expected, "throughput_scope": "shared"}
            assert match_facts(run) == match_facts(isolated)
            scope = f"tenant.{tenant}.query.{query.name}."
            assert any(name.startswith(scope) for name in run.metrics)

    @pytest.mark.parametrize("differ", [
        "priority", "strategy", "admission", "run_budget", "const", "const_type",
        "eval_cost", "window", "function", "instance",
    ])
    def test_one_difference_keeps_two_sessions(self, differ):
        def abc(name, window="2000", extra=None):
            query = parse_query(
                f"SEQ(A a, B b, C c) WHERE SAME[id] AND b.v IN REMOTE[a.v] "
                f"WITHIN {window}",
                name=name,
            )
            extra = () if extra is None else (extra,)
            return Query(query.pattern, (*query.conditions, *extra), query.window,
                         name=name)

        def bounded(name, bound, cost=0.02):
            return abc(name, extra=Comparison("<=", Attr("a", "v"), Const(bound),
                                              eval_cost=cost))

        def checked(name, fn):
            return abc(name, extra=FunctionPredicate(fn, [Attr("b", "v")], name="check"))

        first, second = {}, {}
        a, b = abc("a"), abc("b")
        if differ == "priority":
            second["priority"] = 2.0
        elif differ == "strategy":
            second["strategy"] = "LzEval"
        elif differ == "admission":
            second["admission"] = (30_000.0, 16.0)
        elif differ == "run_budget":
            second["run_budget"] = 5
        elif differ == "const":
            a, b = bounded("a", 5), bounded("b", 6)
        elif differ == "const_type":
            a, b = bounded("a", 5), bounded("b", 5.0)
        elif differ == "eval_cost":
            a, b = bounded("a", 5), bounded("b", 5, cost=0.5)
        elif differ == "window":
            b = abc("b", window="3000")
        elif differ == "function":
            a, b = checked("a", lambda v: v > 2), checked("b", lambda v: v > 2)
        elif differ == "instance":
            second["strategy"] = make_strategy("Hybrid")
        _, store = make_abc_scenario()

        def sessions(a, first, b, second):
            runtime = (
                RuntimeBuilder(store, FixedLatency(20.0))
                .add_spec(QuerySpec(a, **first))
                .add_spec(QuerySpec(b, **second))
                .build()
            )
            return len(runtime.sessions)

        assert sessions(a, first, b, second) == 2
        if differ != "instance":  # the control: a renamed copy shares
            assert sessions(a, first, renamed(a, "a2"), first) == 1

    @given(
        picks=st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_a_tenant_matches_exactly_the_events_it_was_admitted(self, picks, seed):
        """A throttled tenant never sees a match built from a refused event."""
        sink = MemorySink()
        tenants = {f"t{index}": ADMISSIONS[pick] for index, pick in enumerate(picks)}
        fleet = build_abc_fleet(tenants, tracer=Tracer(sink, track="F"))
        stream = random_stream(120, seed=seed)
        result = fleet.dispatch(stream)
        assert len(fleet.runtime.sessions) == len(set(picks))

        admitted: dict[str, set] = {name: set() for name in tenants}
        for record in sink.by_category(CAT_SERVING):
            if record["name"] == "admit":
                admitted[record["tenant"]].add(record["seq_no"])
        query, store = make_abc_scenario()
        automaton = compile_query(query)
        for name, admission in tenants.items():
            events = [
                event for event in stream
                if not admission or event.seq in admitted[name]
            ]
            (run,) = result.tenant_result(name).values()
            assert run.match_signatures() == reference_match_signatures(
                automaton, events, store, "greedy"
            )
        assert replay_trace(sink.records)["problems"] == []

    def test_shed_records_name_every_subscriber(self):
        sink = MemorySink()
        fleet = build_abc_fleet(
            {"alpha": {}, "beta": {}}, tracer=Tracer(sink, track="F"),
            shed_policy="events", latency_bound=20.0,
        )
        fleet.dispatch(random_stream(300, seed=9))
        assert len(fleet.runtime.sessions) == 1
        shed = Counter(record["query"] for record in sink.by_category(CAT_SHED))
        assert shed["abc_alpha"] == shed["abc_beta"] > 0
        assert replay_trace(sink.records)["problems"] == []


class TestTenantScoping:
    def test_multi_tenant_metrics_are_tenant_scoped(self):
        fleet = build_abc_fleet({"alpha": {}, "beta": {}})
        result = fleet.dispatch(random_stream(300, seed=5))
        run_result = result.tenant_result("alpha")["abc_alpha"]
        names = set(run_result.metrics)
        assert any(n.startswith("tenant.alpha.query.abc_alpha.") for n in names)
        assert any(n.startswith("tenant.beta.query.abc_beta.") for n in names)

    def test_tenant_slo_lands_on_scoped_gauges(self):
        fleet = build_abc_fleet({
            "alpha": dict(slo=SloSpec(latency_bound=50_000.0)),
            "beta": {},
        })
        result = fleet.dispatch(random_stream(300, seed=5))
        names = set(result.tenant_result("alpha")["abc_alpha"].metrics)
        assert any(n.startswith("tenant.alpha.slo.") for n in names)
        assert not any(n.startswith("tenant.beta.slo.") for n in names)

    def test_tenant_result_rejects_unknown_tenant(self):
        fleet = build_abc_fleet({"alpha": {}})
        result = fleet.dispatch(random_stream(50, seed=5))
        with pytest.raises(KeyError, match="nobody"):
            result.tenant_result("nobody")


class TestBuildValidation:
    def test_no_tenants(self):
        _, store = make_abc_scenario()
        with pytest.raises(ValueError, match="at least one tenant"):
            FleetBuilder(store, FixedLatency(20.0)).build()

    def test_duplicate_tenant_names(self):
        query, store = make_abc_scenario()
        builder = (
            FleetBuilder(store, FixedLatency(20.0))
            .add_tenant(TenantSpec("alpha", query))
            .add_tenant(TenantSpec("alpha", query))
        )
        with pytest.raises(ValueError, match="tenant names must be unique"):
            builder.build()

    def test_duplicate_query_names_across_tenants(self):
        query, store = make_abc_scenario()
        builder = (
            FleetBuilder(store, FixedLatency(20.0))
            .add_tenant(TenantSpec("alpha", query))
            .add_tenant(TenantSpec("beta", query))
        )
        with pytest.raises(ValueError, match="query names must be unique"):
            builder.build()

    def test_run_budget_requires_a_shedding_policy(self):
        with pytest.raises(ValueError, match="shedding policy"):
            build_abc_fleet({"alpha": dict(run_budget=10)})

    def test_run_budget_rides_the_shedding_plane(self):
        fleet = build_abc_fleet(
            {"alpha": dict(run_budget=5), "beta": {}},
            shed_policy="runs", run_budget=1_000,
        )
        result = fleet.dispatch(random_stream(300, seed=5))
        assert result.tenant_result("alpha")["abc_alpha"].match_count >= 0


class TestTenantSpecValidation:
    def query(self):
        query, _ = make_abc_scenario()
        return query

    def test_name_must_be_nonempty(self):
        with pytest.raises(ValueError, match="non-empty string"):
            TenantSpec("", self.query())

    def test_needs_at_least_one_query(self):
        with pytest.raises(ValueError, match="declares no queries"):
            TenantSpec("alpha", [])

    def test_rate_limit_must_be_positive(self):
        for bad in (0.0, -5.0):
            with pytest.raises(ValueError, match="rate limit must be positive"):
                TenantSpec("alpha", self.query(), rate_limit=bad)

    def test_burst_requires_a_rate_limit(self):
        with pytest.raises(ValueError, match="burst without a rate limit"):
            TenantSpec("alpha", self.query(), burst=4.0)

    def test_burst_must_hold_a_whole_token(self):
        with pytest.raises(ValueError, match="at least 1.0"):
            TenantSpec("alpha", self.query(), rate_limit=10.0, burst=0.5)

    def test_burst_defaults_to_rate(self):
        assert TenantSpec("a", self.query(), rate_limit=500.0).burst == 500.0
        assert TenantSpec("a", self.query(), rate_limit=0.25).burst == 1.0

    def test_run_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="run budget must be positive"):
            TenantSpec("alpha", self.query(), run_budget=0)

    def test_priority_must_be_positive(self):
        with pytest.raises(ValueError, match="priority must be positive"):
            TenantSpec("alpha", self.query(), priority=0.0)


class TestTokenBucket:
    def test_starts_full_and_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=5.0)
        assert bucket.tokens == 5.0
        bucket.refill(10 * US_PER_SECOND)
        assert bucket.tokens == 5.0

    def test_drains_then_refills_with_virtual_time(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)  # 1 token per virtual second
        assert bucket.admit(0.0) and bucket.admit(0.0)
        assert not bucket.admit(0.0)
        # Half a second later: half a token — still short of one.
        assert not bucket.admit(0.5 * US_PER_SECOND)
        assert bucket.admit(1.5 * US_PER_SECOND)
        assert bucket.admitted == 3 and bucket.throttled == 2

    def test_decide_reports_post_refill_level(self):
        bucket = TokenBucket(rate=1.0, burst=4.0)
        admitted, tokens = bucket.decide(0.0)
        assert admitted and tokens == 4.0
        assert bucket.tokens == 3.0

    def test_validation(self):
        with pytest.raises(ValueError, match="rate must be positive"):
            TokenBucket(rate=0.0, burst=4.0)
        with pytest.raises(ValueError, match="at least 1.0"):
            TokenBucket(rate=10.0, burst=0.25)


class TestServingProvenance:
    """verify_serving_record catches tampered records of every kind."""

    def admit(self, **overrides):
        record = {
            "cat": "serving", "name": "admit", "seq": 2, "tenant": "alpha",
            "seq_no": 7, "tokens": 3.5, "rate": 100.0, "burst": 8.0,
        }
        record.update(overrides)
        return record

    def test_clean_records_pass(self):
        assert verify_serving_record(self.admit()) == []

    def test_admission_threshold_is_replayed(self):
        problems = verify_serving_record(self.admit(tokens=0.4))
        assert problems and "imply 'throttle'" in problems[0]
        assert verify_serving_record(
            self.admit(name="throttle", tokens=0.4)
        ) == []

    def test_token_level_outside_burst_is_caught(self):
        problems = verify_serving_record(self.admit(tokens=99.0))
        assert any("outside" in problem for problem in problems)

    def test_missing_fields_are_caught(self):
        record = self.admit()
        del record["burst"]
        assert "missing fields" in verify_serving_record(record)[0]

    def test_unknown_record_name_is_caught(self):
        problems = verify_serving_record({"cat": "serving", "name": "mystery"})
        assert problems and "unknown record name" in problems[0]
        problems = verify_serving_record({"cat": "serving", "name": "route"})
        assert problems and "unknown record name" in problems[0]


class TestAmortization:
    def test_overlapping_tenants_share_the_wire(self):
        """Four tenants over the same remote keys beat four isolated runs."""
        base_query, _ = make_abc_scenario()
        stream_events = 500
        isolated_wire = 0
        for index in range(4):
            _, store = make_abc_scenario()
            result = (
                RuntimeBuilder(store, FixedLatency(20.0),
                               config=EiresConfig(cache_capacity=50))
                .add_query(base_query)
                .build()
                .run(random_stream(stream_events, seed=21))[base_query.name]
            )
            isolated_wire += result.summary()["transport.wire_requests"]

        fleet = build_abc_fleet({f"t{i}": {} for i in range(4)})
        fleet_result = fleet.dispatch(random_stream(stream_events, seed=21))
        (shared,) = fleet_result.tenant_result("t0").values()
        assert shared.summary()["transport.wire_requests"] < isolated_wire
        assert fleet_result.amortization >= 1.0
        # Sharing must not change what each tenant detects.
        match_counts = {
            name: result.match_count
            for tenant in fleet_result.results.values()
            for name, result in tenant.items()
        }
        assert len(set(match_counts.values())) == 1

    def test_summary_carries_fleet_level_keys(self):
        fleet = build_abc_fleet({"alpha": {}, "beta": {}})
        summary = fleet.dispatch(random_stream(200, seed=5)).summary()
        # The fleet's own numbers only: the plane's counters live on each
        # tenant's RunResult.
        assert set(summary) == {
            "n_tenants", "sessions", "events", "admitted", "throttled", "amortization",
        }
