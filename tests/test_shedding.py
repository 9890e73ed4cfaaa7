"""Load-shedding plane: detector, policies, engine eviction, integration.

Five layers of coverage:

* golden regression: ``shed_policy="none"`` reproduces the pre-shedding
  seed numbers exactly on q1/q2 (all six strategies, healthy and lossy) —
  hard-coded from a build predating the plane, so the default path is
  provably byte-identical;
* unit tests for the :class:`~repro.shedding.detector.OverloadDetector`
  (bound validation, severity arithmetic, purity) and the policy registry;
* the utility functions' orderings (progress, residual life, obligation
  discount) without a live engine;
* engine-level batch eviction (:meth:`Engine.shed_lowest`) and the
  per-reason drop ledger (every created run drops exactly once);
* end-to-end overload runs on the bursty workload: determinism with
  tracing on/off, replay-verified ``shed_decision`` provenance, bounded
  latency, and end-of-stream flush consistency with open LzEval
  obligations and open batch windows while runs were shed mid-stream.
"""

from types import SimpleNamespace

import pytest

from repro.bench.harness import run_strategy
from repro.core.config import EiresConfig
from repro.core.framework import EIRES
from repro.obs.provenance import replay_trace, verify_shed_record
from repro.obs.registry import CounterGroup
from repro.obs.trace import MemorySink, Tracer
from repro.query.ast import Window
from repro.shedding import (
    EventShedding,
    LoadShedder,
    Overload,
    OverloadDetector,
    SHED_COUNTER_KEYS,
    RunShedding,
    make_shedding_policy,
    partial_match_utility,
)
from repro.workloads.bursty import BurstyConfig, bursty_workload, make_bursty_stream
from repro.workloads.synthetic import SyntheticConfig, q1_workload, q2_workload

from .helpers import make_abc_scenario, random_stream, run_eires

# ---------------------------------------------------------------------------
# Golden numbers captured from the build immediately before the shedding
# plane landed (same workloads, same seeds, default EiresConfig).  The
# ``none`` policy must reproduce every one of them exactly.
# ---------------------------------------------------------------------------

GOLDEN_KEYS = ("matches", "p50", "p95", "engine.runs_created",
               "engine.runs_expired", "fetch.total_stall_time")

GOLDEN = {
    "q1": {
        "BL1": (753, 337532.38, 526716.23, 28407, 27142, 668835.546),
        "BL2": (753, 179.82, 1008.52, 28407, 27142, 31922.238),
        "BL3": (753, 105607.43, 212778.06, 61741, 59738, 273322.063),
        "PFetch": (753, 8.33, 69.18, 28407, 27142, 408.792),
        "LzEval": (753, 56.7, 449.84, 29809, 27551, 4034.633),
        "Hybrid": (753, 8.23, 69.18, 28439, 27159, 139.453),
    },
    "q2": {
        "BL1": (517, 22564.08, 54972.16, 2193, 1910, 120481.728),
        "BL2": (517, 109.93, 908.05, 2193, 1910, 43954.592),
        "BL3": (517, 11992.62, 16968.21, 3590, 3165, 74028.067),
        "PFetch": (517, 0.48, 1.1, 2193, 1910, 763.932),
        "LzEval": (517, 0.56, 1.18, 2775, 2061, 143.77),
        "Hybrid": (517, 0.48, 1.1, 2210, 1911, 0.0),
    },
}

GOLDEN_FAULT_KEYS = ("matches", "p50", "p95", "transport.failed_fetches", "transport.retries")

GOLDEN_FAULTS = {  # q1 under fault_profile="lossy"
    "Hybrid": (753, 8.28, 46.83, 0, 33),
    "LzEval": (753, 93.93, 412.4, 0, 25),
}


def _workload(name: str):
    if name == "q1":
        return q1_workload(SyntheticConfig(n_events=2500, id_domain=20, window_events=400))
    return q2_workload(SyntheticConfig(n_events=2500, id_domain=40, window_events=400))


class TestPolicyNoneByteIdentity:
    @pytest.mark.parametrize("workload_name", ("q1", "q2"))
    @pytest.mark.parametrize(
        "strategy", ("BL1", "BL2", "BL3", "PFetch", "LzEval", "Hybrid")
    )
    def test_matches_pre_shedding_seed(self, workload_name, strategy):
        result = run_strategy(
            _workload(workload_name), strategy, EiresConfig(shed_policy="none")
        )
        summary = result.summary()
        assert tuple(summary[key] for key in GOLDEN_KEYS) == (
            GOLDEN[workload_name][strategy]
        )

    @pytest.mark.parametrize("strategy", sorted(GOLDEN_FAULTS))
    def test_faulted_runs_match_seed(self, strategy):
        result = run_strategy(
            _workload("q1"), strategy, EiresConfig(fault_profile="lossy")
        )
        summary = result.summary()
        assert tuple(summary[key] for key in GOLDEN_FAULT_KEYS) == (
            GOLDEN_FAULTS[strategy]
        )

    def test_default_summary_carries_no_shed_columns(self):
        query, store = make_abc_scenario()
        result = run_eires(query, store, random_stream(120, seed=3))
        assert not any(key.startswith("shed.") for key in result.summary())
        assert not any(key.startswith("shed.") for key in result.metrics)


class TestOverloadDetector:
    def test_requires_at_least_one_bound(self):
        with pytest.raises(ValueError, match="at least one bound"):
            OverloadDetector()

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="latency_bound"):
            OverloadDetector(latency_bound=0.0)
        with pytest.raises(ValueError, match="run_budget"):
            OverloadDetector(run_budget=0)

    def test_within_bounds_is_none(self):
        detector = OverloadDetector(latency_bound=100.0, run_budget=50)
        assert detector.assess(lag=100.0, active=50) is None
        assert detector.assess(lag=0.0, active=0) is None

    def test_latency_trip(self):
        detector = OverloadDetector(latency_bound=100.0)
        overload = detector.assess(lag=250.0, active=10)
        assert overload.latency_exceeded and not overload.budget_exceeded
        assert overload.severity == pytest.approx(2.5)

    def test_budget_trip_and_both(self):
        detector = OverloadDetector(latency_bound=100.0, run_budget=50)
        overload = detector.assess(lag=10.0, active=200)
        assert overload.budget_exceeded and not overload.latency_exceeded
        assert overload.severity == pytest.approx(4.0)
        both = detector.assess(lag=300.0, active=100)
        assert both.both and both.severity == pytest.approx(3.0)

    def test_assess_is_pure(self):
        detector = OverloadDetector(latency_bound=100.0)
        assert detector.assess(150.0, 5) == detector.assess(150.0, 5)


def _overload(severity: float = 2.0) -> Overload:
    return Overload(lag=100.0, active=10, latency_exceeded=True,
                    budget_exceeded=False, severity=severity)


class FakeShedEngine:
    """Just enough engine surface for the policy unit tests."""

    def __init__(self, active: int, utilities=()):
        self.active_runs = active
        self.clock = SimpleNamespace(now=1_000.0)
        self.stats = SimpleNamespace(events_processed=500)
        self.shed_calls = []
        self._utilities = list(utilities)

    def shed_lowest(self, count, score, strategy, reason="shed"):
        self.shed_calls.append(count)
        return count

    def extendable_runs(self, event):
        return list(self._utilities)


class TestPolicies:
    def test_registry_round_trip(self):
        assert isinstance(make_shedding_policy("events", automaton=None), EventShedding)
        assert isinstance(make_shedding_policy("runs", automaton=None), RunShedding)
        # "none" is a valid shed_policy with no policy object: the builder
        # builds no plane for it and never asks the factory.
        for name in ("none", "bogus"):
            with pytest.raises(ValueError, match="unknown shedding policy"):
                make_shedding_policy(name)

    def test_event_shedding_drops_zero_utility(self):
        automaton = SimpleNamespace(n_states=4)
        policy = EventShedding(automaton)
        engine = FakeShedEngine(active=10, utilities=[])  # extends nothing
        event = SimpleNamespace(seq=7)
        decision = policy.on_overload_event(_overload(1.5), event, engine)
        assert decision is not None and decision.action == "drop_event"
        assert decision.fields["event_seq"] == 7
        assert decision.fields["utility"] == 0.0

    def test_event_shedding_keeps_useful_events_then_adapts(self):
        automaton = SimpleNamespace(n_states=4)
        policy = EventShedding(automaton)
        useful = FakeShedEngine(active=10, utilities=[(2, 5)])  # 5 runs at depth 2
        event = SimpleNamespace(seq=1)
        # Mild overload, empty average: a useful event survives ...
        assert policy.on_overload_event(_overload(1.1), event, useful) is None
        # ... and raised the running average, so deep overload now sheds it.
        decision = policy.on_overload_event(_overload(50.0), event, useful)
        assert decision is not None
        assert decision.fields["utility"] <= decision.fields["cutoff"]

    def test_run_shedding_target_population(self):
        policy = RunShedding(None, omega=0.5, run_budget=100)
        assert policy.target_population(1_000) == 100
        halving = RunShedding(None, omega=0.5)
        assert halving.target_population(1_000) == 500

    def test_run_shedding_evicts_down_to_target(self):
        policy = RunShedding(SimpleNamespace(n_states=4), omega=0.5, run_budget=10)
        engine = FakeShedEngine(active=25)
        decision = policy.on_overload_post(_overload(), engine, strategy=None)
        assert engine.shed_calls == [15]
        assert decision.fields == {"victims": 15, "target": 10, "before": 25}

    def test_run_shedding_idles_below_target(self):
        policy = RunShedding(SimpleNamespace(n_states=4), omega=0.5, run_budget=100)
        engine = FakeShedEngine(active=40)
        assert policy.on_overload_post(_overload(), engine, strategy=None) is None
        assert engine.shed_calls == []

    def test_run_shedding_rejects_bad_omega(self):
        with pytest.raises(ValueError, match="omega"):
            RunShedding(None, omega=1.5)


class TestPartialMatchUtility:
    AUTOMATON = SimpleNamespace(n_states=9, window=Window("count", 400))

    def _run(self, bound=2, obligations=0, first_seq=0):
        return SimpleNamespace(
            env={f"b{i}": None for i in range(bound)},
            obligations=tuple(range(obligations)),
            first_seq=first_seq,
            first_t=0.0,
        )

    def _score(self, run, events_seen=100, omega=0.5):
        return partial_match_utility(run, self.AUTOMATON, 0.0, events_seen, omega)

    def test_progress_raises_utility(self):
        assert self._score(self._run(bound=6)) > self._score(self._run(bound=1))

    def test_residual_life_raises_utility(self):
        fresh = self._run(first_seq=90)   # window barely used
        stale = self._run(first_seq=-200)  # window mostly consumed
        assert self._score(fresh) > self._score(stale)

    def test_obligations_discount(self):
        clean = self._run(obligations=0)
        burdened = self._run(obligations=3)
        assert self._score(clean) > self._score(burdened)

    def test_omega_weighs_progress_against_life(self):
        invested = self._run(bound=7, first_seq=-350)  # far along, almost out of window
        fresh = self._run(bound=1, first_seq=99)
        assert self._score(invested, omega=1.0) > self._score(fresh, omega=1.0)
        assert self._score(invested, omega=0.0) < self._score(fresh, omega=0.0)

    def test_time_window_uses_virtual_time(self):
        automaton = SimpleNamespace(n_states=9, window=Window("time", 1_000.0))
        young = SimpleNamespace(env={}, obligations=(), first_seq=0, first_t=900.0)
        old = SimpleNamespace(env={}, obligations=(), first_seq=0, first_t=100.0)
        assert partial_match_utility(young, automaton, 1_000.0, 0, 0.5) > (
            partial_match_utility(old, automaton, 1_000.0, 0, 0.5)
        )


class TestEngineShedLowest:
    def test_cap_still_enforced_by_batch_eviction(self, monkeypatch):
        # The run budget is the one partial-match cap.  The engine records
        # its peak inside process_event, before after_event sheds, so the
        # cap is checked where it is enforced: after every after_event.
        after_event = LoadShedder.after_event
        populations = []

        def checked(self, event, engine, strategy):
            victims = after_event(self, event, engine, strategy)
            populations.append(engine.active_runs)
            return victims

        monkeypatch.setattr(LoadShedder, "after_event", checked)
        query, store = make_abc_scenario()
        stream = random_stream(300, seed=23)
        capped = run_eires(query, store, stream, shed_policy="runs", run_budget=20)
        assert len(populations) == 300 and max(populations) <= 20
        assert capped.summary()["engine.shed_runs"] > 0
        assert capped.summary()["engine.dropped.shed"] == capped.summary()["engine.shed_runs"]

    def test_every_created_run_drops_exactly_once(self):
        query, store = make_abc_scenario()
        result = run_eires(query, store, random_stream(300, seed=23),
                           shed_policy="runs", run_budget=20)
        stats = result.summary()
        dropped = sum(v for k, v in stats.items() if k.startswith("engine.dropped."))
        assert dropped == stats["engine.runs_created"]

    def test_shed_lowest_direct(self):
        eires = EIRES(*_abc_pieces(), config=EiresConfig(cache_capacity=100))
        engine = eires.runtime.sessions[0].engine
        strategy = eires.runtime.sessions[0].strategy
        for event in random_stream(60, seed=5):
            eires.clock.advance_to(event.t)
            strategy.on_event_start(event)
            engine.process_event(event, strategy)
        live = sorted(run.run_id for run in engine.iter_runs())
        before = len(live)
        assert before > 10
        shed = engine.shed_lowest(7, lambda run: float(run.run_id), strategy)
        assert shed == 7
        assert engine.active_runs == before - 7
        assert engine.stats.shed_runs == 7
        # Scoring by creation id makes the victims the 7 oldest live runs.
        survivors = sorted(run.run_id for run in engine.iter_runs())
        assert survivors == live[7:]

    def test_shed_lowest_noop_on_empty_or_zero(self):
        eires = EIRES(*_abc_pieces(), config=EiresConfig(cache_capacity=100))
        engine = eires.runtime.sessions[0].engine
        strategy = eires.runtime.sessions[0].strategy
        assert engine.shed_lowest(5, lambda run: 0.0, strategy) == 0
        for event in random_stream(30, seed=5):
            eires.clock.advance_to(event.t)
            engine.process_event(event, strategy)
        assert engine.shed_lowest(0, lambda run: 0.0, strategy) == 0


def _abc_pieces():
    from repro.remote.transport import FixedLatency

    query, store = make_abc_scenario()
    return query, store, FixedLatency(50.0)


# ---------------------------------------------------------------------------
# Configuration and composition-root wiring
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown shedding policy"):
            EiresConfig(shed_policy="bogus")

    def test_active_policy_needs_a_bound(self):
        with pytest.raises(ValueError, match="latency-bound"):
            EiresConfig(shed_policy="runs")

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError, match="latency_bound"):
            EiresConfig(shed_policy="events", latency_bound=-1.0)
        with pytest.raises(ValueError, match="run_budget"):
            EiresConfig(shed_policy="runs", run_budget=0)

    def test_policy_none_builds_no_shedder(self):
        eires = EIRES(*_abc_pieces(), config=EiresConfig())
        assert eires.runtime.sessions[0].shedder is None

    def test_active_policy_builds_shedder(self):
        eires = EIRES(*_abc_pieces(),
                      config=EiresConfig(shed_policy="runs", run_budget=500))
        shedder = eires.runtime.sessions[0].shedder
        assert isinstance(shedder, LoadShedder)
        assert isinstance(shedder.policy, RunShedding)
        assert shedder.stats.as_dict() == {
            "overloads": 0, "events_dropped": 0, "runs_shed": 0
        }

    def test_shed_counters_registered_on_session_registry(self):
        eires = EIRES(*_abc_pieces(),
                      config=EiresConfig(shed_policy="runs", run_budget=500))
        assert "shed.overloads" in eires.metrics.snapshot()


# ---------------------------------------------------------------------------
# End-to-end overload behaviour on the bursty workload
# ---------------------------------------------------------------------------

BURSTY = BurstyConfig(n_events=1_200)


def _bursty_run(policy: str, strategy: str = "Hybrid", tracer=None, **config):
    workload = bursty_workload(BURSTY)
    cfg = EiresConfig(
        cache_capacity=workload.notes["cache_capacity"],
        shed_policy=policy,
        **config,
    )
    return run_strategy(workload, strategy, cfg, tracer=tracer)


class TestBurstyWorkload:
    def test_stream_is_deterministic(self):
        first = make_bursty_stream(BURSTY)
        second = make_bursty_stream(BURSTY)
        assert [e.t for e in first] == [e.t for e in second]
        assert [e.attrs for e in first] == [e.attrs for e in second]

    def test_bursts_are_denser_and_hotter(self):
        events = list(make_bursty_stream(BURSTY))
        calm = events[: BURSTY.calm_events]
        burst = events[BURSTY.calm_events : BURSTY.calm_events + BURSTY.burst_events]
        calm_span = calm[-1].t - calm[0].t
        burst_span = burst[-1].t - burst[0].t
        assert burst_span < calm_span / 2.0
        hot = sum(1 for e in burst if e.attrs["id"] <= BURSTY.hot_ids)
        assert hot / len(burst) > 0.5

    def test_overload_factor_validation(self):
        with pytest.raises(ValueError, match="overload_factor"):
            BurstyConfig(overload_factor=0.5)
        with pytest.raises(ValueError, match="hot_ids"):
            BurstyConfig(hot_ids=0)


class TestOverloadRuns:
    @pytest.mark.parametrize("policy,bound_kw", [
        ("events", {"latency_bound": 300.0}),
        ("runs", {"latency_bound": 300.0}),
        ("runs", {"run_budget": 2_000}),
    ])
    def test_shedding_bounds_latency_and_accounts_drops(self, policy, bound_kw):
        base = _bursty_run("none")
        shed = _bursty_run(policy, **bound_kw)
        summary = shed.summary()
        assert summary["shed.overloads"] > 0
        if policy == "events":
            assert summary["shed.events_dropped"] > 0
            assert summary["engine.dropped.shed"] == 0
        else:
            assert summary["shed.runs_shed"] > 0
            assert summary["shed.runs_shed"] == summary["engine.dropped.shed"]
        assert shed.latency_percentiles()[95] < base.latency_percentiles()[95]
        assert 0 < shed.match_count <= base.match_count

    def test_shedding_is_deterministic(self):
        first = _bursty_run("runs", latency_bound=300.0)
        second = _bursty_run("runs", latency_bound=300.0)
        assert first.match_signatures() == second.match_signatures()
        assert first.summary() == second.summary()

    @pytest.mark.parametrize("policy,bound_kw", [
        ("events", {"latency_bound": 300.0}),
        ("runs", {"latency_bound": 300.0}),
    ])
    def test_tracing_does_not_perturb_and_replays(self, policy, bound_kw):
        untraced = _bursty_run(policy, **bound_kw)
        sink = MemorySink()
        traced = _bursty_run(policy, tracer=Tracer(sink, track="Hybrid"), **bound_kw)
        assert traced.match_signatures() == untraced.match_signatures()
        assert traced.summary() == untraced.summary()
        replay = replay_trace(sink.records)
        assert replay["checked_shed"] > 0
        assert replay["problems"] == []
        sheds = [r for r in sink.records if r["cat"] == "shed"]
        assert all(r["name"] == "shed_decision" for r in sheds)
        assert all(r["policy"] == policy for r in sheds)

    def test_shed_record_verifier_catches_lies(self):
        sink = MemorySink()
        _bursty_run("runs", latency_bound=300.0, tracer=Tracer(sink, track="x"))
        record = dict(next(r for r in sink.records if r["cat"] == "shed"))
        assert verify_shed_record(record) == []
        tampered = dict(record, victims=record["victims"] + 1)
        assert verify_shed_record(tampered)
        becalmed = dict(record, lag=0.0, active=0)
        assert verify_shed_record(becalmed)

    def test_flush_consistency_with_obligations_and_batching(self):
        """End-of-stream flush x open LzEval obligations x open batch windows
        x mid-stream sheds: no orphaned runs, every drop attributed."""
        workload = bursty_workload(BURSTY)
        cfg = EiresConfig(
            cache_capacity=workload.notes["cache_capacity"],
            shed_policy="runs",
            latency_bound=300.0,
            batch_window=50.0,
            batch_max_keys=8,
        )
        eires = EIRES(workload.query, workload.store, workload.latency_model,
                      strategy="LzEval", config=cfg)
        result = eires.run(workload.stream)
        engine = eires.runtime.sessions[0].engine
        stats = result.summary()
        # The engine is fully drained: the flush left no live runs behind.
        assert engine.active_runs == 0
        # Every created run was dropped exactly once, under a known reason.
        dropped = sum(v for k, v in stats.items() if k.startswith("engine.dropped."))
        assert dropped == stats["engine.runs_created"]
        assert stats["engine.dropped.shed"] == stats["shed.runs_shed"] > 0
        # Obligations shed mid-flight expired with their runs (the ledger
        # balances: nothing waits on data that will never be used).
        assert stats["fetch.obligations_expired"] >= 0
        assert stats["engine.dropped.flushed"] >= 0

    def test_shed_counter_group(self):
        stats = CounterGroup("shed", SHED_COUNTER_KEYS)
        stats.overloads += 1
        stats.runs_shed += 5
        assert stats.overloads == 1
        assert stats.as_dict() == {"overloads": 1, "events_dropped": 0, "runs_shed": 5}
