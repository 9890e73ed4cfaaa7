"""Conformance of the engine's generated code with its interpretive twins.

* The engine evaluates guards through generated code; whole
  runs must be **byte-identical** to the same engine walking the predicate
  trees — same match signatures, same virtual-time percentiles, same engine
  counters, same metrics, same trace stream, same shed decisions — across
  queries, selection policies, all fetch strategies, and shedding;
* it steps local-only buckets through generated loops; whole runs must be
  byte-identical to the same engine stepping every bucket run by run.

Scenarios are deliberately small (hundreds of events) so the whole matrix
stays tier-1 fast; the full-size regime lives in
``benchmarks/bench_backends.py``.
"""

from __future__ import annotations

import functools

import pytest

from repro.bench.harness import ALL_STRATEGIES, run_strategy
from repro.core.config import EiresConfig
from repro.engine.engine import Engine
from repro.nfa import compiler as nfa_compiler
from repro.nfa.compiler import compile_query
from repro.obs.trace import MemorySink, Tracer
from repro.query.guards import interpret_guard
from repro.workloads.bursty import BurstyConfig, bursty_workload
from repro.workloads.synthetic import SyntheticConfig, q1_workload, q2_workload

Q1_SMALL = SyntheticConfig(n_events=700, id_domain=20, window_events=200)
Q2_SMALL = SyntheticConfig(n_events=700, id_domain=40, window_events=200)


def _observables(result, sink: MemorySink | None = None):
    """Everything a run makes observable."""
    data = {
        "summary": result.summary(),
        "signatures": [match.signature() for match in result.matches],
        "metrics": result.metrics,
    }
    if sink is not None:
        data["trace"] = sink.records
    return data


def _run(workload, strategy, config, traced=False):
    """One run, reduced to its observables."""
    sink = MemorySink() if traced else None
    tracer = Tracer(sink) if traced else None
    result = run_strategy(workload, strategy, config, tracer=tracer)
    return _observables(result, sink)


def _interpreted_guard(predicates, binding):
    """Stand-in for ``compile_guard``: the reference walk of the predicate trees."""
    return functools.partial(interpret_guard, tuple(predicates), binding)


class TestCompiledGuardByteIdentity:
    """Generated guards replay the predicate-tree walk exactly, whole runs
    through: same matches, percentiles, counters, metrics, trace stream and
    shed decisions (the guard-level property is in ``test_properties.py``)."""

    def _both(self, monkeypatch, workload, strategy, config, traced=False):
        compiled = _run(workload, strategy, config, traced)
        with monkeypatch.context() as patch:
            patch.setattr(nfa_compiler, "compile_guard", _interpreted_guard)
            interpreted = _run(workload, strategy, config, traced)
        return compiled, interpreted

    def test_the_stand_in_reaches_the_transitions(self, monkeypatch):
        query = q1_workload(Q1_SMALL).query
        assert all(t.guard_source for t in compile_query(query).transitions)
        monkeypatch.setattr(nfa_compiler, "compile_guard", _interpreted_guard)
        for transition in compile_query(query).transitions:
            assert transition.guard.func is interpret_guard

    @pytest.mark.parametrize("policy", ["greedy", "non_greedy"])
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_q1_all_strategies(self, monkeypatch, strategy, policy):
        compiled, interpreted = self._both(
            monkeypatch, q1_workload(Q1_SMALL), strategy, EiresConfig(policy=policy)
        )
        assert compiled == interpreted

    @pytest.mark.parametrize("policy", ["greedy", "non_greedy"])
    def test_q2_both_policies(self, monkeypatch, policy):
        compiled, interpreted = self._both(
            monkeypatch, q2_workload(Q2_SMALL), "Hybrid", EiresConfig(policy=policy)
        )
        assert compiled == interpreted

    @pytest.mark.parametrize("shed_policy", ["events", "runs"])
    def test_shedding_decisions(self, monkeypatch, shed_policy):
        config = EiresConfig(shed_policy=shed_policy, latency_bound=1_000.0)
        compiled, interpreted = self._both(
            monkeypatch, bursty_workload(BurstyConfig(n_events=800)), "Hybrid", config
        )
        assert compiled == interpreted

    def test_traced_run_streams_identical_records(self, monkeypatch):
        compiled, interpreted = self._both(
            monkeypatch, q1_workload(Q1_SMALL), "LzEval", EiresConfig(), traced=True
        )
        assert compiled["trace"], "the traced scenario produced no records"
        assert compiled == interpreted


def _no_bucket_loop(predicates, binding, window_kind):
    """Stand-in for ``compile_bucket_loop``: no loop, so every bucket is
    stepped run by run through ``_step_runs``."""
    return None


class TestBucketLoopByteIdentity:
    """Stepping a bucket in one generated loop and replaying its outcomes is
    the per-run path exactly, whole runs through: same matches, percentiles,
    counters, metrics and — always traced here — the same trace stream (the
    one-bucket property is in ``test_properties.py``)."""

    def _both(self, monkeypatch, workload, strategy, config):
        looped = _run(workload, strategy, config, traced=True)
        with monkeypatch.context() as patch:
            patch.setattr(nfa_compiler, "compile_bucket_loop", _no_bucket_loop)
            per_run = _run(workload, strategy, config, traced=True)
        assert looped["trace"], "the traced scenario produced no records"
        return looped, per_run

    def test_the_stand_in_reaches_the_transitions(self, monkeypatch):
        query = q1_workload(Q1_SMALL).query
        loops = [t.bucket_loop for t in compile_query(query).transitions]
        # Q1's two remote transitions are the strategy's to decide, run by run.
        assert sum(loop is None for loop in loops) == 2 and len(loops) == 8
        monkeypatch.setattr(nfa_compiler, "compile_bucket_loop", _no_bucket_loop)
        assert not any(t.bucket_loop for t in compile_query(query).transitions)

    @pytest.mark.parametrize("policy", ["greedy", "non_greedy"])
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_q1_all_strategies(self, monkeypatch, strategy, policy):
        looped, per_run = self._both(
            monkeypatch, q1_workload(Q1_SMALL), strategy, EiresConfig(policy=policy)
        )
        assert looped == per_run

    @pytest.mark.parametrize("policy", ["greedy", "non_greedy"])
    def test_q2_both_policies(self, monkeypatch, policy):
        looped, per_run = self._both(
            monkeypatch, q2_workload(Q2_SMALL), "Hybrid", EiresConfig(policy=policy)
        )
        assert looped == per_run

    @pytest.mark.parametrize("policy", ["greedy", "non_greedy"])
    def test_mixed_buckets_fall_back_run_by_run(self, monkeypatch, policy):
        """LzEval leaves obligation-bearing runs in local-only buckets: those
        buckets take the per-run path, their obligation-free neighbours the
        loop — both must actually happen for the identity to mean anything."""
        taken = {True: 0, False: 0}
        step_bucket = Engine._step_bucket

        def counted(self, runs, *args):
            survivors = step_bucket(self, runs, *args)
            taken[survivors is not None] += 1
            return survivors

        monkeypatch.setattr(Engine, "_step_bucket", counted)
        looped, per_run = self._both(
            monkeypatch, q1_workload(Q1_SMALL), "LzEval", EiresConfig(policy=policy)
        )
        assert looped == per_run
        assert taken[True] and taken[False], taken

    def test_run_cap(self, monkeypatch):
        looped, per_run = self._both(
            monkeypatch, q1_workload(Q1_SMALL), "Hybrid", EiresConfig(max_partial_matches=40)
        )
        assert looped["summary"]["engine.shed_runs"], "the cap never shed a run"
        assert looped == per_run

    def test_runs_shed_policy(self, monkeypatch):
        config = EiresConfig(shed_policy="runs", latency_bound=20.0)
        looped, per_run = self._both(
            monkeypatch, bursty_workload(BurstyConfig(n_events=800)), "Hybrid", config
        )
        assert looped["summary"]["engine.shed_runs"], "the policy never shed a run"
        assert looped == per_run
