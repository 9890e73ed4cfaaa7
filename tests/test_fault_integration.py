"""End-to-end fault-tolerance behaviour of the assembled framework.

Three properties anchor the fault substrate:

1. **Zero-fault identity** — with ``fault_profile="none"`` the fault
   machinery is provably inert: an assembled run equals one with no retry
   budget and the laxest breaker, match-for-match and stat-for-stat.
2. **Fault transparency** — with a lossy network *and* enough retry budget,
   the match set is exactly what the zero-latency oracle computes: faults
   change *when* data arrives, never *what* is detected.
3. **Graceful degradation** — when data is terminally unavailable the
   outcome is deterministic and configurable (fail-open / fail-closed /
   stale serve), never an exception out of the engine.
"""

import pytest

from repro.core.config import EiresConfig
from repro.core.framework import EIRES
from repro.engine.reference import reference_match_signatures
from repro.nfa.compiler import compile_query
from repro.query.parser import parse_query
from repro.remote.store import RemoteStore
from repro.remote.transport import FixedLatency
from repro.strategies.base import FAIL_CLOSED, FAIL_OPEN

from .helpers import make_abc_scenario, random_stream, run_eires

ALL = ["BL1", "BL2", "BL3", "PFetch", "LzEval", "Hybrid"]


class TestZeroFaultIdentity:
    """fault_profile="none" leaves the retry and breaker machinery inert."""

    @pytest.mark.parametrize("strategy", ALL)
    def test_machinery_is_inert_when_disabled(self, strategy):
        query, store = make_abc_scenario()
        stream = random_stream(300, seed=11)
        armed = run_eires(query, store, stream, strategy=strategy)
        query2, store2 = make_abc_scenario()
        # No retries, and a breaker that opens only when its whole window failed.
        disarmed = run_eires(query2, store2, stream, strategy=strategy,
                             retry_max_attempts=1, breaker_failure_threshold=1.0)
        assert armed.match_signatures() == disarmed.match_signatures()
        assert armed.summary() == disarmed.summary()

    def test_zero_rate_profile_equals_none(self):
        # An *armed* fault model with rate 0 never trips, and its decisions
        # draw from a separate RNG stream — the trace stays identical.
        query, store = make_abc_scenario()
        stream = random_stream(300, seed=12)
        baseline = run_eires(query, store, stream, strategy="Hybrid")
        query2, store2 = make_abc_scenario()
        zero_rate = run_eires(query2, store2, stream, strategy="Hybrid",
                              fault_profile="drop:0.0")
        assert baseline.match_signatures() == zero_rate.match_signatures()
        assert baseline.summary() == zero_rate.summary()

    def test_no_fault_counters_on_healthy_network(self):
        query, store = make_abc_scenario()
        result = run_eires(query, store, random_stream(300, seed=13), strategy="Hybrid")
        summary = result.summary()
        assert summary["transport.failed_fetches"] == 0
        assert summary["transport.retries"] == 0
        assert summary["transport.breaker_opens"] == 0
        assert summary["fetch.stale_serves"] == 0
        assert summary["transport.breaker_fastfails"] == 0


class TestFaultTransparency:
    """With retries, faults delay matches but never change them."""

    @pytest.mark.parametrize("strategy", ["BL1", "BL3", "Hybrid"])
    @pytest.mark.parametrize("policy", ["greedy", "non_greedy"])
    def test_lossy_network_matches_oracle(self, strategy, policy):
        query, store = make_abc_scenario()
        stream = random_stream(300, seed=21)
        expected = reference_match_signatures(compile_query(query), stream, store, policy)
        result = run_eires(
            query, store, stream, strategy=strategy, policy=policy,
            fault_profile="drop:0.1",
            retry_max_attempts=8, retry_deadline=1e9, retry_attempt_timeout=200.0,
        )
        assert result.match_signatures() == expected
        assert result.summary()["transport.retries"] > 0

    def test_transient_errors_matches_oracle(self):
        query, store = make_abc_scenario()
        stream = random_stream(300, seed=22)
        expected = reference_match_signatures(compile_query(query), stream, store, "greedy")
        result = run_eires(
            query, store, stream, strategy="Hybrid",
            fault_profile="error:0.15",
            retry_max_attempts=8, retry_deadline=1e9,
        )
        assert result.match_signatures() == expected

    def test_latency_spikes_never_fail(self):
        # SLOW is not a failure: no retries, no failures, matches intact.
        query, store = make_abc_scenario()
        stream = random_stream(300, seed=23)
        expected = reference_match_signatures(compile_query(query), stream, store, "greedy")
        result = run_eires(query, store, stream, strategy="Hybrid",
                           fault_profile="slow:0.3:5")
        assert result.match_signatures() == expected
        assert result.summary()["transport.failed_fetches"] == 0

    def test_faulted_latency_not_cheaper(self):
        query, store = make_abc_scenario()
        stream = random_stream(300, seed=24)
        healthy = run_eires(query, store, stream, strategy="BL1")
        query2, store2 = make_abc_scenario()
        # A breaker that opens only at a 100 % failure rate never opens
        # here: an open breaker fail-fasts (zero stall), which would muddy
        # the pure retry-cost comparison below.
        faulted = run_eires(query2, store2, stream, strategy="BL1",
                            fault_profile="drop:0.2",
                            retry_max_attempts=8, retry_deadline=1e9,
                            retry_attempt_timeout=200.0, breaker_failure_threshold=1.0)
        assert faulted.summary()["transport.breaker_opens"] == 0
        # Retried fetches strictly lengthen the engine's blocking stalls.
        assert (faulted.summary()["fetch.total_stall_time"]
                > healthy.summary()["fetch.total_stall_time"])
        assert faulted.summary()["transport.failed_fetches"] == 0


class TestGracefulDegradation:
    def _dead_network_run(self, failure_mode, strategy="Hybrid"):
        query, store = make_abc_scenario()
        stream = random_stream(240, seed=31)
        result = run_eires(
            query, store, stream, strategy=strategy,
            fault_profile="drop:1.0",
            retry_max_attempts=2, retry_attempt_timeout=50.0,
            failure_mode=failure_mode,
        )
        return query, store, stream, result

    def test_fail_closed_suppresses_unverifiable_matches(self):
        _, _, _, result = self._dead_network_run(FAIL_CLOSED)
        assert result.match_count == 0
        assert result.summary()["transport.failed_fetches"] > 0

    def test_fail_open_admits_unverifiable_matches(self):
        # With every remote predicate unverifiable, fail-open degrades to
        # the query without its remote predicate.
        _, _, stream, result = self._dead_network_run(FAIL_OPEN)
        local_query = parse_query(
            "SEQ(A a, B b, C c) WHERE SAME[id] WITHIN 2000", name="abc_local"
        )
        expected = reference_match_signatures(
            compile_query(local_query), stream, RemoteStore(), "greedy"
        )
        assert result.match_signatures() == expected
        assert result.match_count > 0

    def test_dead_network_never_raises(self):
        for strategy in ALL:
            _, _, _, result = self._dead_network_run(FAIL_CLOSED, strategy=strategy)
            assert result.match_count == 0

    def test_stale_serve_bridges_outages(self):
        # A tiny cache forces refetches; bursts make some of them fail
        # terminally; the last known value bridges the gap.
        query, store = make_abc_scenario()
        stream = random_stream(500, seed=32)
        result = run_eires(
            query, store, stream, strategy="BL1",
            cache_capacity=1,
            fault_profile="burst:1500:600",
            retry_max_attempts=2, retry_backoff_base=10.0,
            failure_mode=FAIL_CLOSED,
            latency=FixedLatency(20.0),
        )
        summary = result.summary()
        assert summary["transport.failed_fetches"] > 0
        assert summary["fetch.stale_serves"] > 0

    def test_breaker_opens_under_sustained_failure(self):
        query, store = make_abc_scenario()
        stream = random_stream(400, seed=33)
        result = run_eires(
            query, store, stream, strategy="Hybrid",
            fault_profile="error:1.0",
            retry_max_attempts=2, retry_backoff_base=10.0,
            breaker_cooldown=500.0,
            failure_mode=FAIL_CLOSED,
        )
        summary = result.summary()
        assert summary["transport.breaker_opens"] > 0
        assert summary["transport.breaker_fastfails"] > 0

    def test_obligations_expire_deterministically(self):
        # Runs whose postponed predicates never get resolvable data drop at
        # the window bound, identically on repeat runs.
        query, store = make_abc_scenario()
        stream = random_stream(400, seed=34)
        first = run_eires(
            query, store, stream, strategy="LzEval", policy="non_greedy",
            fault_profile="drop:1.0",
            retry_max_attempts=1, retry_attempt_timeout=50.0,
            failure_mode=FAIL_CLOSED,
        )
        query2, store2 = make_abc_scenario()
        second = run_eires(
            query2, store2, stream, strategy="LzEval", policy="non_greedy",
            fault_profile="drop:1.0",
            retry_max_attempts=1, retry_attempt_timeout=50.0,
            failure_mode=FAIL_CLOSED,
        )
        assert first.summary() == second.summary()
        assert first.match_count == 0

    def test_dropped_fetch_not_evaluated_as_empty_set(self):
        # The remote set contains every stream value, so *any* successful
        # fetch satisfies the predicate; MISSING_VALUE (the empty set) would
        # too — but only for absent keys.  Under fail-open a failed fetch
        # counts true by policy; under fail-closed it counts false; in
        # neither case is the failure silently evaluated as the empty set
        # (which would make fail-open and a store miss indistinguishable).
        query, store = make_abc_scenario(set_members=frozenset(range(10)))
        stream = random_stream(240, seed=35)
        closed = run_eires(
            query, store, stream, strategy="BL1",
            fault_profile="drop:1.0", retry_max_attempts=1,
            retry_attempt_timeout=50.0, failure_mode=FAIL_CLOSED,
        )
        # Every predicate would pass against the real data (or even against
        # the empty-set reading it would fail) — fail-closed drops them all,
        # proving the failure was not evaluated as data.
        expected = reference_match_signatures(
            compile_query(query), stream, store, "greedy"
        )
        assert expected  # the oracle does find matches on this trace
        assert closed.match_count == 0


class TestConfigValidation:
    def test_bad_failure_mode_rejected(self):
        with pytest.raises(ValueError, match="failure mode"):
            EiresConfig(failure_mode="explode")

    def test_bad_retry_attempts_rejected(self):
        with pytest.raises(ValueError, match="retry_max_attempts"):
            EiresConfig(retry_max_attempts=0)

    def test_bad_breaker_threshold_rejected(self):
        with pytest.raises(ValueError, match="breaker_failure_threshold"):
            EiresConfig(breaker_failure_threshold=0.0)

    def test_bad_fault_profile_fails_at_assembly(self):
        # The config itself rejects the profile, so assembly never sees it.
        query, store = make_abc_scenario()
        with pytest.raises(ValueError, match="fault_profile 'explode:0.5': unknown fault term"):
            EIRES(query, store, FixedLatency(10.0), strategy="BL1",
                  config=EiresConfig(fault_profile="explode:0.5"))
