"""Batched fetch plane: policy, queues, transport semantics, and parity.

Three layers of coverage:

* unit tests for :mod:`repro.remote.batching` (policy validation, the
  amortized latency model, utility-ranked assembly, stats arithmetic);
* transport-level tests for window/flush semantics, blocking promotion,
  split-on-failure retries, and breaker interaction;
* runtime-level parity and determinism: a disabled batch plane is
  byte-identical to the classic single-key substrate, and an enabled one
  is deterministic with tracing on or off, faults or not.
"""

import pytest

from repro.bench.harness import run_strategy
from repro.cli import WORKLOADS
from repro.core.config import EiresConfig
from repro.obs.trace import MemorySink, Tracer, trace_key
from repro.remote.batching import DISABLED_BATCHING, BatchPolicy, BatchQueue
from repro.remote.faults import DROP, ERROR, OK, SLOW, FaultDecision, NoFaults
from repro.remote.monitor import BreakerBoard
from repro.remote.retry import RetryPolicy
from repro.remote.store import RemoteStore
from repro.remote.transport import (
    MODE_BLOCKING,
    FetchRequest,
    FetchTicket,
    FixedLatency,
    Transport,
)
from repro.sim.rng import make_rng


def _store(*sources: str) -> RemoteStore:
    store = RemoteStore()
    for source in sources or ("s",):
        store.register_source(source, lambda key: f"v{key}")
    return store


def _transport(policy: BatchPolicy | None = None, **kwargs) -> Transport:
    return Transport(
        _store("s", "t"), FixedLatency(10.0), make_rng(1), batch_policy=policy, **kwargs
    )


BATCHING = BatchPolicy(window=50.0, max_keys=4, fixed_latency=40.0, per_key_latency=8.0)


class TestBatchPolicy:
    def test_defaults_disable_batching(self):
        assert not BatchPolicy().enabled
        assert not DISABLED_BATCHING.enabled

    def test_window_alone_does_not_enable(self):
        assert not BatchPolicy(window=50.0, max_keys=1).enabled
        assert not BatchPolicy(window=0.0, max_keys=8).enabled
        assert BatchPolicy(window=50.0, max_keys=8).enabled

    def test_amortized_latency_model(self):
        policy = BatchPolicy(window=50.0, max_keys=8, fixed_latency=40.0, per_key_latency=8.0)
        assert policy.batch_latency(1) == 48.0
        assert policy.batch_latency(5) == 80.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(window=-1.0)
        with pytest.raises(ValueError):
            BatchPolicy(max_keys=0)
        with pytest.raises(ValueError):
            BatchPolicy(fixed_latency=-1.0)
        with pytest.raises(ValueError):
            BatchPolicy(per_key_latency=-0.5)
        with pytest.raises(ValueError):
            BatchPolicy().batch_latency(0)


class TestBatchQueue:
    def _ticket(self, key) -> FetchTicket:
        return FetchTicket(key, issued_at=0.0, arrives_at=float("inf"), element=None,
                           ok=False)

    def test_ranked_orders_by_descending_utility(self):
        queue = BatchQueue("s", opened_at=0.0, window=50.0)
        queue.add(self._ticket(("s", 1)), utility=2.0)
        queue.add(self._ticket(("s", 2)), utility=float("inf"))
        queue.add(self._ticket(("s", 3)), utility=5.0)
        assert [t.key for t in queue.ranked()] == [("s", 2), ("s", 3), ("s", 1)]

    def test_equal_utility_breaks_ties_by_key_repr(self):
        queue = BatchQueue("s", opened_at=0.0, window=50.0)
        queue.add(self._ticket(("s", 9)), utility=1.0)
        queue.add(self._ticket(("s", 2)), utility=1.0)
        assert [t.key for t in queue.ranked()] == [("s", 2), ("s", 9)]

    def test_duplicate_key_rejected(self):
        queue = BatchQueue("s", opened_at=0.0, window=50.0)
        queue.add(self._ticket(("s", 1)), utility=0.0)
        with pytest.raises(ValueError, match="already queued"):
            queue.add(self._ticket(("s", 1)), utility=9.0)


class TestTransportBatching:
    def test_requests_coalesce_into_one_wire_request(self):
        transport = _transport(BATCHING)
        t1 = transport.submit(FetchRequest(("s", 1), at=0.0))
        t2 = transport.submit(FetchRequest(("s", 2), at=10.0))
        assert t1.queued and t2.queued
        assert transport.stats.wire_requests == 0
        assert transport.open_batch_count() == 1
        # Nothing arrives before the window closes at its deadline (50).
        assert transport.deliver_due(40.0) == []
        # Closing at 50 puts both on the wire: arrival 50 + 40 + 2*8 = 106.
        assert transport.deliver_due(60.0) == []
        delivered = transport.deliver_due(106.0)
        assert {t.key for t in delivered} == {("s", 1), ("s", 2)}
        assert all(t.ok and not t.queued for t in delivered)
        assert all(t.arrives_at == 106.0 for t in delivered)
        assert transport.stats.wire_requests == 1
        assert transport.stats.batches == 1
        assert transport.stats.batched_keys == 2

    def test_max_keys_flushes_immediately(self):
        policy = BatchPolicy(window=1_000.0, max_keys=2, fixed_latency=40.0,
                             per_key_latency=8.0)
        transport = _transport(policy)
        transport.submit(FetchRequest(("s", 1), at=0.0))
        assert transport.open_batch_count() == 1
        ticket = transport.submit(FetchRequest(("s", 2), at=5.0))
        assert transport.open_batch_count() == 0
        assert transport.stats.wire_requests == 1
        # Flushed at the second submit (5), not the window deadline.
        assert ticket.arrives_at == 5.0 + 40.0 + 2 * 8.0

    def test_sources_get_separate_windows(self):
        transport = _transport(BATCHING)
        transport.submit(FetchRequest(("s", 1), at=0.0))
        transport.submit(FetchRequest(("t", 1), at=0.0))
        assert transport.open_batch_count() == 2
        transport.flush_batches(0.0)
        assert transport.open_batch_count() == 0
        assert transport.stats.wire_requests == 2

    def test_duplicate_key_coalesces_onto_queued_ticket(self):
        transport = _transport(BATCHING)
        first = transport.submit(FetchRequest(("s", 1), at=0.0))
        second = transport.submit(FetchRequest(("s", 1), at=10.0))
        assert second is first
        assert transport.stats.coalesced == 1
        assert transport.stats.async_fetches == 1

    def test_single_key_batch_pays_batch_latency(self):
        transport = _transport(BATCHING)
        ticket = transport.submit(FetchRequest(("s", 1), at=0.0))
        transport.flush_batches(20.0)
        # A lone key still flushes as one wire request at l_batch(1) = 48.
        assert ticket.arrives_at == 20.0 + 48.0
        assert transport.stats.batches == 0  # not a multi-key batch

    def test_utility_ranks_the_wire_order(self):
        sink = MemorySink()
        transport = _transport(BATCHING)
        transport.bind_observability(None, Tracer(sink))
        transport.submit(FetchRequest(("s", 1), at=0.0, utility=1.0))
        transport.submit(FetchRequest(("s", 2), at=1.0, utility=float("inf")))
        transport.submit(FetchRequest(("s", 3), at=2.0, utility=7.0))
        transport.flush_batches(10.0)
        (record,) = [r for r in sink.records if r["name"] == "batch_issue"]
        assert record["keys"] == [trace_key(("s", 2)), trace_key(("s", 3)),
                                  trace_key(("s", 1))]

    def test_disabled_policy_routes_single_key(self):
        transport = _transport(None)
        ticket = transport.submit(FetchRequest(("s", 1), at=0.0))
        assert not ticket.queued
        assert ticket.arrives_at == 10.0  # the plain latency model, no batch costs
        assert transport.open_batch_count() == 0
        assert transport.stats.wire_requests == 1

    def test_blocking_need_closes_the_open_window(self):
        transport = _transport(BATCHING)
        queued = transport.submit(FetchRequest(("s", 1), at=0.0))
        assert queued.queued
        ticket = transport.submit(FetchRequest(("s", 1), at=10.0, mode=MODE_BLOCKING))
        assert ticket is queued
        assert not ticket.queued and ticket.ok
        # Window closed at the blocking submit, not its deadline.
        assert ticket.arrives_at == 10.0 + 48.0
        assert transport.stats.coalesced == 1
        assert transport.stats.wire_requests == 1
        assert transport.open_batch_count() == 0

    def test_blocking_other_key_leaves_foreign_window_open(self):
        transport = _transport(BATCHING)
        transport.submit(FetchRequest(("s", 1), at=0.0))
        transport.submit(FetchRequest(("t", 7), at=0.0, mode=MODE_BLOCKING))
        assert transport.open_batch_count() == 1

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fetch mode"):
            FetchRequest(("s", 1), at=0.0, mode="psychic")

    def test_mean_amortized_latency_feeds_the_monitor(self):
        transport = _transport(BATCHING)
        transport.submit(FetchRequest(("s", 1), at=0.0))
        transport.submit(FetchRequest(("s", 2), at=0.0))
        transport.flush_batches(0.0)
        # Each key's recorded share is l_batch(2)/2 = 28, not the full 56.
        assert transport.monitor.estimate(("s", 1)) < 56.0


class _FailFirstWire(NoFaults):
    """Fails every attempt-1 wire request; retries succeed."""

    def decide(self, key, now, attempt, rng):
        return FaultDecision(ERROR if attempt == 1 else OK)


class _PoisonedKey(NoFaults):
    """One key fails terminally; everything else succeeds after the split."""

    def __init__(self, poisoned):
        self.poisoned = poisoned

    def decide(self, key, now, attempt, rng):
        if attempt == 1 or key == self.poisoned:
            return FaultDecision(ERROR)
        return FaultDecision(OK)


class TestOneWirePath:
    """A single-key request and a one-key batch are one kind of wire request."""

    @pytest.mark.parametrize("kind, after", [
        (OK, 48.0), (SLOW, 144.0), (ERROR, 48.0), (DROP, RetryPolicy().attempt_timeout),
    ])
    def test_one_key_batch_agrees_with_a_single_key_request(self, kind, after):
        class Always(NoFaults):
            def decide(self, key, now, attempt, rng):
                return FaultDecision(kind, latency_scale=3.0 if kind == SLOW else 1.0)

        key, at = ("s", 1), 5.0
        outcomes = []
        for policy in (None, BATCHING):
            transport = Transport(
                _store("s"), FixedLatency(BATCHING.batch_latency(1)), make_rng(1),
                fault_model=Always(), fault_rng=make_rng(2), batch_policy=policy,
            )
            ticket = transport.submit(FetchRequest(key, at=at))
            transport.flush_batches(at)
            outcomes.append((ticket.ok, ticket.error, ticket.arrives_at - at,
                             transport.monitor.estimate(key),
                             transport.breakers.failure_rate("s")))
        single, batched = outcomes
        assert single == batched
        assert single[0] == (kind in (OK, SLOW))
        assert single[2] == after


class TestBatchFailureSemantics:
    RETRY = RetryPolicy(max_attempts=3, backoff_base=5.0, backoff_factor=1.0,
                        jitter=0.0, attempt_timeout=400.0, deadline=4_000.0)

    def _failing_transport(self, fault_model) -> Transport:
        return Transport(
            _store("s"), FixedLatency(10.0), make_rng(1),
            fault_model=fault_model, fault_rng=make_rng(2),
            retry_policy=self.RETRY, batch_policy=BATCHING,
        )

    def test_failed_batch_splits_into_per_key_retries(self):
        transport = self._failing_transport(_FailFirstWire())
        for ident in (1, 2, 3):
            transport.submit(FetchRequest(("s", ident), at=0.0))
        transport.flush_batches(0.0)
        assert transport.stats.wire_requests == 1
        assert transport.stats.batch_splits == 1
        delivered = transport.deliver_due(10_000.0)
        assert {t.key for t in delivered} == {("s", 1), ("s", 2), ("s", 3)}
        assert all(t.ok for t in delivered)
        assert all(t.attempt == 2 for t in delivered)
        # The split re-issued each key individually: 1 batch + 3 singles.
        assert transport.stats.wire_requests == 4
        assert transport.stats.retries == 3
        assert transport.stats.failed_fetches == 0

    def test_poisoned_key_cannot_fail_its_cohort(self):
        transport = self._failing_transport(_PoisonedKey(("s", 2)))
        for ident in (1, 2, 3):
            transport.submit(FetchRequest(("s", ident), at=0.0))
        transport.flush_batches(0.0)
        delivered = transport.deliver_due(100_000.0)
        outcomes = {t.key: t.ok for t in delivered}
        assert outcomes == {("s", 1): True, ("s", 2): False, ("s", 3): True}
        assert transport.stats.failed_fetches == 1

    def test_drop_failure_known_at_attempt_timeout(self):
        class DropWire(NoFaults):
            def decide(self, key, now, attempt, rng):
                return FaultDecision(DROP if attempt == 1 else OK)

        transport = self._failing_transport(DropWire())
        ticket = transport.submit(FetchRequest(("s", 1), at=0.0))
        transport.submit(FetchRequest(("s", 2), at=0.0))
        transport.flush_batches(0.0)
        # The batch was dropped silently: known only at the attempt timeout.
        assert ticket.arrives_at == self.RETRY.attempt_timeout
        assert ticket.error == "timeout"

    def test_blocking_takeover_of_failed_batch_ticket(self):
        transport = self._failing_transport(_FailFirstWire())
        transport.submit(FetchRequest(("s", 1), at=0.0))
        transport.submit(FetchRequest(("s", 2), at=0.0))
        transport.flush_batches(0.0)
        # Before the failure is even delivered, an urgent need takes over the
        # doomed ticket and drives its retry chain to completion.
        ticket = transport.submit(FetchRequest(("s", 1), at=10.0, mode=MODE_BLOCKING))
        assert ticket.ok
        assert ticket.attempt == 2

    def test_breaker_observes_one_outcome_per_wire_request(self):
        breakers = BreakerBoard(failure_threshold=0.99, cooldown=1_000.0)
        transport = Transport(
            _store("s"), FixedLatency(10.0), make_rng(1),
            fault_model=_FailFirstWire(), fault_rng=make_rng(2),
            retry_policy=self.RETRY, breakers=breakers, batch_policy=BATCHING,
        )
        for ident in (1, 2, 3):
            transport.submit(FetchRequest(("s", ident), at=0.0))
        transport.flush_batches(0.0)
        # One failed wire request = one breaker sample, not three.
        assert breakers.failure_rate("s") == 1.0
        transport.deliver_due(10_000.0)
        # The three split retries succeeded: 1 failure in 4 samples.
        assert breakers.failure_rate("s") == 0.25

    def test_open_breaker_fastfails_instead_of_enqueueing(self):
        class AlwaysDown(NoFaults):
            def decide(self, key, now, attempt, rng):
                return FaultDecision(ERROR)

        breakers = BreakerBoard(failure_threshold=0.5, cooldown=100_000.0)
        transport = Transport(
            _store("s"), FixedLatency(10.0), make_rng(1),
            fault_model=AlwaysDown(), fault_rng=make_rng(2),
            retry_policy=RetryPolicy(max_attempts=1), breakers=breakers,
            batch_policy=BATCHING,
        )
        now = 0.0
        while breakers.available("s", now):
            transport.submit(FetchRequest(("s", int(now)), at=now))
            transport.flush_batches(now)
            transport.deliver_due(now + 1_000.0)
            now += 1_000.0
        before = transport.stats.breaker_fastfails
        ticket = transport.submit(FetchRequest(("s", 999), at=now))
        assert ticket.error == "breaker_open"
        assert not ticket.queued
        assert transport.open_batch_count() == 0
        assert transport.stats.breaker_fastfails == before + 1


class TestEndOfStreamFlush:
    def test_flush_drains_all_sources_sorted(self):
        transport = _transport(BATCHING)
        transport.submit(FetchRequest(("t", 1), at=0.0))
        transport.submit(FetchRequest(("s", 1), at=0.0))
        transport.submit(FetchRequest(("s", 2), at=0.0))
        assert transport.flush_batches(5.0) == 3
        assert transport.open_batch_count() == 0
        assert transport.stats.wire_requests == 2

    def test_flush_past_deadline_uses_the_deadline(self):
        transport = _transport(BATCHING)
        ticket = transport.submit(FetchRequest(("s", 1), at=0.0))
        transport.flush_batches(10_000.0)
        # The window's deadline (50) was long past: flush as if it had
        # closed on time, not at the (arbitrary) flush call time.
        assert ticket.arrives_at == 50.0 + 48.0

    def test_flush_on_empty_transport_is_a_noop(self):
        transport = _transport(BATCHING)
        assert transport.flush_batches(100.0) == 0


def _run(workload_name, strategy, config, events=2_000, tracer=None):
    workload = WORKLOADS[workload_name](events)
    return run_strategy(
        workload,
        strategy,
        config.with_(cache_capacity=workload.notes["cache_capacity"]),
        tracer=tracer,
    )


BATCH_ON = dict(batch_window=50.0, batch_max_keys=8)


class TestDisabledBatchingParity:
    """`batch_window=0` / `batch_max_keys=1` must be byte-identical to the
    classic single-key substrate (the pre-batching defaults)."""

    @pytest.mark.parametrize("workload", ["q1", "q2"])
    @pytest.mark.parametrize("strategy", ["Hybrid", "PFetch", "LzEval"])
    def test_explicit_disable_matches_default(self, workload, strategy):
        default = _run(workload, strategy, EiresConfig())
        explicit = _run(
            workload, strategy, EiresConfig(batch_window=0.0, batch_max_keys=1)
        )
        assert explicit.summary() == default.summary()
        assert explicit.match_signatures() == default.match_signatures()

    def test_window_without_max_keys_stays_disabled(self):
        # A window alone (max_keys=1) must not change anything either.
        default = _run("q1", "Hybrid", EiresConfig())
        windowed = _run("q1", "Hybrid", EiresConfig(batch_window=50.0, batch_max_keys=1))
        assert windowed.summary() == default.summary()

    def test_fault_run_parity(self):
        default = _run("q1", "Hybrid", EiresConfig(fault_profile="drop:0.05"))
        explicit = _run(
            "q1", "Hybrid",
            EiresConfig(fault_profile="drop:0.05", batch_window=0.0, batch_max_keys=1),
        )
        assert explicit.summary() == default.summary()
        assert explicit.match_signatures() == default.match_signatures()


class TestBatchingDeterminism:
    def test_two_runs_are_identical(self):
        first = _run("q1", "Hybrid", EiresConfig(**BATCH_ON))
        second = _run("q1", "Hybrid", EiresConfig(**BATCH_ON))
        assert first.summary() == second.summary()
        assert first.match_signatures() == second.match_signatures()

    @pytest.mark.parametrize("fault_profile", ["none", "drop:0.05"])
    def test_tracing_does_not_change_results(self, fault_profile):
        config = EiresConfig(fault_profile=fault_profile, **BATCH_ON)
        untraced = _run("q1", "Hybrid", config)
        traced = _run("q1", "Hybrid", config, tracer=Tracer(MemorySink()))
        assert traced.summary() == untraced.summary()
        assert traced.match_signatures() == untraced.match_signatures()

    def test_batching_reduces_wire_requests_at_equal_recall(self):
        off = _run("q1", "Hybrid", EiresConfig())
        on = _run("q1", "Hybrid", EiresConfig(**BATCH_ON))
        assert on.match_signatures() == off.match_signatures()
        assert on.summary()["transport.wire_requests"] < off.summary()["transport.wire_requests"]
        assert on.summary()["transport.batches"] > 0

    def test_run_result_surfaces_batch_counters(self):
        result = _run("q1", "Hybrid", EiresConfig(**BATCH_ON))
        summary = result.summary()
        for column in ("transport.wire_requests", "transport.batches",
                       "transport.batched_keys", "transport.batch_splits"):
            assert column in summary
