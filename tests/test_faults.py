"""Unit tests for fault injection, retry policy, and circuit breakers."""

import pytest

from repro.remote.faults import (
    DROP,
    ERROR,
    OK,
    SLOW,
    CompositeFaults,
    DropFaults,
    ErrorBurstFaults,
    FaultDecision,
    LatencySpikeFaults,
    NoFaults,
    PerSourceFaults,
    TransientErrorFaults,
    make_fault_model,
)
from repro.remote.monitor import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_MIN_SAMPLES,
    BREAKER_OPEN,
    BreakerBoard,
    CircuitBreaker,
    FailureWindow,
)
from repro.remote.retry import RetryPolicy
from repro.remote.store import RemoteStore
from repro.remote.transport import (
    MODE_BLOCKING,
    FetchRequest,
    FixedLatency,
    Transport,
)
from repro.sim.rng import make_rng


class TestFaultModels:
    def test_no_faults_always_ok(self):
        rng = make_rng(1)
        model = NoFaults()
        assert all(model.decide(("s", k), 0.0, 1, rng).kind == OK for k in range(50))

    def test_drop_rate_extremes(self):
        rng = make_rng(2)
        assert DropFaults(0.0).decide(("s", 1), 0.0, 1, rng).kind == OK
        assert DropFaults(1.0).decide(("s", 1), 0.0, 1, rng).kind == DROP

    def test_drop_rate_statistics(self):
        rng = make_rng(3)
        model = DropFaults(0.2)
        drops = sum(model.decide(("s", k), 0.0, 1, rng).failed for k in range(2000))
        assert 300 < drops < 500

    def test_transient_error_is_fast_failure(self):
        decision = TransientErrorFaults(1.0).decide(("s", 1), 0.0, 1, make_rng(4))
        assert decision.kind == ERROR
        assert decision.failed

    def test_latency_spike_scales_but_succeeds(self):
        decision = LatencySpikeFaults(1.0, scale=7.0).decide(("s", 1), 0.0, 1, make_rng(5))
        assert decision.kind == SLOW
        assert decision.latency_scale == 7.0
        assert not decision.failed

    def test_error_burst_windows(self):
        rng = make_rng(6)
        model = ErrorBurstFaults(mean_gap=100.0, duration=50.0)
        # Probe forward in time; some instants fall in bursts, some outside.
        kinds = {model.decide(("s", 1), t, 1, rng).kind for t in range(0, 2000, 10)}
        assert kinds == {OK, ERROR}

    def test_error_burst_independent_per_source(self):
        rng = make_rng(7)
        model = ErrorBurstFaults(mean_gap=100.0, duration=50.0)
        a = [model.decide(("a", 1), t, 1, rng).kind for t in range(0, 1000, 10)]
        b = [model.decide(("b", 1), t, 1, rng).kind for t in range(0, 1000, 10)]
        assert a != b

    def test_per_source_dispatch(self):
        rng = make_rng(8)
        model = PerSourceFaults({"bad": DropFaults(1.0)})
        assert model.decide(("bad", 1), 0.0, 1, rng).kind == DROP
        assert model.decide(("good", 1), 0.0, 1, rng).kind == OK

    def test_composite_first_non_ok_wins(self):
        rng = make_rng(9)
        model = CompositeFaults([DropFaults(0.0), TransientErrorFaults(1.0)])
        assert model.decide(("s", 1), 0.0, 1, rng).kind == ERROR

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DropFaults(1.5)
        with pytest.raises(ValueError):
            LatencySpikeFaults(0.5, scale=0.5)
        with pytest.raises(ValueError):
            ErrorBurstFaults(0.0, 10.0)
        with pytest.raises(ValueError):
            FaultDecision("unknown")
        with pytest.raises(ValueError):
            CompositeFaults([])


class TestMakeFaultModel:
    def test_none_and_empty_yield_no_model(self):
        assert make_fault_model("none") is None
        assert make_fault_model("") is None

    def test_named_profiles(self):
        assert isinstance(make_fault_model("lossy"), DropFaults)
        assert isinstance(make_fault_model("flaky"), CompositeFaults)
        assert isinstance(make_fault_model("burst"), ErrorBurstFaults)

    def test_term_specs(self):
        model = make_fault_model("drop:0.1")
        assert isinstance(model, DropFaults)
        assert model.rate == 0.1
        assert isinstance(make_fault_model("drop:0.05,slow:0.1:8"), CompositeFaults)
        slow = make_fault_model("slow:0.2")
        assert isinstance(slow, LatencySpikeFaults)
        assert slow.scale == 10.0

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown fault term"):
            make_fault_model("explode:0.5")
        with pytest.raises(ValueError, match="bad fault term"):
            make_fault_model("drop:not-a-number")


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base=10.0, backoff_factor=2.0, jitter=0.0)
        rng = make_rng(1)
        assert policy.backoff(1, rng) == 10.0
        assert policy.backoff(2, rng) == 20.0
        assert policy.backoff(3, rng) == 40.0

    def test_jitter_bounds(self):
        policy = RetryPolicy(backoff_base=100.0, backoff_factor=1.0, jitter=0.2)
        rng = make_rng(2)
        for _ in range(100):
            assert 80.0 <= policy.backoff(1, rng) <= 120.0

    def test_allows_caps_attempts_and_deadline(self):
        policy = RetryPolicy(max_attempts=3, deadline=1000.0)
        assert policy.allows(3, 0.0)
        assert not policy.allows(4, 0.0)
        assert not policy.allows(2, 1000.0)

    def test_expected_overhead_zero_without_failures(self):
        policy = RetryPolicy()
        assert policy.expected_overhead(0.0, 100.0) == 0.0

    def test_expected_overhead_monotone_in_failure_rate(self):
        policy = RetryPolicy()
        overheads = [policy.expected_overhead(p, 100.0) for p in (0.1, 0.3, 0.5, 0.8)]
        assert overheads == sorted(overheads)
        assert overheads[0] > 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestCircuitBreaker:
    def test_opens_at_threshold(self):
        breaker = CircuitBreaker(failure_threshold=0.5)
        half = BREAKER_MIN_SAMPLES // 2
        for _ in range(half):
            assert not breaker.record(True, 0.0)
        opened = [breaker.record(False, float(i)) for i in range(half)]
        assert breaker.state(10.0) == BREAKER_OPEN
        assert opened == [False] * (half - 1) + [True]
        assert not breaker.allow(10.0)

    def test_needs_min_samples(self):
        breaker = CircuitBreaker()
        for i in range(BREAKER_MIN_SAMPLES - 1):
            breaker.record(False, float(i))
        assert breaker.state(10.0) == BREAKER_CLOSED
        # The failure that fills the window to the minimum trips it.
        breaker.record(False, 10.0)
        assert breaker.state(10.0) == BREAKER_OPEN

    def test_half_open_probe_closes_on_success(self):
        breaker = CircuitBreaker(cooldown=100.0)
        for i in range(BREAKER_MIN_SAMPLES):
            breaker.record(False, float(i))
        assert breaker.state(50.0) == BREAKER_OPEN
        assert breaker.state(200.0) == BREAKER_HALF_OPEN
        assert breaker.allow(200.0)  # the probe
        breaker.record(True, 210.0)
        assert breaker.state(210.0) == BREAKER_CLOSED
        # The window was reset: old failures do not instantly re-open.
        breaker.record(False, 220.0)
        assert breaker.state(220.0) == BREAKER_CLOSED

    def test_half_open_probe_reopens_on_failure(self):
        breaker = CircuitBreaker(cooldown=100.0)
        opened = [breaker.record(False, float(i)) for i in range(BREAKER_MIN_SAMPLES)]
        assert breaker.allow(200.0)
        assert breaker.record(False, 210.0)
        assert breaker.state(250.0) == BREAKER_OPEN
        assert opened.count(True) == 1

    def test_failure_window_slides(self):
        window = FailureWindow(size=4)
        for _ in range(4):
            window.record(False)
        assert window.failure_rate() == 1.0
        for _ in range(4):
            window.record(True)
        assert window.failure_rate() == 0.0


class TestBreakerBoard:
    @pytest.mark.parametrize("breaker_class", [CircuitBreaker, BreakerBoard])
    @pytest.mark.parametrize("knobs", [
        {"failure_threshold": 0.0}, {"failure_threshold": 1.5}, {"failure_threshold": -0.5},
        {"cooldown": 0.0}, {"cooldown": -1.0},
    ])
    def test_invalid_parameters(self, breaker_class, knobs):
        # A board rejects bad knobs when built, not at a run's first allow().
        with pytest.raises(ValueError):
            breaker_class(**knobs)

    def test_per_source_isolation(self):
        board = BreakerBoard()
        opened = [board.record("bad", False, float(i)) for i in range(BREAKER_MIN_SAMPLES)]
        assert not board.available("bad", 10.0)
        assert board.available("good", 10.0)
        assert opened.count(True) == 1

    def test_available_is_pure(self):
        board = BreakerBoard(cooldown=100.0)
        for i in range(BREAKER_MIN_SAMPLES):
            board.record("s", False, float(i))
        # `available` during cooldown must not flip any state.
        assert not board.available("s", 50.0)
        assert board.state("s", 50.0) == BREAKER_OPEN
        # After cooldown the probe is reported available but state untouched.
        assert board.available("s", 200.0)
        assert board.failure_rate("s") == 1.0


class TestTransportFaultPaths:
    def _store(self):
        store = RemoteStore()
        store.put("t", 1, "one")
        return store

    def test_transient_error_retried_to_success(self):
        # Error on attempt 1 only; attempt 2 succeeds.
        class OneError(NoFaults):
            def decide(self, key, now, attempt, rng):
                return FaultDecision(ERROR) if attempt == 1 else FaultDecision(OK)

        transport = Transport(
            self._store(), FixedLatency(10.0), make_rng(1),
            fault_model=OneError(), fault_rng=make_rng(2),
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=5.0, jitter=0.0),
        )
        request = transport.submit(FetchRequest(("t", 1), at=0.0, mode=MODE_BLOCKING))
        assert request.ok
        assert request.attempt == 2
        # error known at 10, backoff 5, reissue at 15, arrives at 25
        assert request.arrives_at == pytest.approx(25.0)
        assert transport.stats.retries == 1
        assert transport.stats.failed_fetches == 0

    def test_exhausted_retries_fail_terminally(self):
        transport = Transport(
            self._store(), FixedLatency(10.0), make_rng(1),
            fault_model=TransientErrorFaults(1.0), fault_rng=make_rng(2),
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=5.0, jitter=0.0),
        )
        request = transport.submit(FetchRequest(("t", 1), at=0.0, mode=MODE_BLOCKING))
        assert not request.ok
        assert request.attempt == 3
        assert transport.stats.retries == 2
        assert transport.stats.failed_fetches == 1

    def test_drop_known_only_at_attempt_timeout(self):
        transport = Transport(
            self._store(), FixedLatency(10.0), make_rng(1),
            fault_model=DropFaults(1.0), fault_rng=make_rng(2),
            retry_policy=RetryPolicy(max_attempts=1, attempt_timeout=300.0),
        )
        request = transport.submit(FetchRequest(("t", 1), at=0.0, mode=MODE_BLOCKING))
        assert not request.ok
        assert request.error == "timeout"
        assert request.arrives_at == pytest.approx(300.0)

    def test_async_retry_reenters_in_flight(self):
        class OneError(NoFaults):
            def decide(self, key, now, attempt, rng):
                return FaultDecision(ERROR) if attempt == 1 else FaultDecision(OK)

        transport = Transport(
            self._store(), FixedLatency(10.0), make_rng(1),
            fault_model=OneError(), fault_rng=make_rng(2),
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=5.0, jitter=0.0),
        )
        transport.submit(FetchRequest(("t", 1), at=0.0))
        # Failure known at 10; nothing deliverable yet, the retry is pending.
        assert transport.deliver_due(12.0) == []
        assert transport.pending_count() == 1
        delivered = transport.deliver_due(30.0)
        assert len(delivered) == 1
        assert delivered[0].ok
        assert delivered[0].attempt == 2

    def test_retry_deadline_respected(self):
        transport = Transport(
            self._store(), FixedLatency(10.0), make_rng(1),
            fault_model=TransientErrorFaults(1.0), fault_rng=make_rng(2),
            retry_policy=RetryPolicy(
                max_attempts=100, backoff_base=50.0, backoff_factor=1.0,
                jitter=0.0, deadline=200.0,
            ),
        )
        request = transport.submit(FetchRequest(("t", 1), at=0.0, mode=MODE_BLOCKING))
        assert not request.ok
        # attempts at 0, 60, 120, 180; failure of the 4th known at 190;
        # elapsed 190 < 200 allows a 5th at 240 whose failure (250) stops it.
        assert request.attempt <= 5
        assert request.arrives_at - request.first_issued_at < 200.0 + 60.0 + 10.0

    def test_breaker_fastfails_block_wire_attempts(self):
        board = BreakerBoard(failure_threshold=0.5, cooldown=1_000.0)
        # One blocking chain fails often enough to trip the breaker.
        transport = Transport(
            self._store(), FixedLatency(10.0), make_rng(1),
            fault_model=TransientErrorFaults(1.0), fault_rng=make_rng(2),
            retry_policy=RetryPolicy(max_attempts=BREAKER_MIN_SAMPLES, backoff_base=5.0,
                                     jitter=0.0),
            breakers=board,
        )
        first = transport.submit(FetchRequest(("t", 1), at=0.0, mode=MODE_BLOCKING))
        assert not first.ok
        assert not board.available("t", first.arrives_at)
        # While open: no latency draw, instant failure.
        request = transport.submit(FetchRequest(("t", 1), at=first.arrives_at + 1.0, mode=MODE_BLOCKING))
        assert request.error == "breaker_open"
        assert request.arrives_at == first.arrives_at + 1.0
        assert transport.stats.breaker_fastfails >= 1

    def test_breaker_recovers_after_cooldown(self):
        board = BreakerBoard(failure_threshold=0.5, cooldown=100.0)

        class FailUntil(NoFaults):
            def decide(self, key, now, attempt, rng):
                return FaultDecision(ERROR) if now < 1_000.0 else FaultDecision(OK)

        transport = Transport(
            self._store(), FixedLatency(10.0), make_rng(1),
            fault_model=FailUntil(), fault_rng=make_rng(2),
            retry_policy=RetryPolicy(max_attempts=BREAKER_MIN_SAMPLES, backoff_base=5.0,
                                     jitter=0.0),
            breakers=board,
        )
        first = transport.submit(FetchRequest(("t", 1), at=0.0, mode=MODE_BLOCKING))
        assert not first.ok
        assert not board.available("t", first.arrives_at)
        # After cooldown the half-open probe succeeds and closes the breaker.
        probe = transport.submit(FetchRequest(("t", 1), at=2_000.0, mode=MODE_BLOCKING))
        assert probe.ok
        assert board.state("t", 2_020.0) == BREAKER_CLOSED

    def test_effective_estimate_inflated_by_failures(self):
        board = BreakerBoard()
        transport = Transport(
            self._store(), FixedLatency(10.0), make_rng(1),
            retry_policy=RetryPolicy(),
            breakers=board,
        )
        healthy = transport.effective_estimate(("t", 1))
        board.record("t", False, 0.0)
        board.record("t", True, 1.0)
        assert transport.effective_estimate(("t", 1)) > healthy

    def test_blocking_takes_over_doomed_async_chain(self):
        class OneError(NoFaults):
            def decide(self, key, now, attempt, rng):
                return FaultDecision(ERROR) if attempt == 1 else FaultDecision(OK)

        transport = Transport(
            self._store(), FixedLatency(10.0), make_rng(1),
            fault_model=OneError(), fault_rng=make_rng(2),
            retry_policy=RetryPolicy(max_attempts=3, backoff_base=5.0, jitter=0.0),
        )
        transport.submit(FetchRequest(("t", 1), at=0.0))
        # The async attempt will fail at 10; a blocking caller at 5 drives
        # the whole retry chain synchronously and gets the final success.
        request = transport.submit(FetchRequest(("t", 1), at=5.0, mode=MODE_BLOCKING))
        assert request.ok
        assert request.attempt == 2
        assert transport.stats.blocking_fetches == 0
        assert transport.stats.coalesced == 1
