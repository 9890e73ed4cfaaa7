"""White-box tests of strategy internals: tiers, delivery, staging."""

from collections import Counter

import pytest

from repro.cache.cost_based import CostBasedCache
from repro.core.config import CACHE_COST, GREEDY, EiresConfig
from repro.core.framework import EIRES
from repro.engine.interface import POSTPONED
from repro.events.event import Event
from repro.obs.spans import SpanTracker
from repro.obs.trace import MemorySink, Tracer
from repro.query.ast import Query
from repro.query.parser import parse_query
from repro.remote.faults import ERROR, OK, FaultDecision, NoFaults
from repro.remote.store import RemoteStore
from repro.remote.transport import FixedLatency
from repro.runtime import QuerySpec, RuntimeBuilder
from repro.workloads.cluster import ClusterConfig, cluster_workload
from repro.workloads.synthetic import SyntheticConfig, q1_workload, q2_workload


def build(strategy="Hybrid", latency=100.0, cache_policy="cost", capacity=16):
    query = parse_query(
        "SEQ(A a, B b, C c) WHERE SAME[id] AND b.v IN REMOTE[a.v] WITHIN 100000",
        name="t",
    )
    store = RemoteStore()
    store.register_source("v", lambda key: frozenset(range(10)))
    return EIRES(query, store, FixedLatency(latency), strategy=strategy,
                 config=EiresConfig(cache_capacity=capacity, cache_policy=cache_policy))


class _FailFirstAttempt(NoFaults):
    def decide(self, key, now, attempt, rng):
        return FaultDecision(ERROR if attempt == 1 else OK)


class TestAsyncDelivery:
    def test_prefetch_lands_in_speculative_tier(self):
        eires = build()
        strategy = eires.strategy
        strategy._fetch_async_prefetch(("v", 1))
        eires.clock.advance(200.0)
        eires.transport.deliver_due(eires.clock.now)
        cache = eires.cache
        assert isinstance(cache, CostBasedCache)
        assert ("v", 1) in cache._tiers[CostBasedCache.TIER_SPECULATIVE]

    def test_lazy_fetch_lands_in_certain_tier(self):
        eires = build()
        strategy = eires.strategy
        strategy._fetch_async_lazy([("v", 2)])
        eires.clock.advance(200.0)
        eires.transport.deliver_due(eires.clock.now)
        assert ("v", 2) in eires.cache._tiers[CostBasedCache.TIER_CERTAIN]

    def test_lazy_need_upgrades_inflight_prefetch(self):
        # A speculative prefetch followed by a lazy need for the same key
        # must deliver into the certain tier: its use became guaranteed.
        eires = build()
        strategy = eires.strategy
        strategy._fetch_async_prefetch(("v", 3))
        strategy._fetch_async_lazy([("v", 3)])
        assert eires.transport.stats.async_fetches == 1  # coalesced on the wire
        eires.clock.advance(200.0)
        eires.transport.deliver_due(eires.clock.now)
        assert ("v", 3) in eires.cache._tiers[CostBasedCache.TIER_CERTAIN]

    def test_a_retry_keeps_the_tier(self):
        # The tier rides the ticket: a failed lazy fetch's follow-up attempt
        # still lands in the certain tier.
        eires = build()
        transport = eires.transport
        transport._fault_model = _FailFirstAttempt()
        eires.strategy._fetch_async_lazy([("v", 5)])
        first = transport.in_flight(("v", 5))
        assert not first.ok and first.certain
        eires.clock.advance(200.0)
        eires.transport.deliver_due(eires.clock.now)
        follow_up = transport.in_flight(("v", 5))
        assert follow_up is not first and follow_up.certain
        eires.clock.advance(1_000.0)
        eires.transport.deliver_due(eires.clock.now)
        assert transport.stats.retries == 1
        assert ("v", 5) in eires.cache._tiers[CostBasedCache.TIER_CERTAIN]

    def test_nothing_delivered_before_arrival(self):
        eires = build()
        strategy = eires.strategy
        strategy._fetch_async_prefetch(("v", 4))
        eires.clock.advance(50.0)  # latency is 100
        eires.transport.deliver_due(eires.clock.now)
        assert ("v", 4) not in eires.cache


class TestBlockingRounds:
    def test_block_for_waits_out_inflight_remainder(self):
        eires = build(latency=100.0)
        strategy = eires.strategy
        strategy._fetch_async_prefetch(("v", 5))  # arrives at t=100
        eires.clock.advance(80.0)
        values = strategy._block_for([("v", 5)])
        # Only the remaining 20us were waited, not a fresh 100.
        assert eires.clock.now == pytest.approx(100.0)
        assert values[("v", 5)] == frozenset(range(10))

    def test_block_for_consumes_the_inflight_fetch(self):
        # Joining a pending prefetch takes it out of flight: the response is
        # put once, by the blocking round, and never delivered again.
        eires = build(latency=100.0)
        strategy = eires.strategy
        strategy._fetch_async_prefetch(("v", 5))
        eires.clock.advance(80.0)
        strategy._block_for([("v", 5)])
        assert eires.transport.in_flight(("v", 5)) is None
        assert eires.transport.stats.coalesced == 1
        eires.clock.advance(500.0)
        eires.transport.deliver_due(eires.clock.now)
        assert eires.cache.stats.insertions == 1
        assert ("v", 5) in eires.cache._tiers[CostBasedCache.TIER_CERTAIN]

    def test_concurrent_block_stall_is_max_not_sum(self):
        eires = build(latency=100.0)
        strategy = eires.strategy
        start = eires.clock.now
        strategy._block_for([("v", 6), ("v", 7), ("v", 8)])
        assert eires.clock.now - start == pytest.approx(100.0)

    def test_repeated_key_costs_one_lookup_and_one_request(self):
        # Two references to one element within a predicate (two regions that
        # resolve to one machine) are one distinct key: the snapshot reports
        # it missing once, so the blocking round asks for it once.
        eires = build()
        strategy = eires.strategy
        key = ("v", 9)
        values, missing = strategy._collect([key, key])
        assert values == {} and missing == [key]
        values = strategy._block_for(missing)
        assert values == {key: frozenset(range(10))}
        assert eires.cache.stats.misses == 1
        assert eires.cache.stats.insertions == 1
        assert eires.transport.stats.wire_requests == 1

    def test_staged_values_survive_cache_eviction(self):
        eires = build(capacity=1)  # one-entry cache: everything evicts
        strategy = eires.strategy
        from repro.nfa.run import Obligation, Run

        automaton = eires.automaton
        a_event = Event(1.0, {"type": "A", "id": 1, "v": 1}, seq=0)
        b_event = Event(2.0, {"type": "B", "id": 1, "v": 2}, seq=1)
        run = Run.start(automaton.states[1], "a", a_event, 1.0)
        predicate = automaton.transitions[1].remote_predicates[0]
        env = {"a": a_event, "b": b_event}
        run.obligations = (
            Obligation((predicate,), negated=False, issued_at=0.0, env=env),
        )
        strategy.prepare_blocking(run)
        # Even with the one-entry cache thrashing, the staged snapshot
        # resolves the obligation without further fetches.
        outcome = strategy.resolve_obligation_predicate(predicate, env, blocking=False)
        assert outcome is not POSTPONED
        strategy.finish_blocking()
        assert strategy._staged == {}


class TestResolvePredicate:
    def _env_pair(self, eires):
        a_event = Event(1.0, {"type": "A", "id": 1, "v": 1}, seq=0)
        b_event = Event(2.0, {"type": "B", "id": 1, "v": 2}, seq=1)
        from repro.nfa.run import Run

        run = Run.start(eires.automaton.states[1], "a", a_event, 1.0)
        return run, {"a": a_event, "b": b_event}

    def test_bl2_blocks_and_answers(self):
        eires = build(strategy="BL2")
        run, env = self._env_pair(eires)
        transition = eires.automaton.transitions[1]
        predicate = transition.remote_predicates[0]
        outcome = eires.strategy.resolve_predicate(transition, predicate, run, env)
        assert outcome is True  # 2 in range(10)
        assert eires.strategy.stats.blocking_stalls == 1

    def test_bl3_postpones_without_fetching(self):
        eires = build(strategy="BL3")
        run, env = self._env_pair(eires)
        transition = eires.automaton.transitions[1]
        predicate = transition.remote_predicates[0]
        outcome = eires.strategy.resolve_predicate(transition, predicate, run, env)
        assert outcome is POSTPONED
        assert eires.transport.stats.async_fetches == 0
        assert eires.transport.stats.blocking_fetches == 0

    def test_lzeval_postpones_and_fetches(self):
        eires = build(strategy="LzEval")
        # Warm the rate estimator so the benefit model has data.
        for i in range(40):
            eires.rates.observe_event("ABC"[i % 3], i * 10.0)
        run, env = self._env_pair(eires)
        transition = eires.automaton.transitions[1]
        predicate = transition.remote_predicates[0]
        outcome = eires.strategy.resolve_predicate(transition, predicate, run, env)
        assert outcome is POSTPONED
        assert eires.transport.stats.async_fetches == 1  # the fetch is in flight


def _q1_hybrid():
    workload = q1_workload(SyntheticConfig(n_events=600, id_domain=5, window_events=120))
    return workload, EiresConfig(), 1


def _fig10b_hybrid():
    workload = cluster_workload(ClusterConfig(n_tasks=500))
    config = EiresConfig(policy=GREEDY, cache_policy=CACHE_COST,
                         cache_capacity=workload.notes["cache_capacity"])
    return workload, config, 1


def _q1_three_subscribers():
    workload, config, _ = _q1_hybrid()
    return workload, config, 3


def _q2_tight_burst():
    # A cache far below the working set, batch windows, and outage bursts
    # that split batches, trip breakers and serve stale values.
    workload = q2_workload(SyntheticConfig(n_events=700, id_domain=16, window_events=200))
    config = EiresConfig(policy=GREEDY, cache_capacity=40, batch_window=50.0,
                         batch_max_keys=8, fault_profile="burst")
    return workload, config, 1


class TestEachOutcomeOnce:
    """Each fetch outcome reaches the fetch plane once: a ticket is handed
    over either by a blocking round or by ``deliver_due``, never by both —
    alone, for renamed subscribers of one shared session, and on a faulted,
    batched plane."""

    @pytest.mark.parametrize(
        "make", [_q1_hybrid, _fig10b_hybrid, _q1_three_subscribers, _q2_tight_burst],
        ids=["q1", "fig10b", "q1-three-subscribers", "q2-tight-burst"],
    )
    def test_no_ticket_is_handed_over_twice(self, make):
        workload, config, subscribers = make()
        sink = MemorySink()
        query = workload.query
        builder = RuntimeBuilder(workload.store, workload.latency_model, config=config,
                                 tracer=Tracer(sink))
        for n in range(subscribers):
            name = query.name if n == 0 else f"{query.name}-{n}"
            builder.add_spec(QuerySpec(Query(query.pattern, query.conditions, query.window,
                                             name=name), strategy="Hybrid"))
        runtime = builder.build()
        (session,) = runtime.sessions
        transport = runtime.transport
        handed = []
        deliver_due = transport.deliver_due

        def delivering(now):
            delivered = deliver_due(now)
            handed.extend(delivered)
            return delivered

        class Stalls(SpanTracker):
            __slots__ = ()

            def add_stall(self, start, end, tickets):
                # Every ticket a blocking round consumes passes through here.
                handed.extend(tickets)
                return super().add_stall(start, end, tickets)

        transport.deliver_due, session.strategy.spans = delivering, Stalls()
        results = runtime.run(workload.stream)
        assert len(results) == subscribers
        repeated = [n for n in Counter(map(id, handed)).values() if n > 1]
        assert handed and not repeated
        completes = [r for r in sink.records if (r["cat"], r["name"]) == ("fetch", "complete")]
        assert len(completes) == len(handed)
