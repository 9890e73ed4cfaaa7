"""Tests for multi-query evaluation with a shared cache (§4.1)."""

import pytest

from repro.core.config import CACHE_COST, EiresConfig
from repro.core.framework import EIRES
from repro.obs.trace import MemorySink, Tracer
from repro.query.ast import Query
from repro.query.parser import parse_query
from repro.remote.store import RemoteStore
from repro.remote.transport import MODE_BLOCKING, FixedLatency
from repro.runtime import QuerySpec, RuntimeBuilder
from repro.workloads.synthetic import SyntheticConfig, q1_workload, q2_workload

from tests.helpers import random_stream


def two_queries():
    """Two queries over the same stream, sharing the remote source ``v``."""
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


def renamed(query, name):
    return Query(query.pattern, query.conditions, query.window, name=name)


def build_runtime(specs, store, latency, config=None, tracer=None):
    builder = RuntimeBuilder(store, latency, config=config, tracer=tracer)
    for spec in specs:
        builder.add_spec(spec)
    return builder.build()


class TestMultiQueryBasics:
    def test_requires_queries(self):
        _, _, store = two_queries()
        with pytest.raises(ValueError):
            build_runtime([], store, FixedLatency(10.0))

    def test_duplicate_names_rejected(self):
        q_ab, _, store = two_queries()
        with pytest.raises(ValueError, match="unique"):
            build_runtime([QuerySpec(q_ab), QuerySpec(q_ab)], store, FixedLatency(10.0))

    def test_invalid_priority(self):
        q_ab, _, store = two_queries()
        with pytest.raises(ValueError):
            QuerySpec(q_ab, priority=0.0)

    def test_results_keyed_by_query(self):
        q_ab, q_ac, store = two_queries()
        runtime = build_runtime(
            [QuerySpec(q_ab), QuerySpec(q_ac)], store, FixedLatency(20.0),
            config=EiresConfig(cache_capacity=50),
        )
        results = runtime.run(random_stream(200, seed=3))
        assert set(results) == {"ab", "ac"}
        assert all(result.match_count > 0 for result in results.values())


class TestEquivalenceWithSingleQuery:
    def test_same_matches_as_isolated_runs(self):
        q_ab, q_ac, store = two_queries()
        stream = random_stream(250, seed=9)
        shared = build_runtime(
            [QuerySpec(q_ab), QuerySpec(q_ac)], store, FixedLatency(20.0),
            config=EiresConfig(cache_capacity=50),
        ).run(stream)
        for query in (q_ab, q_ac):
            isolated = EIRES(query, store, FixedLatency(20.0), strategy="Hybrid",
                             config=EiresConfig(cache_capacity=50)).run(stream)
            assert shared[query.name].match_signatures() == isolated.match_signatures()


class TestSharing:
    def test_shared_elements_fetched_once(self):
        # Both queries need the same a.v elements; the shared cache lets the
        # second query reuse what the first fetched.
        q_ab, q_ac, store = two_queries()
        stream = random_stream(300, seed=5)
        runtime = build_runtime(
            [QuerySpec(q_ab, strategy="BL2"), QuerySpec(q_ac, strategy="BL2")],
            store, FixedLatency(50.0), config=EiresConfig(cache_capacity=100),
        )
        results = runtime.run(stream)
        shared_stalls = sum(r.summary()["fetch.blocking_stalls"] for r in results.values())

        isolated_stalls = 0
        for query in (q_ab, q_ac):
            isolated = EIRES(query, store, FixedLatency(50.0), strategy="BL2",
                             config=EiresConfig(cache_capacity=100)).run(stream)
            isolated_stalls += isolated.summary()["fetch.blocking_stalls"]
        assert shared_stalls < isolated_stalls

    def test_priority_weights_shared_utility(self):
        q_ab, q_ac, store = two_queries()
        runtime = build_runtime(
            [QuerySpec(q_ab, priority=3.0), QuerySpec(q_ac, priority=1.0)],
            store, FixedLatency(20.0), config=EiresConfig(cache_capacity=50),
        )
        # Seed one live partial match for the high-priority query.
        from repro.events.event import Event
        from repro.nfa.run import Run

        ab_runtime = runtime.sessions[0]
        assert ab_runtime.spec.priority == 3.0
        a_state = ab_runtime.automaton.states[1]
        run = Run.start(a_state, "a", Event(1.0, {"type": "A", "id": 1, "v": 7}, seq=0))
        ab_runtime.utility.on_runs_created((run,))
        weighted = runtime.shared_utility(("v", 7))
        single = ab_runtime.utility.value(("v", 7), runtime.config.omega_cache)
        assert weighted == pytest.approx(3.0 * single)


class TestCacheTierAcrossSessions:
    def test_tier_does_not_depend_on_which_session_delivers(self):
        # Whichever session's deliver_due pops a response, it enters the tier
        # its submitter chose: a T1 (certain) admit follows a certain need
        # for that key — some session's blocking stall or postponement —
        # since the key was last admitted; a prefetch lands in T2.
        workload = q1_workload(SyntheticConfig(n_events=1500, id_domain=5, window_events=120))
        q1 = workload.query
        sink = MemorySink()
        runtime = build_runtime(
            [QuerySpec(Query(q1.pattern, q1.conditions, q1.window, name="qa"),
                       priority=2.0, strategy="BL2"),
             QuerySpec(Query(q1.pattern, q1.conditions, q1.window, name="qb"),
                       strategy="PFetch")],
            workload.store, workload.latency_model,
            config=EiresConfig(cache_capacity=60, cache_policy=CACHE_COST), tracer=Tracer(sink),
        )
        runtime.run(workload.stream)
        needed, certain_admits, unneeded = set(), 0, []
        for record in sink.records:
            kind = (record["cat"], record["name"])
            if kind in (("fetch", "stall"), ("obligation", "postpone")):
                needed.update(map(tuple, record["keys"]))
            elif kind == ("cache", "admit"):
                key = tuple(record["key"])
                if record["certain"]:
                    certain_admits += 1
                    if key not in needed:
                        unneeded.append(key)
                needed.discard(key)
        assert certain_admits > 0
        assert unneeded == []


def _small(make):
    return make(SyntheticConfig(n_events=800, id_domain=20, window_events=200))


def _mixed_runtime(workload, first, second, config=None):
    """Two sessions of ``workload``'s query on one runtime, ``first`` ahead."""
    query = workload.query
    return build_runtime(
        [QuerySpec(renamed(query, "qa"), priority=2.0, strategy=first),
         QuerySpec(renamed(query, "qb"), strategy=second)],
        workload.store, workload.latency_model, config=config,
    )


class TestOneOwnerPerResponse:
    """The transport puts every async response into the runtime's one cache
    and keeps the one last-known table: a cacheless session (BL1, BL3) that
    happens to pop a response, or fetched a value, keeps it for the others."""

    @pytest.mark.parametrize("cacheless_first", [True, False], ids=["cacheless-first",
                                                                     "cacheless-second"])
    @pytest.mark.parametrize("eires", ["PFetch", "LzEval", "Hybrid"])
    @pytest.mark.parametrize("cacheless", ["BL1", "BL3"])
    @pytest.mark.parametrize("make", [q1_workload, q2_workload], ids=["q1", "q2"])
    def test_each_async_response_enters_the_cache_once(
        self, make, cacheless, eires, cacheless_first
    ):
        workload = _small(make)
        order = (cacheless, eires) if cacheless_first else (eires, cacheless)
        runtime = _mixed_runtime(workload, *order)
        transport, cache = runtime.transport, runtime.cache
        puts = []
        put = cache.put

        def recording_put(element, now, certain=False):
            puts.append((id(element), certain))
            return put(element, now, certain=certain)

        deliver_due = transport.deliver_due
        delivered_ok, unmatched = [], []

        def delivering(now):
            start = len(puts)
            delivered = deliver_due(now)
            ok = [(id(ticket.element), ticket.certain) for ticket in delivered if ticket.ok]
            delivered_ok.extend(ok)
            if puts[start:] != ok:  # each success, in order, in its tier
                unmatched.append(now)
            return delivered

        cache.put, transport.deliver_due = recording_put, delivering
        runtime.run(workload.stream)
        assert delivered_ok and unmatched == []

    def test_a_cacheless_session_costs_hybrid_nothing(self):
        # Q2, BL3 ranked first: at the parent design BL3 popped Hybrid's
        # prefetches and dropped them (108 stalls, 766 async fetches).
        workload = _small(q2_workload)
        results = _mixed_runtime(workload, "BL3", "Hybrid").run(workload.stream)
        isolated = EIRES(workload.query, workload.store, workload.latency_model,
                         strategy="Hybrid").run(workload.stream).summary()
        shared = results["qb"].summary()
        for counter in ("fetch.blocking_stalls", "transport.async_fetches"):
            assert shared[counter] == isolated[counter], counter
        assert results["qb"].match_count == results["qa"].match_count

    def test_a_session_serves_stale_what_another_fetched(self):
        # BL1 + BL2 on a faulted plane (both only block; BL1 keeps no cache):
        # BL2 serves stale some key only BL1 ever fetched.
        workload = _small(q1_workload)
        runtime = _mixed_runtime(workload, "BL1", "BL2",
                                 config=EiresConfig(fault_profile="error:0.3"))
        transport = runtime.transport
        fetched = {"BL1": set(), "BL2": set()}
        borrowed = {"BL1": set(), "BL2": set()}
        asking = []
        submit = transport.submit

        def submitting(request):
            ticket = submit(request)
            if ticket.ok:
                fetched[asking[-1]].add(ticket.key)
            return ticket

        def watch(strategy):
            block_for = strategy._block_for

            def blocking(keys):
                asking.append(strategy.name)
                values = block_for(keys)
                asking.pop()
                # A value this session had not fetched itself was served stale.
                borrowed[strategy.name].update(set(values) - fetched[strategy.name])
                return values

            strategy._block_for = blocking

        transport.submit = submitting
        for session in runtime.sessions:
            watch(session.strategy)
        runtime.run(workload.stream)
        assert borrowed["BL2"] and borrowed["BL2"] <= fetched["BL1"]

    @pytest.mark.parametrize("eires", ["PFetch", "LzEval", "Hybrid"])
    @pytest.mark.parametrize("cacheless", ["BL1", "BL3"])
    def test_a_blocking_join_hands_its_response_to_the_cache(self, cacheless, eires):
        # A cacheless session that blocks on a key another session has in
        # flight consumes the only response: its round puts it, in T1.  (The
        # small Q1 stream makes no such join.)
        workload = _small(q2_workload)
        runtime = _mixed_runtime(workload, eires, cacheless)
        transport, cache = runtime.transport, runtime.cache
        joined, lost = [], []
        submit = transport.submit

        def submitting(request):
            pending = transport.in_flight(request.key)
            ticket = submit(request)
            if request.mode == MODE_BLOCKING and pending is not None and ticket.ok:
                joined.append(ticket.key)
            return ticket

        strategy = runtime.session("qb").strategy
        block_for = strategy._block_for

        def blocking(keys):
            start = len(joined)
            values = block_for(keys)
            lost.extend(key for key in joined[start:] if key not in cache)
            return values

        transport.submit, strategy._block_for = submitting, blocking
        runtime.run(workload.stream)
        assert joined and lost == []
