"""Behavioural latency tests: the EIRES effects the paper builds on.

These tests pin down *why* each strategy wins or loses — transmission
stalls, queueing behind a busy engine, prefetch hiding, postponement — on
small deterministic scenarios where the expected virtual-time behaviour can
be reasoned out by hand.
"""

import pytest

from repro.events.event import Event
from repro.events.stream import Stream
from repro.query.parser import parse_query
from repro.remote.store import RemoteStore
from repro.remote.transport import FixedLatency

from tests.helpers import make_abc_scenario, random_stream, run_eires

LATENCY = 500.0


def two_remote_query():
    """Two remote predicates at different states (the Q1 structure)."""
    query = parse_query(
        """
        SEQ(A a, B b, C c, D d)
        WHERE SAME[id] AND c.v IN REMOTE<r1>[a.v] AND d.v IN REMOTE<r2>[b.v]
        WITHIN 10000
        """,
        name="two-remote",
    )
    store = RemoteStore()
    store.register_source("r1", lambda key: frozenset(range(10)))
    store.register_source("r2", lambda key: frozenset(range(10)))
    return query, store


def chain_events(n_chains=1, id_start=1, gap=10.0, distinct_keys=False):
    events = []
    t = 0.0
    for chain in range(n_chains):
        identifier = id_start + chain
        value = chain if distinct_keys else 1
        for event_type in "ABCD":
            t += gap
            events.append(Event(t, {"type": event_type, "id": identifier, "v": value}))
    return Stream(events)


class TestBlockingCosts:
    def test_bl1_pays_transmission_latency_per_need(self):
        query, store = two_remote_query()
        result = run_eires(
            query, store, chain_events(), strategy="BL1", latency=FixedLatency(LATENCY)
        )
        assert result.match_count == 1
        # Two stalls: one when C arrives (r1), one when D arrives (r2); only
        # the second is between the last event and detection.
        assert result.summary()["fetch.blocking_stalls"] == 2
        assert result.matches[0].latency >= LATENCY

    def test_bl1_repays_latency_for_repeated_needs(self):
        query, store = make_abc_scenario()
        stream = random_stream(120, seed=21)
        bl1 = run_eires(query, store, stream, strategy="BL1", latency=FixedLatency(LATENCY))
        bl2 = run_eires(query, store, stream, strategy="BL2", latency=FixedLatency(LATENCY))
        # The cache saves BL2 most re-fetches of hot keys.
        assert bl2.summary()["fetch.blocking_stalls"] < bl1.summary()["fetch.blocking_stalls"]
        assert bl2.latency.median() <= bl1.latency.median()

    def test_stall_blocks_subsequent_events_queueing(self):
        # One blocking fetch delays the *next* unrelated event's processing:
        # queueing delay is part of detection latency (§2.2).
        query = parse_query(
            "SEQ(A a, B b) WHERE SAME[id] AND b.v IN REMOTE[a.v] WITHIN 10000",
            name="q",
        )
        store = RemoteStore()
        store.register_source("v", lambda key: frozenset({1}))
        events = Stream(
            [
                Event(10.0, {"type": "A", "id": 1, "v": 1}),
                Event(20.0, {"type": "B", "id": 1, "v": 1}),  # stalls 500us
                Event(30.0, {"type": "A", "id": 2, "v": 1}),
                Event(40.0, {"type": "B", "id": 2, "v": 1}),  # queued behind stall
            ]
        )
        result = run_eires(query, store, events, strategy="BL1", latency=FixedLatency(LATENCY))
        assert result.match_count == 2
        latencies = sorted(match.latency for match in result.matches)
        # The second match waited out (most of) the first match's stall, then
        # paid its own fetch.
        assert latencies[1] >= 2 * LATENCY * 0.9


class TestDeferredFetching:
    def test_bl3_single_concurrent_stall_at_final_state(self):
        query, store = two_remote_query()
        result = run_eires(
            query, store, chain_events(), strategy="BL3", latency=FixedLatency(LATENCY)
        )
        assert result.match_count == 1
        # Both elements are fetched in one round at the final state: one
        # stall, with the match latency around one transmission latency
        # rather than two.
        assert result.summary()["fetch.blocking_stalls"] == 1
        assert result.matches[0].latency == pytest.approx(LATENCY, rel=0.1)

    def test_bl3_creates_more_partial_matches(self):
        query, store = make_abc_scenario(set_members=frozenset())  # selective remote
        stream = random_stream(200, seed=13)
        bl2 = run_eires(query, store, stream, strategy="BL2")
        bl3 = run_eires(query, store, stream, strategy="BL3")
        assert bl3.summary()["engine.peak_active_runs"] > bl2.summary()["engine.peak_active_runs"]


class TestPrefetching:
    def test_pfetch_hides_latency_on_chain(self):
        query, store = two_remote_query()
        # Both remote keys (a.v, b.v) are bound well before their needs (at
        # C and D), and the inter-event gap exceeds the transmission latency:
        # lookahead prefetching can hide the full latency.  Distinct keys per
        # chain keep the cache from masking the effect.
        stream = chain_events(n_chains=30, distinct_keys=True)
        pfetch = run_eires(query, store, stream, strategy="PFetch", latency=FixedLatency(8.0))
        bl2 = run_eires(query, store, stream, strategy="BL2", latency=FixedLatency(8.0))
        assert pfetch.summary()["fetch.prefetches_issued"] > 0
        assert pfetch.summary()["fetch.blocking_stalls"] < bl2.summary()["fetch.blocking_stalls"]
        assert pfetch.latency.median() < bl2.latency.median()

    def test_pfetch_blocks_on_misprediction(self):
        # Keys bound only by the current input event cannot be prefetched:
        # PFetch degenerates to BL2 on such sites.
        query = parse_query(
            "SEQ(A a, B b) WHERE SAME[id] AND a.v IN REMOTE[b.v] WITHIN 10000",
            name="q",
        )
        store = RemoteStore()
        store.register_source("v", lambda key: frozenset(range(10)))
        stream = random_stream(100, seed=31, types="AB")
        pfetch = run_eires(query, store, stream, strategy="PFetch", latency=FixedLatency(LATENCY))
        assert pfetch.summary()["fetch.prefetches_issued"] == 0
        assert pfetch.summary()["fetch.blocking_stalls"] > 0


class TestLazyEvaluation:
    def test_lzeval_avoids_stalls_mid_stream(self):
        query, store = two_remote_query()
        stream = chain_events(n_chains=30, distinct_keys=True)
        lazy = run_eires(query, store, stream, strategy="LzEval", latency=FixedLatency(30.0))
        bl2 = run_eires(query, store, stream, strategy="BL2", latency=FixedLatency(30.0))
        assert lazy.summary()["fetch.lazy_postponements"] > 0
        assert lazy.summary()["fetch.blocking_stalls"] < bl2.summary()["fetch.blocking_stalls"]

    def test_lazy_gate_falls_back_to_blocking_when_hopeless(self):
        # A remote predicate on the *final* transition with an enormous
        # latency: postponement can hide at most the (tiny) time until the
        # final state, so the gate should often refuse and block instead.
        query = parse_query(
            "SEQ(A a, B b) WHERE SAME[id] AND b.v IN REMOTE[a.v] WITHIN 10000",
            name="q",
        )
        store = RemoteStore()
        store.register_source("v", lambda key: frozenset(range(10)))
        stream = random_stream(200, seed=17, types="AB")
        gated = run_eires(query, store, stream, strategy="LzEval", latency=FixedLatency(LATENCY))
        ungated = run_eires(
            query, store, stream, strategy="LzEval", latency=FixedLatency(LATENCY),
            lazy_gate_enabled=False,
        )
        assert gated.match_signatures() == ungated.match_signatures()
        assert ungated.summary()["fetch.lazy_postponements"] >= gated.summary()["fetch.lazy_postponements"]


class TestHybrid:
    @pytest.mark.parametrize("policy", ("greedy", "non_greedy"))
    def test_hybrid_never_worse_than_worst_baseline(self, policy):
        query, store = two_remote_query()
        stream = random_stream(300, seed=41, types="ABCD", id_domain=3)
        hybrid = run_eires(query, store, stream, strategy="Hybrid", policy=policy)
        bl1 = run_eires(query, store, stream, strategy="BL1", policy=policy)
        assert hybrid.latency.median() <= bl1.latency.median()

    def test_hybrid_combines_prefetch_and_postponement(self):
        query, store = two_remote_query()
        stream = random_stream(300, seed=43, types="ABCD", id_domain=3)
        hybrid = run_eires(query, store, stream, strategy="Hybrid")
        assert hybrid.summary()["fetch.prefetches_issued"] > 0
        # Whatever the prefetcher missed was postponed, not blocked on.
        assert hybrid.summary()["fetch.blocking_stalls"] <= hybrid.summary()["fetch.lazy_postponements"] + 5
