"""Tests for multi-query evaluation with a shared cache (§4.1)."""

import pytest

from repro.core.config import EiresConfig
from repro.core.framework import EIRES
from repro.query.parser import parse_query
from repro.remote.store import RemoteStore
from repro.remote.transport import FixedLatency
from repro.runtime import QuerySpec, RuntimeBuilder

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


def build_runtime(specs, store, latency, config=None):
    builder = RuntimeBuilder(store, latency, config=config)
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
        run = Run.start(a_state, "a", Event(1.0, {"type": "A", "id": 1, "v": 7}, seq=0), 1.0)
        ab_runtime.utility.on_run_created(run)
        weighted = runtime.shared_utility(("v", 7))
        single = ab_runtime.utility.value(("v", 7), runtime.config.omega_cache)
        assert weighted == pytest.approx(3.0 * single)
