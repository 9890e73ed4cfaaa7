"""End-to-end tests of hierarchical remote data (the part-of relation rho)."""

import pytest

from repro.core.config import EiresConfig
from repro.core.framework import EIRES
from repro.events.event import Event
from repro.events.stream import Stream
from repro.query.parser import parse_query
from repro.remote.store import RemoteStore
from repro.remote.transport import FixedLatency
from repro.workloads.fraud import FraudConfig, fraud_workload


def hierarchy_scenario():
    """Query keyed per-card; remote data stored per-card under org containers."""
    query = parse_query(
        """
        SEQ(A a, B b)
        WHERE SAME[card] AND b.ben IN REMOTE<preauth>[a.card]
        WITHIN 100000
        """,
        name="hier",
    )
    store = RemoteStore()
    org = store.put("preauth", ("org", 0), frozenset({1, 2, 3}), size=0)
    for card in range(4):
        store.put("preauth", card, frozenset({1, 2, 3}), size=1, parent=org)
    return query, store


def card_events(pairs):
    events = []
    t = 0.0
    for card, ben in pairs:
        t += 10.0
        events.append(Event(t, {"type": "A", "card": card, "ben": 0}))
        t += 10.0
        events.append(Event(t, {"type": "B", "card": card, "ben": ben}))
    return Stream(events)


class TestContainerServesParts:
    def test_cached_container_answers_child_lookups(self):
        query, store = hierarchy_scenario()
        eires = EIRES(query, store, FixedLatency(50.0), strategy="BL2",
                      config=EiresConfig(cache_capacity=16))
        # Pre-warm the cache with the org container.
        eires.cache.put(store.lookup(("preauth", ("org", 0))), now=0.0)
        result = eires.run(card_events([(0, 1), (1, 2), (2, 3), (3, 1)]))
        assert result.match_count == 4
        # Every per-card lookup was served by the container: no fetches.
        assert result.summary()["fetch.blocking_stalls"] == 0

    def test_without_container_each_card_fetches(self):
        query, store = hierarchy_scenario()
        eires = EIRES(query, store, FixedLatency(50.0), strategy="BL2",
                      config=EiresConfig(cache_capacity=16))
        result = eires.run(card_events([(0, 1), (1, 2), (2, 3), (3, 1)]))
        assert result.match_count == 4
        assert result.summary()["fetch.blocking_stalls"] == 4

    def test_utility_propagates_from_parts_to_container(self):
        from repro.nfa.run import Run

        query, store = hierarchy_scenario()
        eires = EIRES(query, store, FixedLatency(50.0), strategy="Hybrid",
                      config=EiresConfig(cache_capacity=16))
        # A live partial match that has bound its A event requires the
        # per-card element; the org container accumulates that utility
        # through rho*.
        a_state = eires.automaton.states[1]
        run = Run.start(a_state, "a", Event(1.0, {"type": "A", "card": 2, "ben": 0}, seq=0))
        eires.utility.on_runs_created((run,))
        assert eires.utility.urgent_utility(("preauth", 2)) > 0.0
        assert eires.utility.urgent_utility(("preauth", ("org", 0))) > 0.0
        eires.utility.on_runs_dropped((run,))
        assert eires.utility.urgent_utility(("preauth", ("org", 0))) == 0.0


class TestFraudWorkloadEndToEnd:
    @pytest.mark.parametrize("strategy", ("BL1", "BL3", "Hybrid"))
    def test_fraud_strategies_agree(self, strategy):
        workload = fraud_workload(FraudConfig(n_events=1_500))
        results = {}
        for name in ("BL2", strategy):
            eires = EIRES(workload.query, workload.store, workload.latency_model,
                          strategy=name,
                          config=EiresConfig(cache_capacity=workload.notes["cache_capacity"]))
            results[name] = eires.run(workload.stream)
        assert results[strategy].match_signatures() == results["BL2"].match_signatures()

    def test_fraud_produces_both_branch_kinds(self):
        workload = fraud_workload(FraudConfig(n_events=4_000))
        eires = EIRES(workload.query, workload.store, workload.latency_model,
                      strategy="Hybrid",
                      config=EiresConfig(cache_capacity=workload.notes["cache_capacity"]))
        result = eires.run(workload.stream)
        assert result.match_count > 0
        branch_bindings = {
            frozenset(binding for binding, _ in match.signature()) for match in result.matches
        }
        assert frozenset({"t1", "d", "t2"}) in branch_bindings
        assert frozenset({"t1", "l", "t3"}) in branch_bindings
