"""Deterministic tests of the obligation (postponed predicate) mechanism.

These scenarios pin down the split semantics that keep lazy evaluation
correctness-preserving: when a remote predicate cannot be decided at
selection time, the extension carries ``p`` and (under non-greedy selection)
the retained original carries ``NOT p`` with a snapshot of the evaluation
environment.  Once the data arrives, exactly one branch survives.
"""

from repro.events.event import Event
from repro.events.stream import Stream
from repro.query.parser import parse_query
from repro.remote.store import RemoteStore
from repro.remote.transport import FixedLatency

from tests.helpers import run_eires

IN_SET = 5
NOT_IN_SET = 6


def scenario(latency=1_000.0):
    """A-B-C with a remote membership test on B, slow remote data."""
    query = parse_query(
        "SEQ(A a, B b, C c) WHERE SAME[id] AND b.v IN REMOTE[a.v] WITHIN 100000",
        name="obl",
    )
    store = RemoteStore()
    store.register_source("v", lambda key: frozenset({IN_SET}))
    return query, store, FixedLatency(latency)


def events(*specs):
    return Stream([Event(10.0 * (i + 1), attrs) for i, attrs in enumerate(specs)])


class TestNonGreedySplits:
    def test_true_predicate_kills_the_retained_branch(self):
        # B1 satisfies the remote predicate (decided only after C arrived):
        # the non-greedy run must have consumed B1, so the only match uses B1
        # even though B2 also satisfied everything locally.
        query, store, latency = scenario()
        stream = events(
            {"type": "A", "id": 1, "v": 0},
            {"type": "B", "id": 1, "v": IN_SET},
            {"type": "B", "id": 1, "v": IN_SET},
            {"type": "C", "id": 1, "v": 0},
        )
        result = run_eires(query, store, stream, strategy="BL3", policy="non_greedy",
                           latency=latency)
        assert result.match_count == 1
        signature = next(iter(result.match_signatures()))
        assert ("b", 1) in signature  # the first B, not the second

    def test_false_predicate_revives_the_retained_branch(self):
        # B1 fails the remote predicate: the original run must survive the
        # split and consume B2 instead.
        query, store, latency = scenario()
        stream = events(
            {"type": "A", "id": 1, "v": 0},
            {"type": "B", "id": 1, "v": NOT_IN_SET},
            {"type": "B", "id": 1, "v": IN_SET},
            {"type": "C", "id": 1, "v": 0},
        )
        result = run_eires(query, store, stream, strategy="BL3", policy="non_greedy",
                           latency=latency)
        assert result.match_count == 1
        signature = next(iter(result.match_signatures()))
        assert ("b", 2) in signature  # the second B

    def test_split_agrees_with_blocking_resolution(self):
        # The same stream under a blocking strategy (BL2, which always knows
        # the predicate outcome immediately) must produce identical matches.
        query, store, latency = scenario()
        stream = events(
            {"type": "A", "id": 1, "v": 0},
            {"type": "B", "id": 1, "v": IN_SET},
            {"type": "B", "id": 1, "v": NOT_IN_SET},
            {"type": "B", "id": 1, "v": IN_SET},
            {"type": "C", "id": 1, "v": 0},
        )
        lazy = run_eires(query, store, stream, strategy="BL3", policy="non_greedy",
                         latency=latency)
        blocking = run_eires(query, store, stream, strategy="BL2", policy="non_greedy",
                             latency=latency)
        assert lazy.match_signatures() == blocking.match_signatures()


class TestGreedyObligations:
    def test_extension_dies_when_predicate_resolves_false(self):
        query, store, latency = scenario()
        stream = events(
            {"type": "A", "id": 1, "v": 0},
            {"type": "B", "id": 1, "v": NOT_IN_SET},
            {"type": "C", "id": 1, "v": 0},
        )
        result = run_eires(query, store, stream, strategy="BL3", policy="greedy",
                           latency=latency)
        assert result.match_count == 0
        summary = result.summary()
        assert summary["engine.matches_rejected"] + summary["engine.runs_failed_obligation"] >= 1

    def test_original_survives_regardless(self):
        # Greedy keeps the unextended original without any obligation: a
        # later valid B still completes a match.
        query, store, latency = scenario()
        stream = events(
            {"type": "A", "id": 1, "v": 0},
            {"type": "B", "id": 1, "v": NOT_IN_SET},
            {"type": "B", "id": 1, "v": IN_SET},
            {"type": "C", "id": 1, "v": 0},
        )
        result = run_eires(query, store, stream, strategy="BL3", policy="greedy",
                           latency=latency)
        assert result.match_count == 1
        assert ("b", 2) in next(iter(result.match_signatures()))


class TestObligationEnvironmentSnapshot:
    def test_negated_obligation_sees_the_unconsumed_event(self):
        # The retained branch never binds the candidate B event; its NOT(p)
        # obligation must still be checkable, which requires the env snapshot
        # taken at postponement time.  If the snapshot were missing, this
        # would crash (historically: KeyError "binding 'b' not bound").
        query, store, latency = scenario()
        stream = events(
            {"type": "A", "id": 1, "v": 0},
            {"type": "B", "id": 1, "v": IN_SET},
            {"type": "B", "id": 1, "v": IN_SET},
            {"type": "B", "id": 1, "v": IN_SET},
            {"type": "C", "id": 1, "v": 0},
        )
        result = run_eires(query, store, stream, strategy="BL3", policy="non_greedy",
                           latency=latency)
        assert result.match_count == 1

    def test_obligation_checks_are_charged(self):
        query, store, latency = scenario()
        stream = events(
            {"type": "A", "id": 1, "v": 0},
            {"type": "B", "id": 1, "v": IN_SET},
            {"type": "C", "id": 1, "v": 0},
        )
        result = run_eires(query, store, stream, strategy="BL3", latency=latency)
        assert result.summary()["engine.obligation_checks"] > 0


class TestRootPostponement:
    """A remote predicate on the *first* atom is postponed at a root
    transition: the obligation must carry the latency estimate the decision
    was made with, or L2 re-derives ``succ`` for a zero latency, finds it
    empty and blocks at the very next class — paying the stall LzEval exists
    to hide."""

    def _scenario(self):
        query = parse_query(
            "SEQ(A a, B b, C c) WHERE SAME[id] AND a.v IN REMOTE<s>[a.k] WITHIN 100000",
            name="root",
        )
        store = RemoteStore()
        store.register_source("s", lambda key: frozenset(range(8)))
        return query, store, FixedLatency(50.0)

    def test_obligation_carries_the_latency_estimate(self):
        from repro.core.framework import EIRES

        query, store, latency = self._scenario()
        eires = EIRES(query, store, latency, strategy="LzEval")
        first = Event(10.0, {"type": "A", "id": 1, "v": 1, "k": 7}, seq=0)
        eires.strategy.on_event_start(first, 0)
        eires.engine.process_event(first, eires.strategy)
        (run,) = eires.engine.iter_runs()
        (obligation,) = run.obligations
        assert obligation.ell_estimate == eires.strategy.last_postpone_ell > 0.0

    def test_postponed_root_run_rides_to_the_final_state(self):
        # B arrives 5 us after A, long before A's element (50 us): the run
        # must carry the obligation through class 2; by C the data is local.
        query, store, latency = self._scenario()
        stream = Stream(
            [
                Event(10.0, {"type": "A", "id": 1, "v": 1, "k": 7}),
                Event(15.0, {"type": "B", "id": 1, "v": 1, "k": 0}),
                Event(100.0, {"type": "C", "id": 1, "v": 1, "k": 0}),
            ]
        )
        result = run_eires(query, store, stream, strategy="LzEval", latency=latency)
        assert result.match_count == 1
        assert result.summary()["fetch.lazy_postponements"] == 1
        assert result.summary()["fetch.blocking_stalls"] == 0

    def test_same_matches_as_bl1_for_less_stall(self):
        import random

        query, store, latency = self._scenario()
        rng = random.Random(3)
        kinds = ["A"] * 20 + ["B"] * 40 + ["C"] * 40
        rng.shuffle(kinds)
        specs, next_key = [], 0
        for kind in kinds:
            spec = {"type": kind, "id": 1, "v": rng.randint(0, 9), "k": 0}
            if kind == "A":  # every A needs an element nobody fetched yet
                spec["k"], next_key = next_key, next_key + 1
            specs.append(spec)
        stream = Stream([Event(2.0 * (i + 1), spec) for i, spec in enumerate(specs)])
        blocking = run_eires(query, store, stream, strategy="BL1", latency=latency)
        lazy = run_eires(query, store, stream, strategy="LzEval", latency=latency)
        assert lazy.match_count > 0
        assert lazy.match_signatures() == blocking.match_signatures()
        assert lazy.summary()["fetch.lazy_postponements"] == 20
        # What still stalls is a final state reached before the data.
        assert (
            lazy.summary()["fetch.total_stall_time"]
            < blocking.summary()["fetch.total_stall_time"]
            == 1_000.0
        )
