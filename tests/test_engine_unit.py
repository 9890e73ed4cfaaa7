"""Unit tests for engine internals: runs, obligations, policies, shedding."""

import pytest

from repro.engine.engine import Engine, GREEDY, NON_GREEDY
from repro.engine.interface import CostModel
from repro.events.event import Event
from repro.events.stream import Stream
from repro.nfa.compiler import compile_query
from repro.nfa.run import Obligation, Run
from repro.query.parser import parse_query
from repro.query.predicates import Comparison, Const
from repro.sim.clock import VirtualClock

from tests.helpers import RecordingStrategy, make_abc_scenario, random_stream, run_eires


class TestCostModel:
    def test_defaults_valid(self):
        model = CostModel()
        assert model.per_guard_cost > 0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CostModel(base_event_cost=-1.0)

    def test_engine_charges_base_cost_per_event(self):
        query, store = make_abc_scenario()
        cheap = run_eires(query, store, random_stream(50, seed=1), strategy="BL2")
        assert cheap.summary()["engine.events_processed"] == 50


class TestRunStructure:
    def _automaton(self):
        return compile_query(parse_query("SEQ(A a, B b) WITHIN 100", name="t"))

    def test_start_and_extend(self):
        automaton = self._automaton()
        first = Event(5.0, {"type": "A"}, seq=0)
        run = Run.start(automaton.states[1], "a", first, created_at=5.0)
        assert run.first_t == 5.0
        assert run.env["a"] is first

        second = Event(9.0, {"type": "B"}, seq=1)
        transition = automaton.states[1].transitions[0]
        extended = Run(
            transition.target, {**run.env, "b": second}, run.first_t, run.first_seq, second.seq,
            run.obligations, created_at=9.5,
        )
        assert extended.state.is_final
        assert extended.env["b"] is second
        # The original run is untouched (greedy split keeps it alive).
        assert "b" not in run.env
        assert extended.run_id != run.run_id

    def test_obligation_requires_predicates(self):
        with pytest.raises(ValueError):
            Obligation((), negated=False, issued_at=0.0, env={})

    def test_add_obligations(self):
        automaton = self._automaton()
        run = Run.start(automaton.states[1], "a", Event(1.0, {"type": "A"}, seq=0), 1.0)
        predicate = Comparison("=", Const(1), Const(1))
        run.add_obligations((Obligation((predicate,), False, 0.0, env={}),))
        assert run.obligations
        assert len(run.obligations) == 1


class TestSelectionPolicies:
    def test_invalid_policy_rejected(self):
        automaton = compile_query(parse_query("SEQ(A a, B b) WITHIN 10", name="t"))
        with pytest.raises(ValueError):
            Engine(automaton, VirtualClock(), policy="eager")

    def test_greedy_splits_on_every_match(self):
        query, store = make_abc_scenario()
        events = Stream(
            [Event(10.0 * (i + 1), {"type": "ABC"[i % 3], "id": 1, "v": 1}) for i in range(9)]
        )
        greedy = run_eires(query, store, events, policy=GREEDY)
        non_greedy = run_eires(query, store, events, policy=NON_GREEDY)
        assert greedy.match_count > non_greedy.match_count

    def test_runs_consumed_only_non_greedy(self):
        query, store = make_abc_scenario()
        stream = random_stream(100, seed=9)
        greedy = run_eires(query, store, stream, policy=GREEDY)
        non_greedy = run_eires(query, store, stream, policy=NON_GREEDY)
        assert greedy.summary()["engine.runs_consumed"] == 0
        assert non_greedy.summary()["engine.runs_consumed"] > 0


class TestBucketOrder:
    """A bucket holds its runs in *creation* order, not start order: under
    the greedy policy extensions of different families interleave.  Bucket
    order is the order guards are charged in, so it is part of the model —
    expiry is a filter, never a prefix cut, and nobody may re-sort a bucket."""

    def _fed(self):
        automaton = compile_query(parse_query("SEQ(A a, B b, C c) WITHIN 8 EVENTS", name="t"))
        clock = VirtualClock()
        engine, strategy = Engine(automaton, clock), RecordingStrategy(clock)
        for kind, seq in (("A", 1), ("A", 5), ("B", 6), ("B", 7)):
            engine.process_event(Event(10.0 * seq, {"type": kind}, seq=seq), strategy)
        return engine, strategy

    def test_greedy_extensions_interleave_families(self):
        engine, _ = self._fed()
        assert [run.first_seq for run in engine._runs[2][None]] == [1, 5, 1, 5]

    def test_sweep_keeps_survivors_in_creation_order(self):
        engine, strategy = self._fed()
        before = list(engine._runs[2][None])
        # Seq 10 closes the window opened at seq 1 (10 - 1 > 8), not seq 5's.
        engine._expire(Event(100.0, {"type": "X"}, seq=10), strategy)
        assert engine._runs[2][None] == [before[1], before[3]]
        assert [run.first_seq for run in engine._runs[1][None]] == [5]

    def test_reversing_a_bucket_moves_a_detection_time(self):
        detected = []
        for reverse in (False, True):
            engine, strategy = self._fed()
            if reverse:
                engine._runs[2][None].reverse()
            matches = engine.process_event(Event(80.0, {"type": "C"}, seq=8), strategy)
            detected.append({match.signature(): match.detected_at for match in matches})
        forward, backward = detected
        assert len(forward) == 4 and forward.keys() == backward.keys()
        assert forward != backward


class TestBucketReplay:
    def test_a_match_builds_no_run(self):
        """The outcome replay builds a leaf final's match straight from the
        extension's environment: every ``Run`` built is a run created."""
        automaton = compile_query(parse_query("SEQ(A a, B b) WITHIN 6 EVENTS", name="t"))
        clock = VirtualClock()
        engine, strategy = Engine(automaton, clock), RecordingStrategy(clock)
        assert (1, "B") in engine._bucket_transitions
        before = Run._next_id
        matches = []
        for seq, kind in enumerate("AABAB" * 6):
            matches += engine.process_event(Event(10.0 * seq, {"type": kind}, seq=seq), strategy)
        assert engine.stats.runs_created == 18 and len(matches) > 18
        assert Run._next_id - before == engine.stats.runs_created
        for match in matches:
            assert type(match.events) is dict and list(match.events) == ["a", "b"]


class TestEnvironments:
    def test_nothing_mutates_an_environment_once_its_run_exists(self, monkeypatch):
        """``Run.extend`` adopts the environment the engine resolved remote
        predicates against, sharing it with the obligation issued there; that
        is only sound because environments are never written after creation."""
        created = []
        shared = []
        init = Run.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            created.append((self.env, tuple(self.env.items())))
            shared.extend(obligation for obligation in self.obligations if obligation.env is self.env)

        monkeypatch.setattr(Run, "__init__", recording)
        query, store = make_abc_scenario(set_members=frozenset({1, 2, 3}))
        stream = random_stream(200, seed=5, id_domain=2, v_domain=6)
        for policy in (GREEDY, NON_GREEDY):
            run_eires(query, store, stream, strategy="LzEval", policy=policy)
        assert shared, "no extension shared its environment with an obligation"
        for env, snapshot in created:
            assert tuple(env.items()) == snapshot


class TestWindowExpiry:
    def test_time_window_expires_runs(self):
        query = parse_query("SEQ(A a, B b) WHERE SAME[id] WITHIN 50 us", name="t")
        _, store = make_abc_scenario()
        events = Stream(
            [Event(float(i) * 40.0, {"type": "A", "id": i, "v": 1}) for i in range(1, 40)]
        )
        result = run_eires(query, store, events)
        assert result.summary()["engine.runs_expired"] > 0
        # No runs linger at the end beyond the flush.
        assert result.match_count == 0

    def test_count_window_expires_runs(self):
        query = parse_query("SEQ(A a, B b) WHERE SAME[id] WITHIN 3 EVENTS", name="t")
        _, store = make_abc_scenario()
        events = [Event(float(i), {"type": "A", "id": 1, "v": 1}, seq=i) for i in range(10)]
        events.append(Event(11.0, {"type": "B", "id": 1, "v": 1}))
        result = run_eires(query, store, Stream(events))
        # Only the last three A's are within 3 events of the B.
        assert result.match_count == 3


class TestLoadShedding:
    def test_default_has_no_shedding(self):
        query, store = make_abc_scenario()
        stream = random_stream(300, seed=23)
        result = run_eires(query, store, stream)
        assert result.summary()["engine.shed_runs"] == 0


class TestMatchRecord:
    def test_latency_and_signature(self):
        from repro.engine.interface import MatchRecord

        events = {
            "a": Event(10.0, {"type": "A"}, seq=0),
            "b": Event(30.0, {"type": "B"}, seq=4),
        }
        record = MatchRecord(events, last_event_t=30.0, detected_at=42.5)
        assert record.latency == 12.5
        assert record.signature() == (("a", 0), ("b", 4))

    def test_matches_record_positive_latency(self):
        query, store = make_abc_scenario()
        result = run_eires(query, store, random_stream(120, seed=3))
        assert result.match_count > 0
        for match in result.matches:
            assert match.latency > 0.0


class TestEngineAccounting:
    def test_stats_are_consistent(self):
        query, store = make_abc_scenario()
        result = run_eires(query, store, random_stream(200, seed=8))
        stats = result.summary()
        assert stats["engine.events_processed"] == 200
        assert stats["engine.guard_evaluations"] >= stats["engine.runs_created"]
        assert stats["engine.matches_emitted"] == result.match_count

    def test_flush_reports_all_runs_dropped(self):
        # After a run, utility bookkeeping must return to zero: every created
        # run was dropped through some path (extension consumption, expiry,
        # failure, or the final flush).
        query, store = make_abc_scenario()
        from repro.core.framework import EIRES
        from repro.core.config import EiresConfig
        from repro.remote.transport import FixedLatency

        eires = EIRES(query, store, FixedLatency(10.0), strategy="Hybrid",
                      config=EiresConfig(cache_capacity=50))
        eires.run(random_stream(150, seed=4))
        assert eires.utility._uu_runs == {}
        assert eires.utility._unindexed == {}
