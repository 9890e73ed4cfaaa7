"""The generated transition guards (``repro.query.guards``).

What the generated code renders, that its errors are the interpretive
loop's errors, that it is attributable (pseudo-file, linecache, traceback),
and that code objects are shared; the same for the per-bucket loops.  The
bit-for-bit differentials (guard against ``interpret_guard``, bucket loop
against the per-run path) live in ``tests/test_properties.py``; whole-run
byte-identity in ``tests/test_backend_conformance.py``.
"""

from __future__ import annotations

import linecache
import os
import traceback

import pytest

import repro.query
from repro.core.framework import EIRES
from repro.engine.engine import Engine
from repro.engine.interface import CostModel
from repro.events.event import Event
from repro.events.stream import Stream
from repro.nfa.compiler import compile_query
from repro.nfa.run import Obligation, Run
from repro.query import guards
from repro.query.guards import compile_bucket_loop, compile_guard, interpret_guard
from repro.query.parser import parse_query
from repro.query.predicates import (
    Attr,
    Comparison,
    Const,
    FunctionPredicate,
    Membership,
    RemoteRef,
)
from repro.remote.store import RemoteStore
from repro.remote.transport import FixedLatency
from repro.sim.clock import VirtualClock

from tests.helpers import RecordingStrategy, run_eires


def _events(*payloads):
    return Stream([Event(10.0 * (i + 1), payload) for i, payload in enumerate(payloads)])


def _run(query, stream):
    return run_eires(query, RemoteStore(), stream, strategy="BL1")


class TestRendering:
    def test_attributes_are_direct_subscripts_and_primitives_literals(self):
        guard = compile_guard(
            [
                Comparison("=", Attr("b", "id"), Attr("a", "id")),
                Comparison("<>", Attr("b", "v"), Const(7), eval_cost=0.5),
                Comparison("<=", Attr("b", "name"), Const("it's")),
            ],
            "b",
        )
        assert "(event.attrs['id'] == env['a'].attrs['id'])" in guard.source
        assert "(event.attrs['v'] != 7)" in guard.source
        assert "(event.attrs['name'] <= \"it's\")" in guard.source
        assert "now += 0.02" in guard.source and "now += 0.5" in guard.source
        assert "evaluate" not in guard.source

    def test_objects_without_a_literal_are_captured(self):
        members = frozenset({1, 2})

        def near(left, right):
            return abs(left - right) <= 1

        guard = compile_guard(
            [
                Membership(Attr("b", "v"), Const(members), negated=True),
                FunctionPredicate(near, (Attr("a", "v"), Attr("b", "v")), name="near"),
                Comparison("<", Attr("b", "v"), Const(float("inf"))),
            ],
            "b",
        )
        assert "(event.attrs['v'] not in _k0)" in guard.source
        assert "_k1(env['a'].attrs['v'], event.attrs['v'])" in guard.source
        assert "(event.attrs['v'] < _k2)" in guard.source
        assert guard.__globals__["_k0"] is members
        assert guard.__globals__["_k1"] is near
        env = {"a": Event(1.0, {"v": 5})}
        assert guard(env, Event(2.0, {"v": 4}), 1.0)[:2] == (3, True)
        assert guard(env, Event(2.0, {"v": 1}), 1.0)[:2] == (1, False)
        assert guard(env, Event(2.0, {"v": 9}), 1.0)[:2] == (2, False)

    def test_empty_guard_passes_without_charging(self):
        assert compile_guard([], "a")({}, Event(1.0, {}), 3.25) == (0, True, 3.25)

    def test_remote_predicate_is_refused(self):
        remote = Membership(Attr("b", "v"), RemoteRef("s", Attr("a", "v")))
        with pytest.raises(TypeError, match="only local predicates are compiled"):
            compile_guard([remote], "b")

    def test_negative_eval_cost_is_refused(self):
        with pytest.raises(ValueError, match="negative eval_cost"):
            compile_guard([Comparison("=", Const(1), Const(1), eval_cost=-0.1)], "a")

    def test_negative_remote_eval_cost_is_refused(self):
        # The engine adds a remote predicate's cost to the clock's slot
        # unchecked: the compile refuses it with the local predicates' words.
        remote = Membership(Attr("b", "v"), RemoteRef("s", Attr("a", "v")), eval_cost=-0.1)
        with pytest.raises(ValueError, match=r"predicate .+ has negative eval_cost -0\.1"):
            guards.compile_remote(remote)

    def test_negative_remote_eval_cost_fails_the_build_not_the_replay(self):
        query = parse_query("SEQ(A a, B b) WHERE b.v IN REMOTE<s>[a.v] WITHIN 100", name="t")
        (remote,) = [condition for condition in query.conditions if condition.is_remote]
        remote.eval_cost = -0.1
        with pytest.raises(ValueError, match="negative eval_cost"):
            EIRES(query, RemoteStore(), FixedLatency(50.0), strategy="Hybrid")

    def test_transition_exposes_its_guard_source(self):
        automaton = compile_query(
            parse_query("SEQ(A a, B b) WHERE SAME[id] AND b.v > 3 WITHIN 100", name="t")
        )
        first, second = automaton.transitions
        assert first.guard_source.startswith("def guard(env, event, now):")
        assert "event.attrs['id'] == env['a'].attrs['id']" in second.guard_source
        assert "(event.attrs['v'] > 3)" in second.guard_source
        with pytest.raises(AttributeError):
            second.guard_source = ""
        assert repr(second) == "Transition(q1->q2, B b, 2 local, 0 remote)"


class TestErrorFidelity:
    """A guard that raises surfaces the interpretive loop's descriptive error."""

    QUERY = "SEQ(A a, B b) WHERE SAME[id] AND a.v < b.v9 WITHIN 100"

    def test_missing_attribute_names_the_attribute_and_the_payload(self):
        query = parse_query(self.QUERY, name="t")
        stream = _events({"type": "A", "id": 1, "v": 1}, {"type": "B", "id": 1, "v": 2})
        with pytest.raises(KeyError) as excinfo:
            _run(query, stream)
        assert "event has no attribute 'v9'; has ['id', 'type', 'v']" in str(excinfo.value)

    def test_unbound_binding_names_the_environment(self):
        guard = compile_guard([Comparison("=", Attr("x", "v"), Attr("b", "v"))], "b")
        with pytest.raises(KeyError, match=r"binding 'x' not bound; environment has \['a', 'b'\]"):
            guard({"a": Event(1.0, {"v": 1})}, Event(2.0, {"v": 1}), 0.0)

    def test_mixed_int_str_comparison_raises_the_same_type_error(self):
        query = parse_query("SEQ(A a, B b) WHERE SAME[id] AND a.v < b.v WITHIN 100", name="t")
        stream = _events({"type": "A", "id": 1, "v": 1}, {"type": "B", "id": 1, "v": "one"})
        with pytest.raises(TypeError, match="'<' not supported between instances of 'int' and 'str'"):
            _run(query, stream)

    def test_error_behind_an_earlier_failure_is_never_reached(self):
        # Short-circuit: the predicate that would raise sits after one that
        # fails, in the generated code as in the loop.
        query = parse_query(
            "SEQ(A a, B b) WHERE SAME[id] AND b.v > 100 AND a.v < b.v9 WITHIN 100", name="t"
        )
        stream = _events({"type": "A", "id": 1, "v": 1}, {"type": "B", "id": 1, "v": 2})
        assert _run(query, stream).match_count == 0

    def test_traceback_shows_the_guards_own_frame_and_line(self):
        guard = compile_guard([Comparison("<", Attr("a", "v"), Attr("b", "v9"))], "b")
        with pytest.raises(KeyError) as excinfo:
            guard({"a": Event(1.0, {"v": 1})}, Event(2.0, {"v": 2}), 0.0)
        text = "".join(traceback.format_exception(excinfo.value))
        assert f'File "{guard.__code__.co_filename}", line 9, in guard' in text
        assert "return _interpret(env, event, start)" in text


class TestLocalFunctionAndMembershipPredicates:
    def _query(self):
        query = parse_query("SEQ(A a, B b) WHERE SAME[id] WITHIN 100", name="t")
        query.conditions += (
            Membership(Attr("a", "v"), Const((1, 2, 3))),
            FunctionPredicate(
                lambda left, right: left + right == 5, (Attr("a", "v"), Attr("b", "v")), name="sum5"
            ),
        )
        return query

    def test_matches_and_counters(self):
        stream = _events(
            {"type": "A", "id": 1, "v": 2},
            {"type": "A", "id": 1, "v": 9},  # not IN (1, 2, 3): no run
            {"type": "B", "id": 1, "v": 3},  # 2 + 3 == 5: match
            {"type": "B", "id": 1, "v": 4},  # 2 + 4 != 5
        )
        result = _run(self._query(), stream)
        assert result.match_signatures() == {(("a", 0), ("b", 2))}
        assert result.summary()["engine.guard_evaluations"] == 4
        # Two A guards of one predicate, two B guards of SAME + sum5.
        assert result.summary()["engine.predicate_evaluations"] == 6

    def test_generated_and_interpreted_agree_on_time(self):
        automaton = compile_query(self._query())
        transition = automaton.transitions[1]
        env = {"a": Event(1.0, {"id": 1, "v": 2})}
        event = Event(2.0, {"id": 1, "v": 3})
        assert transition.guard(env, event, 0.1) == interpret_guard(
            transition.local_predicates, "b", env, event, 0.1
        )


class TestAttribution:
    def test_compiled_under_a_registered_pseudo_file_in_the_query_package(self):
        guard = compile_guard([Comparison("=", Attr("a", "v"), Const(1))], "a")
        filename = guard.__code__.co_filename
        assert os.path.dirname(filename) == os.path.dirname(repro.query.__file__)
        assert os.path.basename(filename).startswith("<guard ")
        assert "".join(linecache.getlines(filename)) == guard.source
        linecache.checkcache()
        assert linecache.getline(filename, 1) == "def guard(env, event, now):\n"

    def test_the_name_is_the_source_checksums_in_every_process(self):
        guard = compile_guard([Comparison("=", Attr("a", "v"), Const(1))], "a")
        # CRC-32 and Adler-32 of the source: no per-process salt.
        assert os.path.basename(guard.__code__.co_filename) == "<guard 23d6fd2122814418>"

    def test_a_source_whose_checksums_are_taken_gets_its_own_name(self, monkeypatch):
        guard = compile_guard([Comparison("=", Attr("a", "v"), Const(2))], "a")
        taken = guard.__code__.co_filename
        monkeypatch.setattr(guards, "_NAMED", {taken: "def other():\n    pass\n"})
        code = guards._code_for.__wrapped__(guard.source)
        assert code.co_filename == taken[:-1] + "-1>"
        assert "".join(linecache.getlines(code.co_filename)) == guard.source
        assert guards._NAMED[taken] == "def other():\n    pass\n"
        assert guards._code_for.__wrapped__(guard.source).co_filename == code.co_filename

    def test_equal_source_shares_one_code_object(self):
        text = "SEQ(A a, B b) WHERE SAME[id] AND a.v < b.v WITHIN 100"
        first = compile_query(parse_query(text, name="tenant0"))
        second = compile_query(parse_query(text, name="tenant1"))
        for ours, theirs in zip(first.transitions, second.transitions):
            assert ours.guard is not theirs.guard
            assert ours.guard.__code__ is theirs.guard.__code__

    def test_captures_are_per_guard_even_when_code_is_shared(self):
        low = compile_guard([Membership(Attr("a", "v"), Const((1,)))], "a")
        high = compile_guard([Membership(Attr("a", "v"), Const((9,)))], "a")
        assert low.__code__ is high.__code__
        event = Event(1.0, {"v": 9})
        assert low({}, event, 0.0)[1] is False
        assert high({}, event, 0.0)[1] is True


class TestBucketLoop:
    """One generated loop per local-only transition, from the guard's own source."""

    TEXT = (
        "SEQ(A a, B b, C c) WHERE SAME[id] AND a.v < b.v AND b.w >= 3"
        " AND c.v IN REMOTE<r>[a.v] WITHIN {}"
    )

    def _transitions(self, window="100"):
        return compile_query(parse_query(self.TEXT.format(window), name="t")).transitions

    def test_same_conditions_and_charges_as_the_guard(self):
        _, second, _ = self._transitions()
        loop = second.bucket_loop.source
        assert loop.startswith(
            "def bucket_loop(runs, event, now, guard_cost, window, evaluations, passes):"
        )
        prelude, body = loop.split("    outcomes = []\n")
        # The prelude reads each input attribute into a local, once per call.
        reads = {}
        for line in prelude.splitlines():
            if " = event.attrs[" in line:
                local, read = line.strip().split(" = ")
                reads[read] = local
        assert sorted(reads) == ["event.attrs['id']", "event.attrs['v']", "event.attrs['w']"]
        guard = second.guard_source.splitlines()
        # Every charge, in order, per run; the per-guard charge before them.
        charges = [line.strip() for line in guard if "now +=" in line]
        assert [line.strip() for line in body.splitlines() if "now +=" in line] == charges
        assert "now = now + guard_cost" in body
        hoisted = []
        for line in guard:
            if "if not" not in line:
                continue
            condition = line.strip()[len("if not "):-1]
            for read, local in reads.items():
                condition = condition.replace(read, local)
            if condition in body:
                continue
            # Input-only: its truth value computed in the prelude.
            assert f"= not {condition}" in prelude
            hoisted.append(condition)
        assert hoisted == ["(_x2 >= 3)"]
        # The partition equality is charged, and compared only when the
        # input's partition value is not an exact-typed one.
        assert "if not (_same or (_x0 == env['a'].attrs['id'])):" in body
        # One addition per guard on each tally, never a batch total.
        assert loop.count("evaluations += 1.0") == loop.count("passes += 1.0") == 1

    def test_window_test_keeps_the_form_of_window_admits(self):
        _, counted, _ = self._transitions("100 EVENTS")
        _, timed, _ = self._transitions("100 us")
        assert "at = event.seq" in counted.bucket_loop.source
        assert "if at - run.first_seq > window:" in counted.bucket_loop.source
        assert "at = event.t" in timed.bucket_loop.source
        assert "if not at - run.first_t <= window:" in timed.bucket_loop.source

    def test_transitions_with_remote_predicates_have_none(self):
        first, second, third = self._transitions()
        assert second.bucket_loop
        assert third.remote_predicates and third.bucket_loop is None
        # Nor does the root's: no run is ever filed at the root.
        assert first.source.is_root and not first.remote_predicates
        assert first.bucket_loop is None

    def test_outcomes_are_ordered_and_nothing_is_published(self):
        automaton = compile_query(parse_query("SEQ(A a, B b) WHERE a.v < b.v WITHIN 5 EVENTS", name="t"))
        transition = automaton.states[1].transitions[0]
        runs = [
            Run.start(automaton.states[1], "a", Event(1.0, {"v": v}, seq=seq))
            for v, seq in ((1, 9), (7, 8), (2, 1), (3, 5))
        ]
        event = Event(9.0, {"v": 5}, seq=10)
        now, charged, evaluations, passes, outcomes = transition.bucket_loop(
            runs, event, 100.0, 0.25, 5, 10.0, 4.0
        )
        # Virtual time is a running sum: per-guard charge, then one predicate.
        first = 100.0 + 0.25 + 0.02
        second = first + 0.25 + 0.02  # a.v < b.v fails: charged, no outcome
        fourth = second + 0.25 + 0.02
        # The third run expired (10 - 1 > 5) before any charge.
        assert outcomes == [(runs[0], first, True), (runs[2], second, False), (runs[3], fourth, True)]
        assert (now, charged, evaluations, passes) == (fourth, 3, 13.0, 6.0)
        assert [run.env for run in runs] == [{"a": run.env["a"]} for run in runs]

    def test_a_run_with_obligations_hands_the_bucket_back(self):
        automaton = compile_query(parse_query("SEQ(A a, B b) WITHIN 5 EVENTS", name="t"))
        transition = automaton.states[1].transitions[0]
        free, bound = (
            Run.start(automaton.states[1], "a", Event(1.0, {}, seq=9))
            for _ in range(2)
        )
        predicate = Comparison("=", Const(1), Const(1))
        bound.add_obligations((Obligation((predicate,), False, 0.0, env={}),))
        event = Event(9.0, {}, seq=10)
        assert transition.bucket_loop([free, bound], event, 0.0, 0.05, 5, 0.0, 0.0) is None
        # ... unless its window closed first: expiry needs no strategy decision.
        bound.first_seq = 1
        assert transition.bucket_loop([free, bound], event, 0.0, 0.05, 5, 0.0, 0.0)[4] == [
            (free, 0.05, True),
            (bound, 0.05, False),
        ]

    def test_errors_propagate_for_the_engine_to_restep(self):
        loop = compile_bucket_loop([Comparison("<", Attr("a", "v"), Attr("b", "v9"))], "b", "count")
        run = Run.start(None, "a", Event(1.0, {"v": 1}, seq=0))
        with pytest.raises(KeyError) as excinfo:
            loop([run], Event(2.0, {"v": 2}, seq=1), 0.0, 0.05, 5, 0.0, 0.0)
        assert excinfo.value.args == ("v9",)  # bare: the per-run path words it

    def test_a_prelude_failure_steps_the_bucket_run_by_run(self):
        # ``b.w >= 3`` raises on a str, but every run fails ``a.v < b.v``
        # first: the per-run path never reaches it, so the event steps.
        query = parse_query("SEQ(A a, B b) WHERE a.v < b.v AND b.w >= 3 WITHIN 5 EVENTS", name="t")
        stream = [
            Event(1.0, {"type": "A", "v": 9}, seq=7),
            Event(1.5, {"type": "A", "v": 9}, seq=8),
            Event(2.0, {"type": "B", "v": 1, "w": "x"}, seq=9),
            Event(2.5, {"type": "A", "v": 0}, seq=10),
            Event(3.0, {"type": "B", "v": 1, "w": 4}, seq=11),
        ]
        observed, loop_calls = [], []
        for loop in (True, False):
            automaton = compile_query(query)
            clock = VirtualClock(0.0)
            engine = Engine(automaton, clock, CostModel(per_guard_cost=0.05), policy="greedy")
            transition = automaton.states[1].transitions[0]
            generated = transition.bucket_loop

            def recording(*args, generated=generated):
                try:
                    result = generated(*args)
                except Exception as exc:
                    loop_calls.append(type(exc))
                    raise
                loop_calls.append(len(result[4]))
                return result

            transition.bucket_loop = recording
            if not loop:
                engine._bucket_transitions = {}  # every bucket through _step_runs
            strategy = RecordingStrategy(clock)
            matches = [
                [match.signature() for match in engine.process_event(event, strategy)]
                for event in stream
            ]
            observed.append((
                matches,
                clock.now,
                engine.stats.as_dict(),
                strategy.guard_tally(transition).evaluations,
                strategy.guard_tally(transition).passes,
                [(kind, sorted((b, e.seq) for b, e in run.env.items()), at)
                 for kind, run, at in strategy.log],
            ))
        # The loop raised from its prelude on the first B, then completed the
        # second with one outcome, the pass; the per-run path never called it.
        assert loop_calls == [TypeError, 1]
        assert observed[0] == observed[1]
        assert observed[0][0] == [[], [], [], [], [(("a", 10), ("b", 11))]]

    def test_input_only_predicates_are_evaluated_once_per_bucket(self):
        calls = []

        class Threshold:
            def __le__(self, value):
                calls.append("compare")
                return value >= 3

        def positive(value):
            calls.append("function")
            return value > 0

        loop = compile_bucket_loop(
            [Comparison(">=", Attr("b", "w"), Const(Threshold())),
             FunctionPredicate(positive, (Attr("b", "w"),), name="positive")],
            "b",
            "count",
        )
        runs = [Run.start(None, "a", Event(1.0, {}, seq=seq)) for seq in (6, 7, 8)]
        outcomes = loop(runs, Event(2.0, {"w": 4}, seq=9), 0.0, 0.05, 5, 0.0, 0.0)[4]
        assert [passed for _, _, passed in outcomes] == [True] * 3
        # A captured function keeps its call per run.
        assert calls == ["compare"] + ["function"] * 3

    def test_equal_source_shares_one_code_object_under_the_query_package(self):
        ours = self._transitions()[1].bucket_loop
        theirs = self._transitions()[1].bucket_loop
        assert ours is not theirs and ours.__code__ is theirs.__code__
        filename = ours.__code__.co_filename
        assert os.path.dirname(filename) == os.path.dirname(repro.query.__file__)
        assert "".join(linecache.getlines(filename)) == ours.source
