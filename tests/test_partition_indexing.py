"""Tests of the engine's SAME-partition run indexing."""

from repro.events.event import Event
from repro.events.stream import Stream
from repro.nfa.compiler import compile_query
from repro.query.parser import parse_query

from tests.helpers import make_abc_scenario, random_stream, run_eires


class TestPartitionDispatch:
    def test_same_query_gets_partition_attr(self):
        automaton = compile_query(
            parse_query("SEQ(A a, B b) WHERE SAME[id] WITHIN 10", name="t")
        )
        assert automaton.partition_attr == "id"

    def test_query_without_same_has_none(self):
        automaton = compile_query(parse_query("SEQ(A a, B b) WITHIN 10", name="t"))
        assert automaton.partition_attr is None

    def test_guard_evaluations_skip_other_partitions(self):
        # 1000 events over 100 ids: each B event must only visit the runs of
        # its own id.  Without partition indexing guard evaluations would be
        # ~100x higher.
        query, store = make_abc_scenario()
        stream = random_stream(1000, seed=3, id_domain=100, types="AB")
        result = run_eires(query, store, stream)
        # Each B event touches at most the handful of same-id A-runs.
        assert result.summary()["engine.guard_evaluations"] < 4_000

    def test_unpartitioned_query_still_correct(self):
        query = parse_query("SEQ(A a, B b) WITHIN 10000", name="t")
        _, store = make_abc_scenario()
        events = Stream([
            Event(10.0, {"type": "A", "id": 1, "v": 1}),
            Event(20.0, {"type": "B", "id": 2, "v": 1}),  # different id: still matches
        ])
        result = run_eires(query, store, events)
        assert result.match_count == 1

    def test_partitioned_matches_equal_unpartitioned_semantics(self):
        # SAME[id] via partition index must agree with the same correlation
        # expressed as explicit equality predicates (no partition index).
        _, store = make_abc_scenario()
        stream = random_stream(300, seed=8, id_domain=4)
        partitioned = parse_query(
            "SEQ(A a, B b, C c) WHERE SAME[id] WITHIN 2000", name="p"
        )
        explicit = parse_query(
            "SEQ(A a, B b, C c) WHERE b.id = a.id AND c.id = b.id WITHIN 2000",
            name="e",
        )
        first = run_eires(partitioned, store, stream)
        second = run_eires(explicit, store, stream)
        assert first.match_signatures() == second.match_signatures()

    def test_missing_partition_attribute_fails_loudly(self):
        # The model assumes a uniform schema (§2.1): an event lacking the
        # SAME attribute is malformed input, and the correlation guard
        # surfaces it rather than matching silently.
        import pytest

        query = parse_query("SEQ(A a, B b) WHERE SAME[id] WITHIN 10000", name="t")
        _, store = make_abc_scenario()
        events = Stream([
            Event(10.0, {"type": "A", "v": 1}),
            Event(20.0, {"type": "B", "v": 1}),
        ])
        with pytest.raises(KeyError, match="no attribute 'id'"):
            run_eires(query, store, events)
