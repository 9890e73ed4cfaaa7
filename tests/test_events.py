"""Unit tests for the event model and streams."""

import pytest

from repro.events.event import Event, EventSchema
from repro.events.stream import Stream, merge_streams


class TestEventSchema:
    def test_attribute_names_preserved_in_order(self):
        schema = EventSchema([("type", "str"), ("id", "int")])
        assert schema.attribute_names == ("type", "id")

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            EventSchema([])

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(ValueError):
            EventSchema([("a", "int"), ("a", "str")])

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            EventSchema([("a", "complex")])

    def test_validate_accepts_conforming_payload(self):
        schema = EventSchema([("type", "str"), ("v", "float")])
        schema.validate({"type": "A", "v": 1.5})

    def test_validate_accepts_int_where_float_declared(self):
        schema = EventSchema([("v", "float")])
        schema.validate({"v": 3})

    def test_validate_rejects_missing_attribute(self):
        schema = EventSchema([("v", "int")])
        with pytest.raises(ValueError, match="missing"):
            schema.validate({})

    def test_validate_rejects_wrong_type(self):
        schema = EventSchema([("v", "int")])
        with pytest.raises(ValueError, match="expected int"):
            schema.validate({"v": "seven"})

    def test_validate_rejects_extra_attributes(self):
        schema = EventSchema([("v", "int")])
        with pytest.raises(ValueError, match="outside the schema"):
            schema.validate({"v": 1, "w": 2})

    def test_schema_equality_and_hash(self):
        a = EventSchema([("x", "int")])
        b = EventSchema([("x", "int")])
        assert a == b
        assert hash(a) == hash(b)


class TestEvent:
    def test_attribute_access(self):
        event = Event(1.0, {"type": "A", "v": 7})
        assert event["v"] == 7
        assert event.event_type == "A"

    def test_missing_attribute_raises_informative_keyerror(self):
        event = Event(1.0, {"v": 7})
        with pytest.raises(KeyError, match="no attribute 'w'"):
            event["w"]

    def test_get_with_default(self):
        event = Event(1.0, {"v": 7})
        assert event.get("w", 0) == 0

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            Event(-1.0, {"v": 1})

    def test_equality(self):
        a = Event(1.0, {"v": 1}, seq=0)
        b = Event(1.0, {"v": 1}, seq=0)
        assert a == b


class TestStream:
    def test_assigns_sequence_numbers(self):
        stream = Stream([Event(1.0, {}), Event(2.0, {})])
        assert [event.seq for event in stream] == [0, 1]

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            Stream([Event(2.0, {}), Event(1.0, {})])

    def test_equal_timestamps_allowed(self):
        stream = Stream([Event(1.0, {}), Event(1.0, {})])
        assert len(stream) == 2

    def test_prefix(self):
        stream = Stream([Event(float(i), {}) for i in range(5)])
        assert len(stream.prefix(3)) == 3
        with pytest.raises(ValueError):
            stream.prefix(-1)

    def test_duration(self):
        stream = Stream([Event(1.0, {}), Event(11.0, {})])
        assert stream.duration() == 10.0
        assert Stream([]).duration() == 0.0

    def test_merge_streams_orders_by_time(self):
        left = Stream([Event(1.0, {"s": "l"}), Event(5.0, {"s": "l"})])
        right = Stream([Event(2.0, {"s": "r"})])
        merged = merge_streams(left, right)
        assert [event.t for event in merged] == [1.0, 2.0, 5.0]
        assert [event.seq for event in merged] == [0, 1, 2]

