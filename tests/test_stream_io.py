"""Tests for stream trace (de)serialisation."""

import pytest

from repro.events.event import Event
from repro.events.io import events_from_dicts, read_csv, read_jsonl, write_csv, write_jsonl
from repro.events.stream import Stream

from tests.helpers import make_abc_scenario, run_eires


def sample_stream():
    return Stream([
        Event(10.0, {"type": "A", "id": 1, "v": 3}),
        Event(20.0, {"type": "B", "id": 1, "v": 4}),
        Event(30.0, {"type": "C", "id": 2, "v": 5}),
    ])


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(sample_stream(), path)
        loaded = read_jsonl(path)
        assert len(loaded) == 3
        assert loaded[0].t == 10.0
        assert loaded[0].attrs == {"type": "A", "id": 1, "v": 3}

    def test_unsorted_input_sorted_on_request(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"t": 20, "type": "B"}\n{"t": 10, "type": "A"}\n')
        with pytest.raises(ValueError, match="out of order"):
            read_jsonl(path)
        loaded = read_jsonl(path, assume_sorted=False)
        assert [event.t for event in loaded] == [10.0, 20.0]

    def test_missing_timestamp_reported_with_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"t": 1, "type": "A"}\n{"type": "B"}\n')
        with pytest.raises(ValueError, match=":2:"):
            read_jsonl(path)

    def test_invalid_json_reported_with_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"t": 1}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            read_jsonl(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"t": 1, "type": "A"}\n\n{"t": 2, "type": "B"}\n')
        assert len(read_jsonl(path)) == 2

    def test_tuple_payload_serialises_as_list(self, tmp_path):
        stream = Stream([Event(1.0, {"area": (1.0, 2.0, 3.0, 4.0)})])
        path = tmp_path / "trace.jsonl"
        write_jsonl(stream, path)
        loaded = read_jsonl(path)
        assert loaded[0]["area"] == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("lines,where", [
        (['{"t": 1.0}', '{"t": NaN}', '{"t": 0.5}'], ":2:"),
        (['{"t": Infinity}'], ":1:"),
        (['{"t": 1.0}', '{"t": "soon"}'], ":2:"),
        (['{"t": 1.0}', '{"t": null}'], ":2:"),
    ], ids=["nan", "infinite", "string", "null"])
    def test_bad_timestamp_reported_with_line(self, tmp_path, lines, where):
        # NaN compares false both ways, so it would hide 1.0 -> 0.5 from the
        # order check; every non-finite or unparseable timestamp is refused.
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{where} .*timestamp"):
            read_jsonl(path)

    def test_timestamp_key_collision_rejected(self, tmp_path):
        stream = Stream([Event(1.0, {"t": 5})])
        with pytest.raises(ValueError, match="collides"):
            write_jsonl(stream, tmp_path / "x.jsonl")


class TestCsv:
    def test_round_trip_with_type_inference(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(sample_stream(), path)
        loaded = read_csv(path)
        assert loaded[1].attrs == {"type": "B", "id": 1, "v": 4}
        assert isinstance(loaded[1]["id"], int)

    def test_missing_timestamp_column(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="timestamp column"):
            read_csv(path)

    @pytest.mark.parametrize("cell", ["soon", "", "nan", "inf"])
    def test_bad_timestamp_reported_with_row(self, tmp_path, cell):
        path = tmp_path / "trace.csv"
        path.write_text(f"t,a\n1.0,x\n{cell},y\n0.5,z\n")
        with pytest.raises(ValueError, match=":3: .*timestamp"):
            read_csv(path)

    def test_non_uniform_schema_rejected_on_write(self, tmp_path):
        stream = Stream([Event(1.0, {"a": 1}), Event(2.0, {"b": 2})])
        with pytest.raises(ValueError, match="uniform schema"):
            write_csv(stream, tmp_path / "x.csv")

    def test_empty_stream_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(Stream([]), path)
        assert path.read_text().strip() == "t"

    def test_float_inference(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,rad\n1.0,318.5\n")
        loaded = read_csv(path)
        assert loaded[0]["rad"] == pytest.approx(318.5)


class TestReplayedTraceThroughEires:
    def test_persisted_trace_reproduces_matches(self, tmp_path):
        from tests.helpers import random_stream

        query, store = make_abc_scenario()
        original = random_stream(150, seed=12)
        direct = run_eires(query, store, original)

        path = tmp_path / "replay.jsonl"
        write_jsonl(original, path)
        replayed = run_eires(query, store, read_jsonl(path))
        assert replayed.match_signatures() == direct.match_signatures()


class TestEventsFromDicts:
    def test_builds_stream(self):
        stream = events_from_dicts([{"t": 1, "type": "A"}, {"t": 2, "type": "B"}])
        assert len(stream) == 2
        assert stream[1].event_type == "B"

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf"), "soon", None])
    def test_bad_timestamp_reported_with_record_index(self, bad):
        with pytest.raises(ValueError, match="record 1: .*timestamp"):
            events_from_dicts([{"t": 1.0}, {"t": bad}, {"t": 0.5}])

    def test_missing_timestamp_reported_with_record_index(self):
        with pytest.raises(ValueError, match="record 1: lacks timestamp"):
            events_from_dicts([{"t": 1.0}, {"type": "B"}])


class TestStreamOrder:
    def test_nan_timestamp_fails_the_order_check(self):
        # 1.0 -> NaN -> 0.5: each plain ``<`` comparison with NaN is false.
        events = [Event(1.0, {}), Event(float("nan"), {}), Event(0.5, {})]
        with pytest.raises(ValueError, match="out of order"):
            Stream(events)
