"""Edge-case and failure-injection tests across modules."""

from repro.events.event import Event
from repro.events.stream import Stream
from repro.query.parser import parse_query
from repro.remote.store import RemoteStore
from repro.remote.transport import FixedLatency, UniformLatency

from tests.helpers import make_abc_scenario, random_stream, run_eires


class TestEmptyAndDegenerateStreams:
    def test_empty_stream(self):
        query, store = make_abc_scenario()
        result = run_eires(query, store, Stream([]))
        assert result.match_count == 0
        assert result.summary()["engine.events_processed"] == 0
        assert result.throughput.events_per_second() == 0.0

    def test_stream_without_matching_types(self):
        query, store = make_abc_scenario()
        events = Stream([Event(float(i + 1), {"type": "Z", "id": 1, "v": 1}) for i in range(50)])
        result = run_eires(query, store, events)
        assert result.match_count == 0
        assert result.summary()["engine.runs_created"] == 0

    def test_single_event_stream(self):
        query, store = make_abc_scenario()
        result = run_eires(query, store, Stream([Event(1.0, {"type": "A", "id": 1, "v": 1})]))
        assert result.match_count == 0
        assert result.summary()["engine.runs_created"] == 1

    def test_simultaneous_timestamps(self):
        query, store = make_abc_scenario()
        events = Stream([
            Event(10.0, {"type": "A", "id": 1, "v": 1}),
            Event(10.0, {"type": "B", "id": 1, "v": 1}),
            Event(10.0, {"type": "C", "id": 1, "v": 1}),
        ])
        result = run_eires(query, store, events)
        assert result.match_count == 1


class TestMissingRemoteData:
    def test_lookup_of_unknown_key_behaves_as_empty_set(self):
        query = parse_query(
            "SEQ(A a, B b) WHERE SAME[id] AND b.v NOT IN REMOTE<ghost>[a.v] WITHIN 1000",
            name="t",
        )
        store = RemoteStore()  # source never registered
        events = Stream([
            Event(10.0, {"type": "A", "id": 1, "v": 1}),
            Event(20.0, {"type": "B", "id": 1, "v": 2}),
        ])
        result = run_eires(query, store, events)
        # NOT IN (empty) is vacuously true: the match goes through.
        assert result.match_count == 1

    def test_positive_membership_on_missing_data_fails(self):
        query = parse_query(
            "SEQ(A a, B b) WHERE SAME[id] AND b.v IN REMOTE<ghost>[a.v] WITHIN 1000",
            name="t",
        )
        store = RemoteStore()
        events = Stream([
            Event(10.0, {"type": "A", "id": 1, "v": 1}),
            Event(20.0, {"type": "B", "id": 1, "v": 2}),
        ])
        for strategy in ("BL1", "BL3", "Hybrid"):
            assert run_eires(query, store, events, strategy=strategy).match_count == 0


class TestExtremeLatencies:
    def test_zero_latency_remote(self):
        query, store = make_abc_scenario()
        stream = random_stream(100, seed=2)
        result = run_eires(query, store, stream, latency=FixedLatency(0.0))
        assert result.match_count > 0
        # With free fetches, even BL1 keeps up: match latencies stay tiny.
        bl1 = run_eires(query, store, stream, strategy="BL1", latency=FixedLatency(0.0))
        assert bl1.latency_percentiles()[50] < 5.0

    def test_enormous_latency_still_correct(self):
        query, store = make_abc_scenario()
        stream = random_stream(60, seed=3)
        slow = run_eires(query, store, stream, latency=FixedLatency(1e6))
        fast = run_eires(query, store, stream, latency=FixedLatency(1.0))
        assert slow.match_signatures() == fast.match_signatures()

    def test_latency_variance_does_not_change_matches(self):
        query, store = make_abc_scenario()
        stream = random_stream(150, seed=4)
        uniform = run_eires(query, store, stream, latency=UniformLatency(1.0, 5000.0))
        fixed = run_eires(query, store, stream, latency=FixedLatency(100.0))
        assert uniform.match_signatures() == fixed.match_signatures()


class TestNoiseInjectionBehaviour:
    def test_full_noise_degrades_pfetch_not_correctness(self):
        query, store = make_abc_scenario()
        stream = random_stream(300, seed=6, v_domain=50)
        clean = run_eires(query, store, stream, strategy="PFetch", noise_ratio=0.0,
                          latency=FixedLatency(100.0), cache_capacity=30)
        noisy = run_eires(query, store, stream, strategy="PFetch", noise_ratio=1.0,
                          latency=FixedLatency(100.0), cache_capacity=30)
        assert noisy.match_signatures() == clean.match_signatures()
        # Full noise sends every prefetch to a decoy key: stalls increase.
        assert noisy.summary()["fetch.blocking_stalls"] >= clean.summary()["fetch.blocking_stalls"]

    def test_decoy_fetches_hit_the_store_safely(self):
        # Decoy keys address non-existent elements; the store must serve
        # empty sentinels without polluting real entries' semantics.
        query, store = make_abc_scenario()
        stream = random_stream(200, seed=8)
        result = run_eires(query, store, stream, strategy="Hybrid", noise_ratio=0.7)
        assert result.match_count == run_eires(query, store, stream, strategy="BL2").match_count


class TestPrefixFinalStates:
    def test_final_state_with_continuation(self):
        # One alternative is a prefix of the other: the shared state is both
        # final and extending.
        query = parse_query(
            "SEQ(A a, B b) OR SEQ(A a, B b, C c) WITHIN 1000", name="prefix"
        )
        store = RemoteStore()
        events = Stream([
            Event(10.0, {"type": "A"}),
            Event(20.0, {"type": "B"}),
            Event(30.0, {"type": "C"}),
        ])
        result = run_eires(query, store, events)
        signatures = result.match_signatures()
        assert (("a", 0), ("b", 1)) in signatures
        assert (("a", 0), ("b", 1), ("c", 2)) in signatures
        assert result.match_count == 2
