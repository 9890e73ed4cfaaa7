"""What a finished replay keeps of its matches: the result's match store.

The engine's per-step ``MatchRecord``\\ s carry their run's environment; a
result keeps every match's event ``seq``\\ s end to end in one flat list, each
match's shared binding names (whose length cuts its ``seq``\\ s off the flat
list) and three float columns.  These tests pin the result surface against
the records the engine emitted, the signatures against later renumbering of
the stream's events, and the bytes retained per match.
"""

from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc

import pytest

from repro.bench.harness import run_strategy
from repro.core.config import EiresConfig
from repro.core.framework import EIRES
from repro.events.event import Event
from repro.events.stream import Stream, merge_streams
from repro.obs.trace import MemorySink, Tracer
from repro.query.parser import parse_query
from repro.remote.store import RemoteStore
from repro.remote.transport import FixedLatency
from repro.runtime.matches import Match, MatchStore
from repro.workloads.synthetic import SyntheticConfig, make_stream, q1_workload, q2_workload

_SMALL = {
    "q1": lambda: q1_workload(SyntheticConfig(n_events=600, id_domain=5, window_events=120)),
    "q2": lambda: q2_workload(SyntheticConfig(n_events=700, id_domain=16, window_events=200)),
}


def _recorded_run(monkeypatch, traced: bool):
    """A Q1 Hybrid replay plus what each engine ``MatchRecord`` held at detection."""
    recorded = []
    record = MatchStore.record

    def spy(store, step):
        recorded.extend(
            (match.signature(), match.detected_at, match.last_event_t, match.fetch_wait,
             match.latency, match.span)
            for match in step
        )
        record(store, step)

    monkeypatch.setattr(MatchStore, "record", spy)
    tracer = Tracer(MemorySink()) if traced else None
    result = run_strategy(_SMALL["q1"](), "Hybrid", EiresConfig(), tracer=tracer)
    return result, recorded


class TestResultSurface:
    @pytest.mark.parametrize("traced", [False, True])
    def test_matches_read_back_what_the_engine_emitted(self, monkeypatch, traced):
        result, recorded = _recorded_run(monkeypatch, traced)
        assert len(result.matches) == result.match_count == len(recorded) > 0
        seen = [
            (match.signature(), match.detected_at, match.last_event_t, match.fetch_wait,
             match.latency, match.span)
            for match in result.matches
        ]
        assert seen == recorded
        assert all((span is not None) == traced for *_, span in seen)
        assert result.match_signatures() == {facts[0] for facts in recorded}

    def test_indexing_and_exact_latency(self, monkeypatch):
        result, recorded = _recorded_run(monkeypatch, traced=False)
        matches = result.matches
        n = len(matches)
        for index in (0, 1, n // 2, n - 1, -1, -n):
            match = matches[index]
            assert match.signature() == recorded[index][0]
            assert match.latency == match.detected_at - match.last_event_t == recorded[index][4]
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                matches[index]
        assert list(matches)[-1].signature() == matches[-1].signature()

    def test_signatures_share_their_binding_seq_pairs(self):
        result = run_strategy(_SMALL["q1"](), "Hybrid", EiresConfig())
        pairs = [pair for signature in result.match_signatures() for pair in signature]
        assert len({id(pair) for pair in pairs}) == len(set(pairs)) < len(pairs)

    @pytest.mark.parametrize(
        ("workload", "text", "digest"),
        [
            ("q1", "RunResult(Hybrid: 198 matches, p5=2.7us, p25=4.3us, p50=6.2us, "
                   "p75=8.1us, p95=33.7us, p99=45.2us, 40577 ev/s)", "8e5ca496645e38d4"),
            ("q2", "RunResult(Hybrid: 236 matches, p5=0.3us, p25=0.3us, p50=0.5us, "
                   "p75=0.7us, p95=1.1us, p99=1.5us, 40079 ev/s)", "ed715cfd318de20a"),
        ],
    )
    def test_repr_and_summary_are_unchanged(self, workload, text, digest):
        """Taken while a result still kept every engine ``MatchRecord``; the
        summary digests re-pinned when the fetch.* copies of the transport's
        fault counters left the summary and a blocking join of an in-flight
        fetch stopped putting its response twice (q1: cache.insertions
        205 -> 202, transport.coalesced 0 -> 3; nothing else moved)."""
        result = run_strategy(_SMALL[workload](), "Hybrid", EiresConfig())
        assert repr(result) == text
        summary = json.dumps(result.summary(), sort_keys=True).encode()
        assert hashlib.blake2s(summary, digest_size=8).hexdigest() == digest


def test_signatures_are_fixed_at_detection():
    """Building a stream renumbers the ``seq`` of the events it holds; a
    replay that already finished must keep the signatures it detected."""
    workload = _SMALL["q1"]()
    result = run_strategy(workload, "Hybrid", EiresConfig())
    before = result.match_signatures()
    assert before
    other = Stream([Event(0.5 * i, {"type": "A", "id": 0, "v1": 0, "v2": 0}) for i in range(50)])
    merge_streams(other, workload.stream)
    assert workload.stream[0].seq != 0  # the merge did renumber the replayed events
    assert result.match_signatures() == before
    assert {match.signature() for match in result.matches} == before


def _rows(matches) -> list[tuple]:
    return [(match.bindings, match.seqs, match.detected_at, match.last_event_t,
             match.fetch_wait) for match in matches]


def _digest(value) -> str:
    return hashlib.blake2s(repr(value).encode(), digest_size=8).hexdigest()


class TestFlatSeqs:
    """Q2 detects matches of two binding shapes, (a, c, e) and (a, b, d, f),
    interleaved in one replay: each match's seqs are cut from the one flat
    list by its own shape's length.  The expected rows were read from the
    store that kept one ``seq`` tuple per match."""

    ROWS = 236
    ROWS_DIGEST = "4e8d414f92ad5754"
    SIGNATURES_DIGEST = "79078991fee3ca05"
    LATENCIES_DIGEST = "d831915317f5e7fe"
    PINNED = {
        0: (("a", "c", "e"), (2, 17, 33), 868.9174963561601, 868.5374963561602, 0.0),
        3: (("a", "b", "d", "f"), (1, 53, 93, 95), 2452.3514199134042, 2452.0814199134043, 0.0),
        221: (("a", "c", "e"), (511, 517, 660), 16408.412008675445, 16407.852008675443, 0.0),
        222: (("a", "b", "d", "f"), (484, 535, 566, 661), 16461.714273780544,
              16461.444273780544, 0.0),
        235: (("a", "c", "e"), (509, 620, 695), 17409.060087153455, 17408.500087153454, 0.0),
    }

    @pytest.fixture(scope="class")
    def steps(self):
        """The replay's per-step ``MatchRecord`` lists, as recorded."""
        steps = []
        record = MatchStore.record

        def spy(store, step):
            steps.append(list(step))
            record(store, step)

        MatchStore.record = spy
        try:
            result = run_strategy(_SMALL["q2"](), "Hybrid", EiresConfig())
        finally:
            MatchStore.record = record
        assert len(result.matches) == sum(map(len, steps)) == self.ROWS
        return steps

    def _check(self, store: MatchStore) -> None:
        n = len(store)
        rows = _rows(store)
        assert n == len(rows) == self.ROWS
        assert {bindings for bindings, *_ in rows} == {("a", "c", "e"), ("a", "b", "d", "f")}
        assert _digest(rows) == self.ROWS_DIGEST
        for index, row in self.PINNED.items():
            assert _rows([store[index]]) == [row] == _rows([store[index - n]])
        assert _rows(store[index] for index in range(n)) == rows
        assert _rows(store[index] for index in range(-n, 0)) == rows
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                store[index]
        assert _digest(sorted(store.signatures())) == self.SIGNATURES_DIGEST
        assert store.signatures() == {match.signature() for match in store}
        assert _digest(store.latencies()) == self.LATENCIES_DIGEST
        assert store.latencies() == [match.latency for match in store]

    def test_reads_back_the_per_match_rows(self, steps):
        store = MatchStore()
        for step in steps:
            store.record(step)
        self._check(store)

    def test_a_record_after_a_read_is_read_back(self, steps):
        store = MatchStore()
        half = len(steps) // 2
        for step in steps[:half]:
            store.record(step)
        recorded = sum(map(len, steps[:half]))
        assert len(store) == recorded
        assert _rows([store[-1]]) == _rows([store[recorded - 1]])
        assert _rows(store)[0] == self.PINNED[0]
        for step in steps[half:]:
            store.record(step)
            store[-1]  # every record follows a read
        self._check(store)

    def test_an_empty_store(self):
        store = MatchStore()
        assert len(store) == 0 and list(store) == [] and store.signatures() == set()
        with pytest.raises(IndexError):
            store[0]
        assert store[:] == store[0:2] == []

    def test_a_slice_is_the_list_of_its_matches(self, steps):
        store = MatchStore()
        for step in steps:
            store.record(step)
        every = list(store)
        n = len(store)
        for cut in (slice(0, 2), slice(None), slice(-3, None), slice(None, 2 - n),
                    slice(1, n, 7), slice(None, None, -1), slice(-1, -n - 5, -3),
                    slice(n - 1, 0, -50), slice(n, n + 5), slice(5, 2)):
            got = store[cut]
            assert type(got) is list and all(type(match) is Match for match in got)
            assert _rows(got) == _rows(every[cut]), cut
        assert _rows(store[220:223]) == _rows([store[220], store[221], store[222]])
        assert _rows(store[221:223]) == [self.PINNED[221], self.PINNED[222]]
        with pytest.raises(ValueError):
            store[::0]


def test_a_result_retains_at_most_80_bytes_per_match():
    """A local-only, guard-heavy replay: what its result keeps per match,
    with the runtime that produced it dropped and its input stream kept."""
    query = parse_query(
        """
        SEQ(A a, B b, C c, D d)
        WHERE SAME[id] AND a.v1 >= 4000 AND b.v2 >= 8000 AND c.v1 <= 92000
        AND a.v1 <= d.v1
        WITHIN 400 EVENTS
        """,
        name="QG",
    )
    stream = make_stream(SyntheticConfig(n_events=500, id_domain=6, window_events=400))

    def replay():
        return EIRES(query, RemoteStore(), FixedLatency(0.0), strategy="BL1").run(stream)

    replay()  # warm every lazily built cache first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = replay()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.match_count > 2_000
    per_match = retained / result.match_count
    assert per_match <= 80, f"{per_match:.1f} B retained per match"
