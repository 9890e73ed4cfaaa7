"""What a replay keeps of each match it detects.

The engine hands each step's matches over as
:class:`~repro.engine.interface.MatchRecord`\\ s, each holding its run's
environment; the SLO plane, the tracer and the shedder read them during the
step, and nothing keeps them after it.  A replay's result keeps only what it
reports, in a :class:`MatchStore`, per match:

* the bound events' ``seq`` numbers, in the environment's binding order,
  appended to one flat list shared by every match (the ints are the events'
  own objects, so a match costs one pointer per binding and no allocation);
* the binding names, one tuple shared by every match of the same shape,
  whose length says how many of the flat ``seq``\\ s are the match's;
* ``detected_at``, ``last_event_t`` and ``fetch_wait``, in three
  ``array('d')`` columns;
* the latency attribution, only when the replay is traced.

Where each match's ``seq``\\ s start is worked out only when a reader indexes
the store, and dropped at the next :meth:`MatchStore.record`; iterating
walks the flat list in step with the shapes and needs no offsets.

Recording copies these at detection, so a stream built later over the same
:class:`~repro.events.event.Event` objects (which renumbers their ``seq``)
cannot rewrite a finished replay's signatures.  Recording runs no Python
frame per match: every per-match step is a C-level ``map``, ``setdefault``
or ``extend``.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from itertools import accumulate, chain, islice, repeat
from operator import attrgetter, methodcaller, sub

__all__ = ["MatchStore", "Match"]

_EVENTS = attrgetter("events")
_SEQ = attrgetter("seq")
_VALUES = methodcaller("values")
_DETECTED_AT = attrgetter("detected_at")
_LAST_EVENT_T = attrgetter("last_event_t")
_FETCH_WAIT = attrgetter("fetch_wait")
_SPAN = attrgetter("span")


class Match:
    """One match of a finished replay, as :class:`MatchStore` reports it.

    ``bindings`` and ``seqs`` are parallel tuples (binding name, bound
    event's ``seq``) in binding order; ``span`` is the latency attribution,
    ``None`` when the replay was not traced.
    """

    __slots__ = ("bindings", "seqs", "detected_at", "last_event_t", "fetch_wait", "span")

    def __init__(self, bindings: tuple, seqs: tuple, detected_at: float,
                 last_event_t: float, fetch_wait: float, span: dict | None) -> None:
        self.bindings = bindings
        self.seqs = seqs
        self.detected_at = detected_at
        self.last_event_t = last_event_t
        self.fetch_wait = fetch_wait
        self.span = span

    @property
    def latency(self) -> float:
        """Detection latency: last-event arrival to match detection (§2.2)."""
        return self.detected_at - self.last_event_t

    def signature(self) -> tuple:
        """Canonical identity of the match, for cross-strategy comparison:
        the same tuple :meth:`MatchRecord.signature` gives at detection."""
        return tuple(sorted(zip(self.bindings, self.seqs)))


class MatchStore(Sequence):
    """Every match one replay detected, in detection order.

    A read-only sequence of :class:`Match` for a result's readers (a slice
    of it is a list of them); the dispatch loop is its one writer, through
    :meth:`record`.
    """

    __slots__ = ("_bindings", "_seqs", "_starts", "_shapes", "_spans",
                 "detected_at", "last_event_t", "fetch_wait")

    def __init__(self, traced: bool = False) -> None:
        self._bindings: list[tuple] = []
        # Every match's seqs end to end; match i owns len(_bindings[i]) of them.
        self._seqs: list[int] = []
        # Where each match's seqs start, plus the end: built on first index.
        self._starts: array | None = None
        # Each distinct binding-name tuple, keyed by itself: its one copy.
        self._shapes: dict[tuple, tuple] = {}
        self._spans: list | None = [] if traced else None
        self.detected_at = array("d")
        self.last_event_t = array("d")
        self.fetch_wait = array("d")

    def record(self, step: list) -> None:
        """Keep what a result reads of one step's ``MatchRecord``\\ s."""
        envs = list(map(_EVENTS, step))
        shapes = list(map(tuple, envs))
        self._bindings.extend(map(self._shapes.setdefault, shapes, shapes))
        self._seqs.extend(map(_SEQ, chain.from_iterable(map(_VALUES, envs))))
        self._starts = None
        self.detected_at.extend(map(_DETECTED_AT, step))
        self.last_event_t.extend(map(_LAST_EVENT_T, step))
        self.fetch_wait.extend(map(_FETCH_WAIT, step))
        if self._spans is not None:
            self._spans.extend(map(_SPAN, step))

    def _seq_tuples(self) -> Iterator[tuple]:
        """Each match's seqs as a tuple, in order: the shapes' lengths cut
        consecutive slices off one pass over the flat list."""
        flat = iter(self._seqs)
        return map(tuple, map(islice, repeat(flat), map(len, self._bindings)))

    def __len__(self) -> int:
        return len(self._bindings)

    def __getitem__(self, index: int | slice) -> Match | list[Match]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._bindings)))]
        bindings = self._bindings[index]
        if index < 0:
            index += len(self._bindings)
        starts = self._starts
        if starts is None:
            starts = self._starts = array(
                "q", accumulate(map(len, self._bindings), initial=0))
        return Match(bindings, tuple(self._seqs[starts[index]:starts[index + 1]]),
                     self.detected_at[index], self.last_event_t[index],
                     self.fetch_wait[index],
                     None if self._spans is None else self._spans[index])

    def __iter__(self) -> Iterator[Match]:
        spans = repeat(None) if self._spans is None else self._spans
        return map(Match, self._bindings, self._seq_tuples(), self.detected_at,
                   self.last_event_t, self.fetch_wait, spans)

    def latencies(self) -> list[float]:
        """Each match's latency, ``detected_at - last_event_t``, in order."""
        return list(map(sub, self.detected_at, self.last_event_t))

    def signatures(self) -> set[tuple]:
        """Every match's :meth:`Match.signature`; equal ``(binding, seq)``
        pairs are one shared tuple across the whole set."""
        pairs: dict[tuple, tuple] = {}
        share = pairs.setdefault
        signatures = set()
        for bindings, seqs in zip(self._bindings, self._seq_tuples()):
            signature = sorted(zip(bindings, seqs))
            signatures.add(tuple(map(share, signature, signature)))
        return signatures
