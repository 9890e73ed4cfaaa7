"""What a replay keeps of each match it detects.

The engine hands each step's matches over as
:class:`~repro.engine.interface.MatchRecord`\\ s, each holding its run's
environment; the SLO plane, the tracer and the shedder read them during the
step, and nothing keeps them after it.  A replay's result keeps only what it
reports, in a :class:`MatchStore`, per match:

* the tuple of the bound events' ``seq`` numbers, in the environment's
  binding order (the ints are the events' own objects, so a tuple of them
  costs one small allocation the cyclic collector does not track);
* the binding names, one tuple shared by every match of the same shape;
* ``detected_at``, ``last_event_t`` and ``fetch_wait``, in three
  ``array('d')`` columns;
* the latency attribution, only when the replay is traced.

Recording copies these at detection, so a stream built later over the same
:class:`~repro.events.event.Event` objects (which renumbers their ``seq``)
cannot rewrite a finished replay's signatures.  Recording runs no Python
frame per match: every per-match step is a C-level ``map``, ``setdefault``
or ``array.extend``.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from itertools import repeat
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

    A read-only sequence of :class:`Match` for a result's readers; the
    dispatch loop is its one writer, through :meth:`record`.
    """

    __slots__ = ("_bindings", "_seqs", "_shapes", "_spans",
                 "detected_at", "last_event_t", "fetch_wait")

    def __init__(self, traced: bool = False) -> None:
        self._bindings: list[tuple] = []
        self._seqs: list[tuple] = []
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
        self._seqs.extend(map(tuple, map(map, repeat(_SEQ), map(_VALUES, envs))))
        self.detected_at.extend(map(_DETECTED_AT, step))
        self.last_event_t.extend(map(_LAST_EVENT_T, step))
        self.fetch_wait.extend(map(_FETCH_WAIT, step))
        if self._spans is not None:
            self._spans.extend(map(_SPAN, step))

    def __len__(self) -> int:
        return len(self._seqs)

    def __getitem__(self, index: int) -> Match:
        return Match(self._bindings[index], self._seqs[index], self.detected_at[index],
                     self.last_event_t[index], self.fetch_wait[index],
                     None if self._spans is None else self._spans[index])

    def __iter__(self) -> Iterator[Match]:
        spans = repeat(None) if self._spans is None else self._spans
        return map(Match, self._bindings, self._seqs, self.detected_at,
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
        for bindings, seqs in zip(self._bindings, self._seqs):
            signature = sorted(zip(bindings, seqs))
            signatures.add(tuple(map(share, signature, signature)))
        return signatures
