"""Event streams and stream prefixes (§2.1).

A stream is a timestamp-ordered sequence of events.  The reproduction works
with *materialised* finite prefixes (``S(..k)``) because experiments replay a
fixed number of events; :class:`Stream` nevertheless exposes an iterator
interface so the engine consumes events one at a time, exactly as an online
system would.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.events.event import Event

__all__ = ["Stream", "merge_streams"]


class Stream:
    """A finite, timestamp-ordered event sequence.

    The constructor validates ordering and assigns consecutive ``seq``
    indices (0-based), overwriting any pre-existing ones: within a stream
    the index *is* the position.
    """

    __slots__ = ("_events",)

    def __init__(self, events: Iterable[Event], validate: bool = True) -> None:
        materialised = list(events)
        for index, event in enumerate(materialised):
            event.seq = index
        if validate:
            for previous, current in zip(materialised, materialised[1:]):
                # Negated so a NaN timestamp, which compares false, fails too.
                if not current.t >= previous.t:
                    raise ValueError(
                        f"stream out of order: event seq={current.seq} at t={current.t} "
                        f"follows t={previous.t}"
                    )
        self._events = materialised

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    @property
    def events(self) -> Sequence[Event]:
        return self._events

    def prefix(self, k: int) -> "Stream":
        """The stream prefix ``S(..k)`` containing the first ``k`` events."""
        if k < 0:
            raise ValueError(f"prefix length must be non-negative: {k}")
        return Stream(self._events[:k], validate=False)

    def duration(self) -> float:
        """Time span between the first and last event (0 for short streams)."""
        if len(self._events) < 2:
            return 0.0
        return self._events[-1].t - self._events[0].t

    def __repr__(self) -> str:
        if not self._events:
            return "Stream(<empty>)"
        return (
            f"Stream({len(self._events)} events, "
            f"t=[{self._events[0].t:.1f}, {self._events[-1].t:.1f}])"
        )


def merge_streams(*streams: Stream) -> Stream:
    """Merge streams by timestamp into a single ordered stream.

    Ties are broken by the order the streams are passed in, then by original
    position, keeping the merge deterministic.  Events are re-indexed.
    """
    tagged = [
        (event.t, stream_index, event.seq, event)
        for stream_index, stream in enumerate(streams)
        for event in stream
    ]
    tagged.sort(key=lambda item: item[:3])
    return Stream([event for *_, event in tagged], validate=False)
