"""Event model and streams."""

from repro.events.event import TYPE_ATTRIBUTE, Event, EventSchema
from repro.events.stream import Stream, merge_streams

__all__ = [
    "Event",
    "EventSchema",
    "TYPE_ATTRIBUTE",
    "Stream",
    "merge_streams",
]
