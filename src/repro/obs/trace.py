"""The trace bus: typed, virtual-time-stamped lifecycle records.

EIRES's contribution is *when* it fetches and *why* it postpones; the trace
bus makes those decisions inspectable.  Every instrumented component emits
flat dict records through a :class:`Tracer`, timestamped from the
:class:`~repro.sim.clock.VirtualClock`, so traces are deterministic and
diffable across runs — two runs with the same seed produce byte-identical
traces.

Record schema (see ``docs/observability.md`` for the full reference)::

    {"seq": 17,            # monotone per-tracer sequence number
     "t": 1234.5,          # virtual time (us)
     "cat": "fetch",       # lifecycle category (one of CATEGORIES)
     "name": "complete",   # record type within the category
     "track": "Hybrid",    # the strategy/run this record belongs to
     ...}                  # record-specific fields

Design constraints honoured here:

* **The disabled path is near-free.**  Instrumentation sites guard on
  ``tracer.enabled`` (a plain attribute read) before building any record,
  and the shared :data:`NULL_TRACER` keeps that flag ``False`` forever.
* **Tracing must not perturb results.**  A :class:`Tracer` never draws
  random numbers, never touches the clock, and only *reads* model state;
  enabling it changes no RNG stream, match set, or summary.
"""

from __future__ import annotations

import json
from typing import Any, TextIO

__all__ = [
    "CAT_EVENT",
    "CAT_RUN",
    "CAT_PREFETCH",
    "CAT_CACHE",
    "CAT_FETCH",
    "CAT_OBLIGATION",
    "CAT_MATCH",
    "CAT_SPAN",
    "CAT_SHED",
    "CAT_SERVING",
    "CATEGORIES",
    "Tracer",
    "NULL_TRACER",
    "TraceSink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
]

# The lifecycle categories of the EIRES pipeline.  A fully traced run emits
# at least one record in each (the CI smoke step asserts exactly that).
CAT_EVENT = "event"              # input-event arrival
CAT_RUN = "run"                  # partial-match create / drop (extend = create)
CAT_PREFETCH = "prefetch"        # PFetch decisions (Eq. 7 provenance)
CAT_CACHE = "cache"              # admit / evict / hit / miss / reject
CAT_FETCH = "fetch"              # issue / complete / retry / stall / breaker
CAT_OBLIGATION = "obligation"    # postpone (Eq. 8 provenance) / resolve / expire
CAT_MATCH = "match"              # match emission
CAT_SPAN = "span"                # per-match latency attribution (critical-
                                 # path decomposition; one record per match)
CAT_SHED = "shed"                # load-shedding decisions (conditional: only
                                 # emitted when a shedding policy is active,
                                 # so it is NOT part of CATEGORIES — the CI
                                 # smoke requires every CATEGORIES entry in a
                                 # default, shedding-free trace)
CAT_SERVING = "serving"          # fleet-layer admit / throttle
                                 # decisions (conditional, like CAT_SHED:
                                 # only a FleetBuilder deployment emits
                                 # them, so not part of CATEGORIES either)

CATEGORIES = (
    CAT_EVENT,
    CAT_RUN,
    CAT_PREFETCH,
    CAT_CACHE,
    CAT_FETCH,
    CAT_OBLIGATION,
    CAT_MATCH,
    CAT_SPAN,
)


class TraceSink:
    """Where trace records go.  Subclasses override :meth:`write`."""

    def write(self, record: dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (default: nothing to do)."""


class NullSink(TraceSink):
    """Discards everything; a tracer over it reports ``enabled=False``."""

    def write(self, record: dict[str, Any]) -> None:  # pragma: no cover - never called
        pass


class MemorySink(TraceSink):
    """Collects records in a list (tests, exporters, the CLI)."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def write(self, record: dict[str, Any]) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def by_category(self, cat: str) -> list[dict[str, Any]]:
        return [record for record in self.records if record["cat"] == cat]


class JsonlSink(TraceSink):
    """Streams records as JSON lines to a file (or any text handle)."""

    def __init__(self, target: str | TextIO) -> None:
        if isinstance(target, str):
            self._handle: TextIO = open(target, "w")
            self._owned = True
        else:
            self._handle = target
            self._owned = False

    def write(self, record: dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, default=_jsonable))
        self._handle.write("\n")

    def close(self) -> None:
        self._handle.flush()
        if self._owned:
            self._handle.close()


def _jsonable(value: Any) -> Any:
    """Fallback serialisation: tuples-in-dicts are fine, objects get repr'd."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return repr(value)


class Tracer:
    """Emits lifecycle records into a sink, stamping sequence numbers.

    ``track`` labels the strategy (or pipeline) the records belong to; the
    Chrome exporter maps each track to its own process row.  Instrumented
    code MUST guard emission sites with ``if tracer.enabled:`` so the
    disabled path costs one attribute read and one branch.
    """

    __slots__ = ("enabled", "track", "_sink", "_seq", "_run_refs")

    def __init__(self, sink: TraceSink | None = None, track: str = "") -> None:
        self._sink = sink if sink is not None else NullSink()
        self.enabled = sink is not None and not isinstance(sink, NullSink)
        self.track = track
        self._seq = 0
        self._run_refs: dict[int, int] = {}

    def run_ref(self, raw_run_id: int) -> int:
        """Stable, dense id for a partial match within this trace.

        ``Run.run_id`` counts across the whole process, so its raw value
        depends on how many runs earlier evaluations created; remapping in
        first-seen order keeps traces byte-identical across repeat runs.
        """
        ref = self._run_refs.get(raw_run_id)
        if ref is None:
            ref = self._run_refs[raw_run_id] = len(self._run_refs)
        return ref

    def emit(self, cat: str, name: str, t: float, **fields: Any) -> None:
        """Record one lifecycle occurrence at virtual time ``t``."""
        if not self.enabled:
            return
        record: dict[str, Any] = {"seq": self._seq, "t": t, "cat": cat, "name": name}
        if self.track:
            record["track"] = self.track
        record.update(fields)
        self._seq += 1
        self._sink.write(record)

    def close(self) -> None:
        self._sink.close()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, track={self.track!r}, seq={self._seq})"


#: The shared disabled tracer: every component defaults to it, so untraced
#: runs pay exactly one ``enabled`` check per instrumentation site.
NULL_TRACER = Tracer(None)


def trace_key(key: tuple) -> list:
    """A JSON-friendly rendering of a ``(source, key)`` DataKey."""
    return [key[0], key[1] if isinstance(key[1], (str, int, float)) else repr(key[1])]


# Re-exported for instrumentation sites that format keys.
__all__.append("trace_key")
