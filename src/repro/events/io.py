"""Stream (de)serialisation: replay recorded traces, persist generated ones.

Two line-oriented formats are supported:

* **JSONL** — one JSON object per line; the timestamp lives under the key
  :data:`TIMESTAMP_KEY` (``"t"``, microseconds) and every other key becomes
  a payload attribute.  Nested values are kept as-is, so tuple-like
  payloads survive a round trip as lists.
* **CSV** — a header row; the :data:`TIMESTAMP_KEY` column is the timestamp
  and the remaining columns are payload attributes.  Values are parsed as
  int, then float, then kept as strings — CSV carries no type information.

Every reader rejects a timestamp that is not a finite number, naming where
it stands (``path:line``, ``path:row``).  Both file readers sort by
timestamp if asked (``assume_sorted=False``) and otherwise validate
ordering, because an out-of-order trace would silently break window
semantics.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable

from repro.events.event import Event
from repro.events.stream import Stream

__all__ = ["read_jsonl", "write_jsonl", "read_csv", "write_csv"]

# The record key (CSV: column) holding each event's timestamp.
TIMESTAMP_KEY = "t"


def _timestamp(value, where: str) -> float:
    """``value`` as a finite timestamp; ``where`` locates it in the error."""
    try:
        timestamp = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: unparseable timestamp {value!r}") from None
    if not math.isfinite(timestamp):
        raise ValueError(f"{where}: timestamp must be finite, got {value!r}")
    return timestamp


def read_jsonl(path: str | Path, assume_sorted: bool = True) -> Stream:
    """Load a stream from a JSON-lines trace file."""
    events = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_number}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{where}: invalid JSON: {error}") from None
            if TIMESTAMP_KEY not in record:
                raise ValueError(f"{where}: record lacks timestamp key {TIMESTAMP_KEY!r}")
            timestamp = _timestamp(record.pop(TIMESTAMP_KEY), where)
            events.append(Event(timestamp, record))
    if not assume_sorted:
        events.sort(key=lambda event: event.t)
    return Stream(events)


def write_jsonl(stream: Stream, path: str | Path) -> None:
    """Persist a stream as JSON lines (inverse of :func:`read_jsonl`)."""
    with open(path, "w") as handle:
        for event in stream:
            record = {TIMESTAMP_KEY: event.t}
            for key, value in event.attrs.items():
                if key == TIMESTAMP_KEY:
                    raise ValueError(
                        f"payload attribute {key!r} collides with the timestamp key"
                    )
                record[key] = value
            handle.write(json.dumps(record, default=_jsonify) + "\n")


def _jsonify(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(f"cannot serialise {type(value).__name__} payload value: {value!r}")


def _parse_cell(text: str):
    for parser in (int, float):
        try:
            return parser(text)
        except ValueError:
            continue
    return text


def read_csv(path: str | Path, assume_sorted: bool = True) -> Stream:
    """Load a stream from a CSV trace with a header row."""
    events = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or TIMESTAMP_KEY not in reader.fieldnames:
            raise ValueError(
                f"{path}: CSV header must include the timestamp column {TIMESTAMP_KEY!r}"
            )
        for row_number, row in enumerate(reader, start=2):
            timestamp = _timestamp(row.pop(TIMESTAMP_KEY), f"{path}:{row_number}")
            events.append(Event(timestamp, {k: _parse_cell(v) for k, v in row.items()}))
    if not assume_sorted:
        events.sort(key=lambda event: event.t)
    return Stream(events)


def write_csv(stream: Stream, path: str | Path) -> None:
    """Persist a stream as CSV (attribute set must be uniform)."""
    events = list(stream)
    if not events:
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerow([TIMESTAMP_KEY])
        return
    columns = list(events[0].attrs)
    for event in events:
        if list(event.attrs) != columns:
            raise ValueError(
                "CSV export needs a uniform schema; "
                f"event at t={event.t} differs from the first event's attributes"
            )
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([TIMESTAMP_KEY] + columns)
        for event in events:
            writer.writerow([event.t] + [event.attrs[column] for column in columns])


def events_from_dicts(records: Iterable[dict]) -> Stream:
    """Build a stream from in-memory dicts (convenience for adapters)."""
    events = []
    for index, record in enumerate(records):
        payload = dict(record)
        where = f"record {index}"
        if TIMESTAMP_KEY not in payload:
            raise ValueError(f"{where}: lacks timestamp key {TIMESTAMP_KEY!r}")
        events.append(Event(_timestamp(payload.pop(TIMESTAMP_KEY), where), payload))
    return Stream(events)
