#!/usr/bin/env python3
"""Exact work-count gates over one ``benchmarks/perf/run.py --trace 1`` block.

cProfile call counts are exact, so these gates have no noise to tolerate:
each row bounds a ratio of counts that one design decision moved, on the
workload that exercises it, and fails with a message naming what crept
back.  The bounds leave room only for interpreter versions that count
comprehensions as frames differently.

Usage (the block is the last line ``run.py`` prints)::

    python benchmarks/perf/run.py --workload guard_heavy --smoke --trace 1 \\
        | tail -n 1 | python tools/perf_count_gate.py guard_heavy

Exit status: 0 when every row of the workload holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, NamedTuple

__all__ = ["GATES", "Gate", "check", "main"]

#: One ``process_event`` call per stream event: scales ``*_per_event`` rows
#: back to counts.
_EVENTS = "engine.process_event.calls"


class Gate(NamedTuple):
    """``sum(numerators) / sum(denominators) <= bound`` on one workload.

    Every name is a ``BENCHMARK.json`` per-layer row read as a count;
    ``<layer>.calls_per_event`` rows are Python frames per event and are
    multiplied by the event count first.
    """

    workload: str
    name: str
    numerators: tuple[str, ...]
    denominators: tuple[str, ...]
    bound: float
    message: str


def _frames(*layers: str) -> tuple[str, ...]:
    return tuple(f"{layer}.calls_per_event" for layer in layers)


GATES = (
    # Python frames in the five layers a partial-match visit can touch, per
    # guard evaluated, on the engine-bound workload.  Measured (--smoke,
    # Python 3.11): 13.33 before bucket loops, 2.49 with them (full size,
    # seed 7: 13.10 -> 2.21); 1.93 with a per-outcome extend/admit/emit and
    # clock publish in the bucket replay, 1.21 without (seed 42: 1.11); 0.58
    # with the utility model driven only where a remote site exists and no
    # list-comprehension frame per match; 0.56 observing arrival rates only
    # there too; 0.37 with the clock a slot the engine writes.
    Gate(
        "guard_heavy",
        "frames per guard",
        _frames("query", "engine", "sim", "strategies", "utility"),
        ("engine.guard_evaluations",),
        1.5,
        "per-visit frames crept back into the engine",
    ),
    # Metrics-layer frames per event: the throughput meter's one record per
    # event, and nothing per match (each match record carries its latency).
    # Measured (--smoke, Python 3.11): 8.42 with a per-match latency record
    # copied into a second store, 1.007 without (seed 7; seed 42: 7.82 and
    # 1.007).
    Gate(
        "guard_heavy",
        "metrics frames per event",
        _frames("metrics"),
        (_EVENTS,),
        1.1,
        "the dispatch loop records something per match again",
    ),
    # Runtime-layer frames per match: deliver_event once per event, and the
    # match store's record once per step that matched, never per match.
    # Measured (--smoke, Python 3.11, seed 42): 758 / 5 112 = 0.15 keeping
    # the engine's records in a list, 853 / 5 112 = 0.17 recording seq
    # tuples and float columns through C-level maps, 5 965 / 5 112 = 1.17
    # with a per-match Python helper in the recording.
    Gate(
        "guard_heavy",
        "runtime frames per match",
        _frames("runtime"),
        ("matches",),
        0.3,
        "the match store records through a Python frame per match again",
    ),
    # Utility-model calls per event where nothing reads a utility (no remote
    # site): no run registration, no tick.  Measured (--smoke, Python 3.11,
    # seed 42): (9 029 + 750) / 750 = 13.04 driving the model for every
    # automaton, 0 / 750 driving it only where a remote site exists.
    # Registration is one ``on_runs_created`` call per batch since, which the
    # ``utility.on_run_created`` boundary no longer sees, so the row reads
    # the ticks alone: ``_drives_utility`` gates ticks and registration
    # together, and forcing it on makes one tick per event (750 / 750 = 1.0).
    Gate(
        "guard_heavy",
        "utility-model calls per event",
        ("utility.tick.calls",),
        (_EVENTS,),
        0.01,
        "the utility model is driven without a remote site again",
    ),
    # Utility-layer frames per event where nothing reads a rate (no remote
    # site): the guard tallies' cell lookup, and no arrival observed.
    # Measured (--smoke, Python 3.11, seed 42): 1.97 observing every
    # arrival, 0.96 observing only where a remote site exists.
    Gate(
        "guard_heavy",
        "utility frames per event",
        _frames("utility"),
        (_EVENTS,),
        1.1,
        "event rates are observed without a remote site again",
    ),
    # NFA-layer frames (Run construction and methods) per run created: the
    # bucket replay builds a match from the extension's environment and a
    # Run only for a target with transitions.  Measured (--smoke, Python
    # 3.11): 3.13 building a Run per match through Run.extend, 1.02 without.
    Gate(
        "guard_heavy",
        "nfa frames per run created",
        _frames("nfa"),
        ("engine.runs_created",),
        1.3,
        "the bucket replay builds a Run per match again",
    ),
    # The interpretive Predicate.evaluate walk is the fallback, not the path.
    Gate(
        "q1_hybrid",
        "interpretive evaluations per remote predicate resolved",
        ("query.evaluate.calls",),
        ("strategies.resolve_predicate.calls",),
        0.01,
        "remote predicates are walking their trees again",
    ),
    # Frames per partial match created, on the paper's headline path (Q1,
    # Hybrid): the engine<->strategy boundary is crossed per bucket or per
    # event, never per run, and remote predicates run generated code.
    # Python frames in the seven layers a partial match's life touches, over
    # runs created.  Measured (--smoke, Python 3.11): 44.4 with per-run
    # callbacks and the interpretive remote path, 25.0 without (full size,
    # seed 7: 45.6 -> 25.5); 23.70 with eager utility index writes, 18.30
    # with the index filled on read, 16.63 with the bucket replay building
    # matches and extensions in place (16.52 at seed 42); 7.32 with
    # registration per batch, one probe per cache hit and the clock a slot.
    Gate(
        "q1_hybrid",
        "frames per run created",
        _frames("query", "engine", "strategies", "utility", "remote", "sim", "events"),
        ("engine.runs_created",),
        10.0,
        "per-run frames crept back into the run lifecycle",
    ),
    # Cache, strategy and clock frames per remote-predicate resolution: a
    # single-key predicate outside a blocking round makes one cache probe,
    # no snapshot, and reads the clock's slot.  Measured (--smoke, Python
    # 3.11, seed 42): 256 685 / 8 201 = 31.30 through _collect, _probe,
    # trigger_state_for, _record and the clock property; 93 041 / 8 201 =
    # 11.35 with one probe, batched registration and the clock a slot.
    Gate(
        "q1_hybrid",
        "frames per remote resolution",
        _frames("strategies", "cache", "sim"),
        ("strategies.resolve_predicate.calls",),
        15.0,
        "a cache hit pays a chain of frames again",
    ),
    # Utility-layer frames per run created: Alg. 2 registers a batch in one
    # call, not a call per run.  Measured (--smoke, Python 3.11, seed 42):
    # 45 152 / 19 567 = 2.31 registering and unregistering run by run,
    # 10 897 / 19 567 = 0.56 per batch.
    Gate(
        "q1_hybrid",
        "utility frames per run created",
        _frames("utility"),
        ("engine.runs_created",),
        1.0,
        "the utility model registers run by run again",
    ),
    # Remote-layer frames (store lookups, ancestor walks) per run created:
    # the utility index walks a run's keys only when a utility is read, and
    # Q1's cache never fills, so the Eq. 7 gate never reads it.  Measured
    # (--smoke, Python 3.11): 6.21 writing the index at every run create and
    # drop, 0.89 filling it on read.
    Gate(
        "q1_hybrid",
        "remote frames per run created",
        _frames("remote"),
        ("engine.runs_created",),
        1.5,
        "utility index writes are eager again",
    ),
    # Eq. 5 evaluations per sampled cache decision (an eviction inside put,
    # or the Eq. 7 gate's min_utility): both stop at the first candidate on
    # the utility floor.  Measured (--smoke, Python 3.11): 11.23 scoring
    # every one of the 12 sampled candidates, 3.74 stopping at the floor.
    Gate(
        "cache_pressure",
        "utility evaluations per sampled cache decision",
        ("utility.value.calls",),
        ("cache.put.calls", "cache.min_utility.calls"),
        6.0,
        "eviction or the Eq. 7 gate scores past the utility floor again",
    ),
    # Remote-layer frames per wire request on the fetch-plane-bound workload
    # (batched async fetches): a single-key fetch and a batch share one wire
    # path.  Measured (--smoke, Python 3.11): 103 782 / 1 123 = 92.41 with a
    # wire path each, 104 907 / 1 123 = 93.42 with one shared ``_send`` (one
    # frame more per wire request).
    Gate(
        "cache_pressure",
        "remote frames per wire request",
        _frames("remote"),
        ("remote.wire_requests",),
        100.0,
        "the fetch plane makes more calls per wire request",
    ),
    # Python frames outside src/repro per event, where every put evicts and
    # every Eq. 7 gate reads a sample: the sampled cache decisions draw by
    # an inline getrandbits loop, not randrange's Python frames.  Measured
    # (--smoke, Python 3.11, seed 42): 118.08 drawing through randrange,
    # 95.48 inline.
    Gate(
        "cache_pressure",
        "py frames per event",
        _frames("py"),
        (_EVENTS,),
        105.0,
        "sampled cache decisions draw through randrange again",
    ),
)


def _count(metric: dict[str, float], name: str) -> float:
    value = metric[name]
    return value * metric[_EVENTS] if name.endswith("_per_event") else value


def check(workload: str, block: dict[str, Any]) -> list[str]:
    """Problems of ``block`` against the workload's rows; prints each ratio."""
    gates = [gate for gate in GATES if gate.workload == workload]
    if block.get("correct") is not True:
        return [f"{workload}: the benchmark block is not correct: {block.get('correct')!r}"]
    metric = {name: entry["value"] for name, entry in block["metrics"].items()}
    problems = []
    for gate in gates:
        numerator = sum(_count(metric, name) for name in gate.numerators)
        denominator = sum(_count(metric, name) for name in gate.denominators)
        if not denominator:
            problems.append(f"{workload}: {gate.name}: none of {gate.denominators} was counted")
            continue
        ratio = numerator / denominator
        print(f"{workload}: {gate.name}: {numerator:.0f} / {denominator:.0f} = {ratio:.2f}"
              f" (bound {gate.bound})")
        if ratio > gate.bound:
            problems.append(f"{workload}: {gate.name} = {ratio:.2f} > {gate.bound}: {gate.message}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/perf_count_gate.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("workload", choices=sorted({gate.workload for gate in GATES}))
    parser.add_argument("block", nargs="?", type=argparse.FileType("r"), default=sys.stdin,
                        help="file holding the --trace 1 JSON block (default: stdin)")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    with args.block as handle:
        problems = check(args.workload, json.load(handle))
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
