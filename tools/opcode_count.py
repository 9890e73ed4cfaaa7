#!/usr/bin/env python3
"""Exact interpreter work of one replay: opcodes per event, per package.

``sys.settrace`` with per-opcode events counts every bytecode instruction
the interpreter executes while one warm replay of a ``benchmarks/perf``
workload runs, keyed by the file of the executing code.  The count is exact
and does not depend on the host's speed, so two trees can be compared on it
where wall time is too noisy to tell them apart.  Work done inside a C
builtin counts as the one instruction that called it: moving work into C
looks free here, and only a wall-time measurement tells whether it is.

Counts are folded by the ``src/repro`` package the code's file sits in
(``query``, ``engine``, ...; modules directly under ``repro`` fold into
``repro``).  Generated guard code is compiled under ``<guard …>``
pseudo-files inside ``repro/query`` and folds into ``query``.  Everything
else — the standard library, the benchmark's own code — is ``py``.

Usage::

    python tools/opcode_count.py q1_hybrid                   # seed 42, x0.25
    python tools/opcode_count.py guard_heavy --seed 7 --scale 1

Tracing costs about 40x a plain replay; the default quarter-size stream
keeps a run to seconds.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import Counter
from typing import Any, Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_PACKAGE_MARK = os.sep + "repro" + os.sep

__all__ = ["count_opcodes", "fold", "layer_of", "measure", "main"]


def count_opcodes(fn: Callable[[], Any]) -> Counter:
    """Opcodes executed while ``fn()`` runs, by the executing code's file.

    Cyclic garbage collection is off while ``fn()`` runs, after one full
    collection: a collection can start at any allocation and runs the
    Python ``__del__`` methods and weakref callbacks of whatever garbage
    earlier code left, so with it on the count would include other code's
    work and two counts of one replay would disagree.
    """
    counts: Counter = Counter()

    def local(frame, event, _arg):
        if event == "opcode":
            counts[frame.f_code.co_filename] += 1
        return local

    def entered(frame, _event, _arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(entered)
    try:
        fn()
    finally:
        sys.settrace(previous)
        if was_enabled:
            gc.enable()
    return counts


def layer_of(filename: str) -> str:
    """The ``src/repro`` package ``filename`` belongs to, else ``py``."""
    _, mark, rest = filename.rpartition(_PACKAGE_MARK)
    if not mark:
        return "py"
    package, sep, _ = rest.partition(os.sep)
    return package if sep else "repro"


def fold(counts: Counter) -> Counter:
    """Per-file counts summed per package."""
    layers: Counter = Counter()
    for filename, count in counts.items():
        layers[layer_of(filename)] += count
    return layers


def _workloads():
    """``benchmarks/perf/workloads.py``, run against this checkout's ``src``."""
    for path in (os.path.join(ROOT, "benchmarks", "perf"), os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


def measure(workload: str, seed: int, scale: float) -> tuple[int, Counter]:
    """``(events, opcodes by package)`` of one replay of a warm process.

    One untraced replay first fills every lazily built cache, so the traced
    replay of a fresh deployment counts steady-state work only.
    """
    workloads = _workloads()
    case = workloads.prepare(workloads.SPECS[workload], seed, scale)
    case.build()()
    replay = case.build()
    return case.events, fold(count_opcodes(replay))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/opcode_count.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("workload", help="a benchmarks/perf workload name")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=0.25,
                        help="stream length as a fraction of the workload's (default 0.25)")
    args = parser.parse_args(argv)
    if args.workload not in _workloads().SPECS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(_workloads().SPECS)}")
    events, layers = measure(args.workload, args.seed, args.scale)
    total = sum(layers.values())
    print(f"{args.workload} seed={args.seed} scale={args.scale} events={events}")
    print(f"{'total':<12}{total / events:>10.1f} opcodes/event")
    for layer, count in layers.most_common():
        print(f"{layer:<12}{count / events:>10.1f}  {count / total:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
