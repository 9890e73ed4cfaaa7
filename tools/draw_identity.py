#!/usr/bin/env python3
"""Check that the inline random draws are ``random.Random``'s own, draw for draw.

The hottest draws in ``src/repro`` skip ``Random``'s Python-level
``randrange`` / ``randint`` / ``choice`` / ``expovariate`` / ``uniform`` and
run the same arithmetic inline (``repro.sim.rng`` states it).  Two checks hold
that to the library:

* :func:`mismatches`: one generator drawing inline and a twin seeded alike
  drawing through the library return the same numbers, several rounds in a
  row, and end in the same state.  The inline side is each equivalence
  ``repro.sim.rng`` states, and the converted replay-path call sites
  themselves (the transport's uniform latency, the cost-based cache's
  eviction sample).
* :data:`STREAMS`: digests of ``(t, seq, attrs)`` of every generated stream
  at a small fixed configuration, read while every generator still drew
  through the library, so a reordered draw names its generator
  (``make_stream``'s inline loop included).

``tests/test_workloads.py`` runs both under pytest (the first as a
hypothesis property).  This script runs them with nothing but ``src`` and the
standard library, so any installed interpreter can check its own
``random.py``::

    PYTHONPATH=src python tools/draw_identity.py

Exit status: 0 when every draw and every digest agrees, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import platform
import random
import sys
from math import log
from typing import Any, Callable

from repro.cache.cost_based import SAMPLE_SIZE, _SampledSet
from repro.remote.transport import UniformLatency
from repro.sim.rng import make_rng
from repro.workloads.bursty import BurstyConfig, make_bursty_stream
from repro.workloads.bushfire import BushfireConfig, bushfire_stream
from repro.workloads.cluster import ClusterConfig, cluster_stream
from repro.workloads.fraud import FraudConfig, fraud_stream
from repro.workloads.synthetic import SyntheticConfig, make_stream

__all__ = ["STREAMS", "draw_pairs", "mismatches", "stream_digest", "main"]

Draw = Callable[[random.Random], Any]


def _randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """``randrange(n)``'s ``getrandbits`` rejection loop, as the inline sites
    run it (``n >= 1``)."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def draw_pairs(n: int, seq: tuple, lambd: float, a: float, b: float
               ) -> list[tuple[str, Draw, Draw]]:
    """``(name, inline draw, library draw)`` for each converted kind of draw.

    ``n >= 1``, ``seq`` non-empty, ``lambd > 0``; ``a`` and ``b`` any finite
    floats (the latency range uses their sorted magnitudes).
    """
    low, high = sorted((abs(a), abs(b)))
    latency = UniformLatency(low, high)
    sampled = _SampledSet()
    items = tuple(range(1 + n % (5 * SAMPLE_SIZE)))
    for item in items:
        sampled.add(item)

    def library_sample(rng: random.Random) -> list:
        if len(items) <= SAMPLE_SIZE:
            return list(items)
        return [items[rng.randrange(len(items))] for _ in range(SAMPLE_SIZE)]

    return [
        ("randrange", lambda rng: _randbelow(rng.getrandbits, n), lambda rng: rng.randrange(n)),
        ("randint", lambda rng: 1 + _randbelow(rng.getrandbits, n), lambda rng: rng.randint(1, n)),
        ("choice", lambda rng: seq[_randbelow(rng.getrandbits, len(seq))],
         lambda rng: rng.choice(seq)),
        ("expovariate", lambda rng: -log(1.0 - rng.random()) / lambd,
         lambda rng: rng.expovariate(lambd)),
        ("uniform", lambda rng: a + (b - a) * rng.random(), lambda rng: rng.uniform(a, b)),
        ("UniformLatency", lambda rng: latency.sample(("s", 0), rng),
         lambda rng: rng.uniform(low, high)),
        ("_SampledSet.sample", lambda rng: sampled.sample(rng, SAMPLE_SIZE), library_sample),
    ]


def mismatches(seed: int, n: int, seq: tuple, lambd: float, a: float, b: float,
               rounds: int = 3) -> list[str]:
    """Where drawing inline and through the library part ways, from one seed.

    Empty when every round of every kind agrees and both generators end in
    the same state.  Reports the first disagreement only: every draw after it
    is out of step.
    """
    ours, theirs = make_rng(seed), make_rng(seed)
    pairs = draw_pairs(n, seq, lambd, a, b)
    for turn in range(rounds):
        for name, inline, library in pairs:
            got, expected = inline(ours), library(theirs)
            if got != expected:
                return [f"{name} (round {turn}): {got!r} != {expected!r}"]
    if ours.getstate() != theirs.getstate():
        return ["the generators' states differ after agreeing draws"]
    return []


#: Generator name -> (a small fixed stream, its digest).  Read while every
#: generator drew through ``random.Random``'s own methods.
STREAMS: dict[str, tuple[Callable[[], Any], str]] = {
    "make_stream": (
        # Domains of 20 (5 bits) make every inline rejection test reject.
        lambda: make_stream(SyntheticConfig(n_events=400, id_domain=20, key_domain=20, seed=7)),
        "43da2b80384a0a29"),
    "make_bursty_stream": (
        lambda: make_bursty_stream(
            BurstyConfig(n_events=400, calm_events=60, burst_events=60, seed=7)),
        "f1abc687dd02966c"),
    "fraud_stream": (lambda: fraud_stream(FraudConfig(n_events=400, seed=7)),
                     "04a7b11282aac9cc"),
    "cluster_stream": (lambda: cluster_stream(ClusterConfig(n_tasks=60, seed=7)),
                       "3284fbafae7de268"),
    "bushfire_stream": (lambda: bushfire_stream(BushfireConfig(n_events=400, seed=7)),
                        "f9ce11755f9a5b10"),
}


def stream_digest(stream) -> str:
    """A 64-bit digest of every event's ``(t, seq, attrs)``, in order."""
    rows = [(event.t, event.seq, event.attrs) for event in stream]
    return hashlib.blake2s(repr(rows).encode(), digest_size=8).hexdigest()


def _grid() -> list[tuple]:
    """Fixed cases: range edges and powers of two up to 2**70, then draws."""
    edges = [1, 2, 3, 4, 5, 7, 8, 9, 100, 2_000, 100_000, 2**31 - 1, 2**32, 2**32 + 1,
             2**53, 2**64 - 1, 2**64 + 1, 2**70 - 1, 2**70]
    cases = [(seed, n, ("A", "B", "C", "D"), 0.04, -15.0, 25.0)
             for seed in (0, 7, 42) for n in edges]
    picker = make_rng(2021)
    for seed in range(300):
        n = picker.randrange(1, 2**picker.randrange(1, 71) + 1)
        seq = tuple(range(picker.randrange(1, 40)))
        lambd = picker.uniform(1e-6, 10.0)
        a, b = picker.uniform(-1e6, 1e6), picker.uniform(-1e6, 1e6)
        cases.append((seed, n, seq, lambd, a, b))
    return cases


def main() -> int:
    problems = []
    cases = _grid()
    for case in cases:
        problems += [f"{case[:2]}: {problem}" for problem in mismatches(*case)]
    for name, (make, pinned) in STREAMS.items():
        digest = stream_digest(make())
        if digest != pinned:
            problems.append(f"{name}: stream digest {digest} != pinned {pinned}")
    print(f"Python {platform.python_version()}: {len(cases)} seeded draw cases, "
          f"{len(STREAMS)} pinned streams, {len(problems)} mismatches")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
