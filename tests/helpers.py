"""Shared builders for engine/strategy tests, and the one real-tree scan."""

from __future__ import annotations

import copy
import functools
import random
from pathlib import Path

from repro.analysis import AnalysisResult, ModuleIndex, analyze_index
from repro.core.config import EiresConfig
from repro.core.framework import EIRES
from repro.events.event import Event
from repro.events.stream import Stream
from repro.query.parser import parse_query
from repro.remote.store import RemoteStore
from repro.remote.transport import FixedLatency, LatencyModel
from repro.utility.rates import RateEstimator

__all__ = ["RecordingStrategy", "make_abc_scenario", "run_eires", "random_stream",
           "real_tree"]

REPO_ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def real_tree() -> tuple[ModuleIndex, AnalysisResult]:
    """The analyzer's default roots indexed and checked against every rule,
    once per test process — every real-tree assertion reads this result."""
    roots = [REPO_ROOT / name for name in ("src", "benchmarks", "tools", "examples")]
    index = ModuleIndex(roots, docs_root=REPO_ROOT / "docs")
    return index, analyze_index(index)


class RecordingStrategy:
    """The engine-facing strategy protocol for local-only queries, over a
    real :class:`RateEstimator`: drives an ``Engine`` directly and logs every
    run callback with the clock it saw.  ``spans``, when given, is the
    :class:`~repro.obs.spans.SpanTracker` the engine captures match spans
    from."""

    name = "recording"

    def __init__(self, clock, spans=None) -> None:
        self.clock = clock
        self.spans = spans
        self.rates = RateEstimator()
        self.log: list[tuple] = []

    def on_runs_created(self, runs) -> None:
        self.log.extend(("created", run, self.clock.now) for run in runs)

    def on_runs_dropped(self, runs, reason) -> None:
        self.log.extend((reason, run, self.clock.now) for run in runs)

    def guard_tally(self, transition):
        return self.rates.guard_tally(transition.index)


def renamed(query, name):
    """A shallow copy of ``query`` under another name."""
    clone = copy.copy(query)
    clone.name = name
    return clone


def make_abc_scenario(set_members=frozenset({1, 2, 3, 4})):
    """A small 3-step query over types A/B/C with one remote membership test.

    Remote source ``v`` maps every key to ``set_members``; the predicate
    ``b.v IN REMOTE[a.v]`` passes iff the B event's ``v`` lies in that set.
    """
    query = parse_query(
        """
        SEQ(A a, B b, C c)
        WHERE SAME[id] AND b.v IN REMOTE[a.v]
        WITHIN 2000
        """,
        name="abc",
    )
    store = RemoteStore()
    store.register_source("v", lambda key: set_members)
    return query, store


def random_stream(n_events: int, seed: int, types="ABC", id_domain=3, v_domain=10,
                  gap: float = 10.0) -> Stream:
    rng = random.Random(seed)
    events = []
    t = 0.0
    for _ in range(n_events):
        t += gap
        events.append(
            Event(
                t,
                {
                    "type": rng.choice(types),
                    "id": rng.randint(1, id_domain),
                    "v": rng.randint(0, v_domain - 1),
                },
            )
        )
    return Stream(events)


def run_eires(query, store, stream, strategy="Hybrid", policy="greedy",
              latency: LatencyModel | None = None, tracer=None, **config_kwargs):
    config = EiresConfig(policy=policy, cache_capacity=config_kwargs.pop("cache_capacity", 100),
                         **config_kwargs)
    eires = EIRES(
        query,
        store,
        latency if latency is not None else FixedLatency(50.0),
        strategy=strategy,
        config=config,
        tracer=tracer,
    )
    return eires.run(stream)
