"""Shared builders for engine/strategy tests."""

from __future__ import annotations

import copy
import random

from repro.core.config import EiresConfig
from repro.core.framework import EIRES
from repro.events.event import Event
from repro.events.stream import Stream
from repro.query.parser import parse_query
from repro.remote.store import RemoteStore
from repro.remote.transport import FixedLatency, LatencyModel
from repro.utility.rates import RateEstimator
from repro.workloads.base import Workload
from repro.workloads.synthetic import SyntheticConfig, make_store, make_stream

__all__ = ["RecordingStrategy", "guard_heavy_workload", "make_abc_scenario", "run_eires",
           "random_stream"]


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


def guard_heavy_workload(config: SyntheticConfig) -> Workload:
    """The guard-heavy local-only query QG over a synthetic stream: SAME[id]
    partitions, 15 filters, no remote site (the ``guard_heavy`` benchmark's
    query, at the size ``config`` gives)."""
    text = f"""
    SEQ(A a, B b, C c, D d)
    WHERE SAME[id]
    AND a.v1 <= 92000 AND a.v2 <= 92000 AND a.v1 >= 4000 AND a.v2 >= 4000
    AND b.v1 <= 92000 AND b.v2 >= 8000 AND b.v1 >= 4000
    AND c.v1 <= 92000 AND c.v2 >= 8000 AND c.v1 >= 4000
    AND d.v1 <= 92000 AND d.v2 >= 8000
    AND a.v1 <= d.v1 AND b.v2 <= d.v2 AND c.v1 <= d.v1
    WITHIN {config.window_events} EVENTS
    """
    return Workload("guard-heavy", parse_query(text, name="QG"), make_store(config),
                    make_stream(config), FixedLatency(50.0))


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
