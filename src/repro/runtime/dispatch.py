"""The event-dispatch loop: stream -> sessions -> engines -> metrics.

This is the outer loop of Alg. 1, generalised to N query sessions sharing
one virtual clock — the *only* stream-replay loop in the system.  For each
input event the loop

1. idles the shared clock forward to the event's arrival time (if an engine
   is already behind — e.g. it stalled on a blocking fetch — the event has
   been queueing and its waiting time will show up in match latency);
2. for every session in priority order, lets the strategy deliver due async
   responses into the cache, fire offset-timed prefetches, and refresh its
   estimates, then runs the engine's ``f_Q`` step;
3. records matches (once per subscriber), latency, and shared throughput.

After the last event every session's strategy is drained and its engine
flushed, the metrics registry is snapshotted once, and one :class:`RunResult`
per subscriber is assembled around that snapshot — identically for single-
and multi-query runs.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.cache.base import CACHE_COUNTER_KEYS
from repro.engine.interface import ENGINE_COUNTER_KEYS
from repro.events.stream import Stream
from repro.metrics.latency import LatencyCollector
from repro.metrics.throughput import ThroughputMeter
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SPAN_RECORD_NAME
from repro.obs.trace import CAT_EVENT, CAT_MATCH, CAT_SPAN, NULL_TRACER, Tracer
from repro.remote.transport import TRANSPORT_COUNTER_KEYS, Transport
from repro.runtime.session import QuerySession
from repro.shedding.shedder import SHED_COUNTER_KEYS
from repro.sim.clock import VirtualClock
from repro.strategies.stats import RUN_DROP_REASONS, STRATEGY_COUNTER_KEYS

__all__ = ["RunResult", "dispatch", "THROUGHPUT_RUN", "THROUGHPUT_SHARED"]

# How a result's throughput meter relates to the run that produced it:
# "run"    — the meter covers exactly this result's replay (single query);
# "shared" — the meter covers the whole multi-query replay, so every
#            per-query result of that replay reports the *same* meter.
THROUGHPUT_RUN = "run"
THROUGHPUT_SHARED = "shared"


# The counter groups summary() reports, each with its key table, in column
# order.  ``cache`` and ``transport`` are the runtime's one remote-data
# plane, reported unscoped; the rest belong to the query's own session.
_SUMMARY_GROUPS = (
    ("engine", ENGINE_COUNTER_KEYS),
    ("engine.dropped", RUN_DROP_REASONS),
    ("fetch", STRATEGY_COUNTER_KEYS),
    ("cache", CACHE_COUNTER_KEYS),
    ("transport", TRANSPORT_COUNTER_KEYS),
    ("shed", SHED_COUNTER_KEYS),
)
_PLANE_GROUPS = ("cache", "transport")


class RunResult:
    """Everything measured during one stream replay.

    ``metrics`` is the replay's one registry snapshot, shared by every result
    of the replay; ``scope`` is this query's metric prefix in it (``""``
    unscoped, else e.g. ``"query.<name>."``).
    """

    def __init__(
        self,
        strategy_name: str,
        matches: list,
        latency: LatencyCollector,
        throughput: ThroughputMeter,
        duration_us: float,
        metrics: dict[str, Any],
        scope: str = "",
        throughput_scope: str = THROUGHPUT_RUN,
        series: list[dict[str, Any]] | None = None,
    ) -> None:
        self.strategy_name = strategy_name
        self.matches = matches
        self.latency = latency
        self.throughput = throughput
        self.duration_us = duration_us
        self.metrics = metrics
        self.scope = scope
        # "shared" marks a meter spanning a whole multi-query replay (the
        # summary carries the scope so the sharing is explicit, not implied).
        self.throughput_scope = throughput_scope
        # Virtual-time series samples (shared across the replay's sessions);
        # not part of summary() — sampling cannot change reported results.
        self.series = series

    @property
    def match_count(self) -> int:
        return len(self.matches)

    @property
    def transport_stats(self) -> dict[str, Any]:
        """The ``transport.*`` counters by key: kept only until benchmarks/perf
        stops reading it."""
        return {key: self.metrics[f"transport.{key}"] for key in TRANSPORT_COUNTER_KEYS}

    def match_signatures(self) -> set[tuple]:
        """Canonical match identities, for cross-strategy equivalence checks."""
        return {match.signature() for match in self.matches}

    def latency_percentiles(self) -> dict[float, float]:
        return self.latency.percentiles()

    def summary(self) -> dict[str, Any]:
        """Flat summary used by reports and EXPERIMENTS.md tables; a counter
        group absent from ``metrics`` (no cache, no shedding) adds no columns."""
        data: dict[str, Any] = {
            "strategy": self.strategy_name,
            "matches": self.match_count,
            "throughput_eps": round(self.throughput.events_per_second(), 1),
        }
        if self.throughput_scope != THROUGHPUT_RUN:
            data["throughput_scope"] = self.throughput_scope
        for q, value in sorted(self.latency_percentiles().items()):
            data[f"p{int(q)}"] = round(value, 2)
        metrics = self.metrics
        for group, keys in _SUMMARY_GROUPS:
            prefix = f"{group}." if group in _PLANE_GROUPS else f"{self.scope}{group}."
            if prefix + keys[0] not in metrics:
                continue
            data.update({f"{group}.{key}": metrics[prefix + key] for key in keys})
            if group == "cache":
                lookups = data["cache.hits"] + data["cache.misses"]
                data["cache.hit_rate"] = round(data["cache.hits"] / lookups, 4) if lookups else 0.0
        return data

    def __repr__(self) -> str:
        quantiles = ", ".join(
            f"p{q:g}={value:.1f}us" for q, value in sorted(self.latency_percentiles().items())
        )
        return (
            f"RunResult({self.strategy_name}: {self.match_count} matches, {quantiles}, "
            f"{self.throughput.events_per_second():.0f} ev/s)"
        )


def deliver_event(
    session: QuerySession,
    event,
    index: int,
    clock: VirtualClock,
    tracer: Tracer = NULL_TRACER,
    multi: bool = False,
    slos: Sequence = (),
) -> None:
    """Deliver one event to one session: substrate work, shedding, ``f_Q``.

    The per-session body of :func:`dispatch`, its only caller.  Each match
    is recorded once per subscriber: on each plane in ``slos`` and, traced,
    as a ``match`` / ``span`` record, carrying ``query`` when ``multi``.
    """
    strategy = session.strategy
    # The span tracker's pickup time is where queueing attribution
    # ends: everything before it was the event waiting its turn.
    spans = strategy.spans
    if spans is not None:
        spans.begin_event(clock.now)
    strategy.on_event_start(event, index)
    # Overload control (when configured): input-event shedding skips
    # the NFA step entirely; run shedding prunes the population the
    # step just grew.  The substrate work above (async deliveries,
    # scheduled prefetches, estimator refresh) always happens.
    shedder = session.shedder
    if shedder is not None:
        before = clock.now
        dropped = shedder.before_event(event, session.engine)
        if spans is not None:
            spans.add_shed_stall(clock.now - before)
        if dropped:
            return
    step_matches = session.engine.process_event(event, strategy)
    strategy.on_event_end(event, step_matches)
    if shedder is not None:
        shedder.after_event(event, session.engine, strategy)
    for match in step_matches:
        session.latency.record(match.latency)
        for slo in slos:
            slo.observe_match(match.latency, clock.now)
        if tracer.enabled:
            events = [[binding, bound.seq] for binding, bound in sorted(match.events.items())]
            for name in session.names if multi else (None,):
                query = {"query": name} if multi else {}
                tracer.emit(CAT_MATCH, "emit", match.detected_at, latency=match.latency,
                            fetch_wait=match.fetch_wait, events=events, **query)
                if match.span is not None:
                    tracer.emit(CAT_SPAN, SPAN_RECORD_NAME, match.last_event_t,
                                dur=match.latency, latency=match.latency,
                                **match.span, **query)
    session.matches.extend(step_matches)


def dispatch(
    clock: VirtualClock,
    sessions: Sequence[QuerySession],
    stream: Stream,
    transport: Transport,
    metrics: MetricsRegistry,
    tracer: Tracer = NULL_TRACER,
    smoothing_window: int = 1,
    report_percentiles: Sequence[float] | None = None,
    sampler=None,
    slo=None,
    admit=None,
    extra_slos: Iterable = (),
) -> dict[str, RunResult]:
    """Replay ``stream`` through every session; one :class:`RunResult` per
    subscriber, keyed by query name.

    Sessions are driven in the given order for every event (the builder
    sorts them by descending priority).  The shared clock makes cross-query
    interference (one query's stall delaying another's detection) directly
    observable, just like in a real shared deployment.  ``metrics`` is the
    runtime's registry: every result reads its counters from one snapshot of
    it, and so reports the one remote-data plane whether or not its own
    strategy consults the cache.

    ``report_percentiles`` configures the latency quantile surface
    (``EiresConfig.report_percentiles``); ``sampler`` is an optional
    :class:`~repro.obs.series.SeriesSampler` snapshotting the metrics
    registry on its virtual-time cadence; ``slo`` is an optional
    :class:`~repro.obs.slo.SloPlane` fed every event and match.  All three
    only *read* model state — they change no run results.

    ``admit`` is the one admission seam (the fleet layer's token buckets):
    called once per event at pickup, it returns the ``(session, slo_planes)``
    pairs to deliver to, in session order — a session it leaves out skips
    the event entirely, substrate work included.  ``None`` delivers every
    event to every session under ``slo``.  ``extra_slos`` are the planes
    ``admit`` hands out; they are evaluated with ``slo`` at sample and end time.
    """
    # Records name their query once several subscribers share the replay.
    multi = sum(len(session.names) for session in sessions) > 1
    for session in sessions:
        session.begin_run(smoothing_window=smoothing_window, qs=report_percentiles)
    everyone = [
        (session, (slo,) * len(session.names) if slo is not None else ())
        for session in sessions
    ]
    slos = ([slo] if slo is not None else []) + list(extra_slos)
    throughput = ThroughputMeter()
    start = clock.now

    for index, event in enumerate(stream):
        # The engines pick the event up at arrival or when the shared clock
        # frees up, whichever is later — queueing delay is real latency.
        clock.advance_to(event.t)
        if tracer.enabled:
            tracer.emit(CAT_EVENT, "arrival", event.t, seq_no=event.seq, picked_up=clock.now)
        if slo is not None:
            slo.observe_event(clock.now)
        for session, planes in everyone if admit is None else admit(event):
            deliver_event(session, event, index, clock, tracer, multi, planes)
        throughput.record_event(clock.now)
        if sampler is not None and sampler.due(clock.now):
            # Gauge refresh before the snapshot, so sampled slo.* values
            # reflect the boundary being recorded.
            for plane in slos:
                plane.evaluate(clock.now)
            sampler.maybe_sample(clock.now)

    # Close any batch window still open when the stream ends, so the final
    # deliveries and counters do not depend on where the stream was cut;
    # then drain every strategy and flush every engine.
    transport.flush_batches(clock.now)
    for session in sessions:
        session.strategy.end_of_stream()
        session.engine.flush(session.strategy)

    # Final health read: the end-of-run burns land on the slo.* gauges
    # before the metrics snapshot (and the final series row).
    for plane in slos:
        plane.evaluate(clock.now)
    if sampler is not None:
        sampler.finalize(clock.now)
    series_rows = sampler.rows() if sampler is not None else None

    duration_us = clock.now - start
    snapshot = metrics.snapshot()
    meter = THROUGHPUT_SHARED if multi else THROUGHPUT_RUN
    # Every subscriber's result reads the one evaluation it shares.
    return {
        name: RunResult(session.strategy.name, session.matches, session.latency, throughput,
                        duration_us, snapshot, scope, meter, series_rows)
        for session in sessions
        for name, scope in zip(session.names, session.scopes)
    }
