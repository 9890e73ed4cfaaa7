"""The composition root: one place that assembles Fig. 4, for N queries.

:class:`RuntimeBuilder` is the only code in the system that constructs the
full substrate — virtual clock, RNG tree, transport (with fault model,
retry policy, and breaker board), cache, latency monitor, tracer, and
metrics registry — and wires per-query sessions onto it.  The single-query
facade :class:`repro.EIRES` delegates here and multi-query callers use the
builder directly, so both get identical fault tolerance, tracing,
provenance, and metrics plumbing.

The fleet layer (:mod:`repro.serving`) composes here too: a fleet is one
:class:`Runtime` whose sessions carry tenant metric scopes and quotas.
Equivalent specs — the same query under another name, with the same
strategy, priority, run budget and admission — share one session.

The import of :class:`~repro.core.config.EiresConfig` is deferred to call
time: the facade in :mod:`repro.core` imports this module, and the runtime
layer must sit *below* them in the architecture (rules A1–A3 of
:mod:`repro.analysis`; ``python -m repro.analysis --explain A1``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.cache.base import Cache
from repro.cache.cost_based import CostBasedCache
from repro.cache.history import HitHistory
from repro.cache.lru import LRUCache
from repro.engine.engine import Engine
from repro.events.stream import Stream
from repro.nfa.compiler import compile_query
from repro.obs.registry import FanoutScope, MetricsRegistry
from repro.obs.series import SeriesSampler
from repro.obs.slo import SloPlane, SloSpec
from repro.obs.spans import SpanTracker
from repro.obs.trace import NULL_TRACER, Tracer
from repro.query.ast import Query
from repro.remote.batching import BatchPolicy
from repro.remote.element import DataKey
from repro.remote.faults import make_fault_model
from repro.remote.monitor import BreakerBoard, LatencyMonitor
from repro.remote.retry import RetryPolicy
from repro.remote.store import RemoteStore
from repro.remote.transport import LatencyModel, Transport
from repro.runtime.dispatch import RunResult, dispatch
from repro.runtime.session import QuerySession, QuerySpec
from repro.shedding.detector import OverloadDetector
from repro.shedding.policy import SHED_NONE, make_shedding_policy
from repro.shedding.shedder import LoadShedder
from repro.sim.clock import VirtualClock
from repro.sim.rng import make_rng, spawn
from repro.sim.scheduler import FutureScheduler
from repro.strategies import make_strategy
from repro.strategies.base import FetchStrategy, RuntimeContext
from repro.utility.model import UtilityModel
from repro.utility.noise import NoiseModel
from repro.utility.rates import RateEstimator

if TYPE_CHECKING:  # imported lazily at runtime (layering: runtime < core)
    from repro.core.config import EiresConfig

__all__ = ["RuntimeBuilder", "Runtime"]


def _default_config() -> "EiresConfig":
    from repro.core.config import EiresConfig

    return EiresConfig()


class RuntimeBuilder:
    """Assembles a :class:`Runtime` from an ``EiresConfig``.

    Usage::

        runtime = (
            RuntimeBuilder(store, UniformLatency(10, 100), config=config)
            .add_query(q1, strategy="Hybrid", priority=2.0)
            .add_query(q2, strategy="LzEval")
            .build()
        )
        results = runtime.run(stream)   # {query_name: RunResult}
    """

    def __init__(
        self,
        store: RemoteStore,
        latency_model: LatencyModel,
        config: "EiresConfig | None" = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.store = store
        self.latency_model = latency_model
        self.config = config if config is not None else _default_config()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._specs: list[QuerySpec] = []

    def add_query(
        self,
        query: Query,
        strategy: str | FetchStrategy = "Hybrid",
        priority: float = 1.0,
    ) -> "RuntimeBuilder":
        """Register a query; chainable."""
        return self.add_spec(QuerySpec(query, priority=priority, strategy=strategy))

    def add_spec(self, spec: QuerySpec) -> "RuntimeBuilder":
        self._specs.append(spec)
        return self

    def build(self) -> "Runtime":
        """Assemble the substrate and one session per equivalence class of
        specs (:meth:`~repro.runtime.session.QuerySpec.share_key`).

        The construction order — clock, metrics, RNG tree, monitor, fault
        model, retry policy, breakers, transport — is load-bearing: the RNG
        spawns happen in a fixed sequence so every build draws the same
        random streams.
        """
        from repro.core.config import CACHE_COST, CACHE_LRU

        if not self._specs:
            raise ValueError("at least one query is required")
        names = [spec.query.name for spec in self._specs]
        if len(set(names)) != len(names):
            raise ValueError(f"query names must be unique: {names}")

        config = self.config
        tracer = self.tracer
        clock = VirtualClock()
        metrics = MetricsRegistry(histogram_qs=config.histogram_percentiles)
        rng = make_rng(config.seed)
        monitor = LatencyMonitor()
        # The fault rng is a *separate* stream spawned after the transport's:
        # with fault_profile="none" no fault draws happen at all, so latency
        # samples are byte-identical to a build without the fault machinery.
        fault_model = make_fault_model(config.fault_profile)
        retry_policy = RetryPolicy(
            max_attempts=config.retry_max_attempts,
            backoff_base=config.retry_backoff_base,
            backoff_factor=config.retry_backoff_factor,
            jitter=config.retry_jitter,
            attempt_timeout=config.retry_attempt_timeout,
            deadline=config.retry_deadline,
        )
        breakers = (
            BreakerBoard(
                window_size=config.breaker_window,
                failure_threshold=config.breaker_failure_threshold,
                min_samples=config.breaker_min_samples,
                cooldown=config.breaker_cooldown,
                tracer=tracer,
            )
            if config.breaker_enabled
            else None
        )
        transport = Transport(
            self.store,
            self.latency_model,
            spawn(rng, "transport"),
            monitor,
            fault_model=fault_model,
            fault_rng=spawn(rng, "faults"),
            retry_policy=retry_policy,
            breakers=breakers,
            batch_policy=BatchPolicy(
                window=config.batch_window,
                max_keys=config.batch_max_keys,
                fixed_latency=config.batch_fixed_latency,
                per_key_latency=config.batch_per_key_latency,
            ),
        )

        runtime = Runtime(
            config=config,
            clock=clock,
            metrics=metrics,
            tracer=tracer,
            monitor=monitor,
            transport=transport,
        )

        specs = sorted(self._specs, key=lambda spec: -spec.priority)
        classes = _equivalence_classes(specs)
        strategies = [
            members[0].strategy_instance if members[0].strategy_instance is not None
            else make_strategy(members[0].strategy_name)
            for members in classes
        ]
        if len(specs) == 1 and tracer.enabled and not tracer.track:
            # Default the trace track to the strategy so multi-strategy
            # comparisons land on separate rows in the Chrome viewer.
            tracer.track = strategies[0].name
        transport.bind_observability(metrics, tracer)
        if tracer.enabled:
            # Latency-attribution spans ride the trace bus: a span tracker
            # exists exactly when tracing does, so untraced runs keep their
            # one-``is None``-check hot path.
            for strategy in strategies:
                strategy.spans = SpanTracker()

        # The shared cache (built only if some session wants one) closes
        # over the session list, which is populated below — the cost-based
        # utility function reads it live.
        if any(strategy.uses_cache for strategy in strategies):
            if config.cache_policy == CACHE_LRU:
                runtime.cache = LRUCache(config.cache_capacity)
            elif config.cache_policy == CACHE_COST:
                runtime.cache = CostBasedCache(
                    config.cache_capacity, utility_fn=runtime.shared_utility
                )
            else:
                raise ValueError(f"unknown cache policy {config.cache_policy!r}")
            runtime.cache.bind_observability(metrics, tracer)

        noise = NoiseModel(config.noise_ratio, seed=config.seed)
        runtime.noise = noise
        if config.has_slo:
            # Built before the sessions so an slo_in_detector build can hand
            # the plane to each session's OverloadDetector.
            runtime.slo = SloPlane(
                SloSpec(
                    latency_bound=config.slo_latency_bound,
                    recall_floor=config.slo_recall_floor,
                    fetch_budget=config.slo_fetch_budget,
                ),
                metrics,
            )
        scope_sessions = len(specs) > 1
        for members, strategy in zip(classes, strategies):
            runtime.sessions.append(
                self._build_session(runtime, members, strategy, scoped=scope_sessions)
            )
        if runtime.slo is not None:
            # The burns read live totals through closures: upward imports
            # stay out of repro.obs, and the plane sees every session.
            runtime.slo.bind_sources(
                wire_requests=lambda: transport.stats.wire_requests,
                events_shed=lambda: sum(
                    session.shedder.stats.events_dropped
                    for session in runtime.sessions
                    if session.shedder is not None
                ),
            )
        return runtime

    def _build_session(
        self,
        runtime: "Runtime",
        members: list[QuerySpec],
        strategy: FetchStrategy,
        scoped: bool,
    ) -> QuerySession:
        """One class's engine/strategy/utility around the shared substrate."""
        config = self.config
        spec = members[0]
        automaton = compile_query(spec.query)
        utility = UtilityModel(automaton, self.store, runtime.monitor, noise=runtime.noise)
        rates = RateEstimator()
        # Multi-query sessions get their own metric namespace so engine.* and
        # fetch.* counters do not collide on the shared registry; a spec-level
        # scope (the fleet layer's ``tenant.<id>.query.<name>``) wins outright.
        # A shared session's groups are attached under every subscriber's.
        if spec.scope is None and not scoped:
            scopes = [""]
            session_metrics = runtime.metrics
        else:
            scopes = [
                f"{member.scope}." if member.scope is not None
                else f"query.{member.query.name}."
                for member in members
            ]
            views = [runtime.metrics.scoped(scope[:-1]) for scope in scopes]
            session_metrics = views[0] if len(views) == 1 else FanoutScope(views)
        strategy.attach(
            RuntimeContext(
                automaton=automaton,
                clock=runtime.clock,
                transport=runtime.transport,
                cache=runtime.cache if strategy.uses_cache else None,
                utility=utility,
                rates=rates,
                scheduler=FutureScheduler(),  # per query: payloads are site-specific
                history=HitHistory(
                    miss_threshold=config.history_miss_threshold,
                    reset_after=config.history_reset_after,
                ),
                noise=runtime.noise,
                omega_fetch=config.omega_fetch,
                ell_pm=config.cost_model.per_guard_cost,
                lookahead_enabled=config.lookahead_enabled,
                prefetch_gate_enabled=config.prefetch_gate_enabled,
                lazy_gate_enabled=config.lazy_gate_enabled,
                utility_tick_interval=config.utility_tick_interval,
                failure_mode=config.failure_mode,
                stale_serve_enabled=config.stale_serve_enabled,
                metrics=session_metrics,
                tracer=runtime.tracer,
            )
        )
        # The one place an engine is built (analysis rule A6).
        engine = Engine(
            automaton,
            runtime.clock,
            cost_model=config.cost_model,
            policy=config.policy,
            max_partial_matches=config.max_partial_matches,
        )
        strategy.bind_engine(engine)
        session_metrics.attach(engine.stats)
        shedder = self._build_shedder(runtime, members, automaton, session_metrics)
        return QuerySession(members, automaton, engine, strategy, utility, rates,
                            shedder=shedder, scopes=scopes)

    def _build_shedder(
        self,
        runtime: "Runtime",
        members: list[QuerySpec],
        automaton,
        session_metrics,
    ) -> LoadShedder | None:
        """The session's overload-control unit, or ``None`` for policy "none".

        The sole construction site for the shedding plane (analysis rule A5):
        with the default policy no detector, policy, or shedder object exists
        at all, so the build is byte-identical to one predating the plane.
        """
        config = self.config
        if config.shed_policy == SHED_NONE:
            return None
        spec = members[0]
        # A per-spec run budget (the fleet's tenant quota) overrides the
        # config-wide one.
        run_budget = spec.run_budget if spec.run_budget is not None else config.run_budget
        detector = OverloadDetector(
            latency_bound=config.latency_bound,
            run_budget=run_budget,
            slo=runtime.slo if config.slo_in_detector else None,
        )
        policy = make_shedding_policy(
            config.shed_policy,
            automaton=automaton,
            omega=config.omega_shed,
            run_budget=run_budget,
            event_threshold=config.shed_event_threshold,
        )
        return LoadShedder(
            detector,
            policy,
            runtime.clock,
            metrics=session_metrics,
            tracer=runtime.tracer,
            labels=tuple(member.query.name for member in members),
        )


class Runtime:
    """The assembled substrate plus its query sessions.

    Everything the dispatch loop and its callers need lives here: the
    shared clock/transport/cache/tracer/metrics, and one
    :class:`~repro.runtime.session.QuerySession` per query in descending
    priority order.
    """

    def __init__(
        self,
        config: "EiresConfig",
        clock: VirtualClock,
        metrics: MetricsRegistry,
        tracer: Tracer,
        monitor: LatencyMonitor,
        transport: Transport,
    ) -> None:
        self.config = config
        self.clock = clock
        self.metrics = metrics
        self.tracer = tracer
        self.monitor = monitor
        self.transport = transport
        self.cache: Cache | None = None
        self.noise: NoiseModel | None = None
        self.sessions: list[QuerySession] = []
        # SLO/health plane; None unless the config declares an objective
        # (the default build carries no slo.* metrics at all).
        self.slo: SloPlane | None = None

    def session(self, name: str) -> QuerySession:
        for session in self.sessions:
            if name in session.names:
                return session
        raise KeyError(f"no session for query {name!r}")

    def shared_utility(self, key: DataKey) -> float:
        """Sum of the per-session utilities, each weighted by its subscribers'
        summed priority (Eq. 3 weights)."""
        omega = self.config.omega_cache
        if len(self.sessions) == 1:
            # What sum() computes for one term (it starts from int 0), without
            # the generator frame: eviction calls this per candidate.
            session = self.sessions[0]
            return 0 + session.weight * session.utility.value(key, omega)
        return sum(
            session.weight * session.utility.value(key, omega)
            for session in self.sessions
        )

    def run(
        self,
        stream: Stream,
        smoothing_window: int = 1,
        admit=None,
        extra_slos: Iterable[SloPlane] = (),
    ) -> dict[str, RunResult]:
        """Replay ``stream`` through every session; results keyed by query name.

        ``admit`` and ``extra_slos`` are :func:`dispatch`'s admission seam,
        passed through for the fleet layer.
        """
        # One fresh sampler per replay: rows cover exactly this stream.
        sampler = (
            SeriesSampler(self.metrics, self.config.series_interval)
            if self.config.series_interval > 0
            else None
        )
        return dispatch(
            self.clock,
            self.sessions,
            stream,
            self.transport,
            self.metrics,
            tracer=self.tracer,
            smoothing_window=smoothing_window,
            report_percentiles=self.config.report_percentiles,
            sampler=sampler,
            slo=self.slo,
            admit=admit,
            extra_slos=extra_slos,
        )

    def __repr__(self) -> str:
        names = ", ".join(name for session in self.sessions for name in session.names)
        return f"Runtime([{names}], cache={self.config.cache_policy})"


def _equivalence_classes(specs: list[QuerySpec]) -> list[list[QuerySpec]]:
    """``specs`` grouped by :meth:`QuerySpec.share_key`, in first-seen order."""
    classes: list[tuple[tuple, list[QuerySpec]]] = []
    for spec in specs:
        key = spec.share_key()
        for other, members in classes:
            if key is not None and key == other:
                members.append(spec)
                break
        else:
            classes.append((key, [spec]))
    return [members for _, members in classes]
