"""The fleet layer: tenants admitted onto one shared runtime.

:class:`FleetBuilder` validates the :class:`~repro.serving.tenant.TenantSpec`
set and adds every tenant's queries to a single
:class:`~repro.runtime.builder.RuntimeBuilder` — a fleet is **one**
:class:`~repro.runtime.builder.Runtime`: one virtual clock, one metrics
registry, one remote-data plane (transport + batching + cache), one
config-level SLO plane.  Overlapping keys fetched by different tenants
coalesce on the transport and hit the cache: the whole point of
multi-tenancy here is that total wire traffic is *less* than the sum of
isolated runs.  Tenants running the same query (any name, same strategy,
priority, run budget and ``(rate_limit, burst)``) go further and share one
evaluation: the runtime builds one session per equivalence class, and each
tenant's result is the session's — bit-identical to an isolated run of the
query at the tenants' summed priority.

Session order is the runtime's: descending priority, then tenant
declaration order.

:meth:`Fleet.dispatch` adds no replay loop of its own.  It hands
:func:`repro.runtime.dispatch.dispatch` its admission callable — per-tenant
token buckets, every tenant decided once per event at pickup, before any
session runs — and regroups the per-query results by tenant.  A
single-tenant fleet is therefore byte-identical to a plain
``RuntimeBuilder`` run, and every admit/throttle decision lands on the
trace bus as a ``serving`` record that
:func:`repro.obs.provenance.replay_trace` re-derives.
"""

from __future__ import annotations

from typing import Any

from repro.obs.slo import SloPlane
from repro.obs.trace import CAT_SERVING
from repro.runtime.builder import Runtime, RuntimeBuilder
from repro.runtime.dispatch import RunResult
from repro.runtime.session import QuerySession, QuerySpec
from repro.serving.ratelimit import TokenBucket
from repro.serving.tenant import TenantSpec
from repro.shedding.policy import SHED_NONE

__all__ = ["FleetBuilder", "Fleet", "FleetResult"]


class FleetBuilder:
    """Declares a fleet: its tenants, on one runtime.

    ``n_shards`` is accepted and ignored; it goes with the next change to
    the wall-clock benchmark, which still passes it.

    Usage::

        fleet = (
            FleetBuilder(store, UniformLatency(10, 100))
            .add_tenant(TenantSpec("alpha", [q1, q2], rate_limit=500.0))
            .add_tenant(TenantSpec("beta", q3))
            .build()
        )
        result = fleet.dispatch(stream)       # FleetResult
        alpha = result.tenant_result("alpha") # {query_name: RunResult}
    """

    def __init__(
        self,
        store,
        latency_model,
        n_shards: int = 1,
        config=None,
        tracer=None,
    ) -> None:
        self.store = store
        self.latency_model = latency_model
        self.config = config
        self.tracer = tracer
        self._tenants: list[TenantSpec] = []

    def add_tenant(self, tenant: TenantSpec) -> "FleetBuilder":
        """Register a tenant; chainable."""
        self._tenants.append(tenant)
        return self

    def build(self) -> "Fleet":
        """Validate the tenant set and assemble the one runtime."""
        tenants = self._tenants
        if not tenants:
            raise ValueError("a fleet needs at least one tenant")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique: {names}")
        query_names = [name for tenant in tenants for name in tenant.query_names]
        if len(set(query_names)) != len(query_names):
            raise ValueError(
                f"query names must be unique across the fleet: {query_names}"
            )

        builder = RuntimeBuilder(
            self.store, self.latency_model, config=self.config, tracer=self.tracer
        )
        config = builder.config
        # Specs go in by declaration: the builder's stable sort by descending
        # priority then yields (-priority, declaration).
        for tenant in tenants:
            # Tenant quotas ride the shedding plane; without a policy there
            # is no detector to enforce them, so the spec is a silent no-op
            # — fail loudly instead.
            if tenant.run_budget is not None and config.shed_policy == SHED_NONE:
                raise ValueError(
                    f"tenant {tenant.name!r} declares run_budget="
                    f"{tenant.run_budget} but the fleet config has "
                    f"shed_policy='none'; quotas need a shedding policy to "
                    "enforce them"
                )
            for query in tenant.queries:
                builder.add_spec(QuerySpec(
                    query,
                    priority=tenant.priority,
                    strategy=tenant.strategy,
                    run_budget=tenant.run_budget,
                    scope=(
                        f"tenant.{tenant.name}.query.{query.name}"
                        if len(tenants) > 1 else None
                    ),
                    admission=(tenant.rate_limit, tenant.burst),
                ))
        runtime = builder.build()

        tenant_of = {
            query_name: tenant.name
            for tenant in tenants
            for query_name in tenant.query_names
        }
        buckets = {
            tenant.name: TokenBucket(tenant.rate_limit, tenant.burst)
            for tenant in tenants
            if tenant.rate_limit is not None
        }
        # Per-tenant SLO planes live under the tenant's metric scope so
        # their slo.* gauges never collide with the config-level SloPlane.
        tenant_slos: dict[str, SloPlane] = {}
        transport = runtime.transport
        for tenant in tenants:
            if tenant.slo is None:
                continue
            slo = SloPlane(
                tenant.slo, runtime.metrics.scoped(f"tenant.{tenant.name}")
            )
            sessions = [
                session
                for session in runtime.sessions
                if any(tenant_of[name] == tenant.name for name in session.names)
            ]
            # The remote-data plane is shared by design, so the fetch budget
            # is a plane-wide burn; shed events are the tenant's own.
            slo.bind_sources(
                wire_requests=lambda: transport.stats.wire_requests,
                events_shed=lambda sessions=sessions: sum(
                    session.shedder.stats.events_dropped
                    for session in sessions
                    if session.shedder is not None
                ),
            )
            tenant_slos[tenant.name] = slo

        return Fleet(
            runtime=runtime,
            tenants=list(tenants),
            buckets=buckets,
            tenant_slos=tenant_slos,
            tenant_of=tenant_of,
        )


class Fleet:
    """The assembled fleet: one runtime plus per-tenant admission state.

    Built exclusively by :class:`FleetBuilder` (rule A7 of
    ``tests/test_invariants.py``).
    """

    def __init__(
        self,
        runtime: Runtime,
        tenants: list[TenantSpec],
        buckets: dict[str, TokenBucket],
        tenant_slos: dict[str, SloPlane],
        tenant_of: dict[str, str],
    ) -> None:
        self.runtime = runtime
        self.tenants = tenants
        self.buckets = buckets
        self.tenant_slos = tenant_slos
        self.tenant_of = tenant_of

    def dispatch(self, stream) -> "FleetResult":
        """Replay ``stream`` through the fleet's runtime, gated by admission.

        Every tenant is decided once per event at pickup, before any session
        runs, as an ingress rate limiter would: one tenant's evaluation cost
        never moves another's refill time.  A session whose subscribers were
        throttled skips the event entirely, substrate work included.
        """
        runtime = self.runtime
        clock = runtime.clock

        admitted_counts = {tenant.name: 0 for tenant in self.tenants}
        throttled_counts = {tenant.name: 0 for tenant in self.tenants}
        # Per session: its subscribers' tenants, and the plane observing each
        # subscriber's matches — its tenant's own, else the runtime's
        # config-level one.
        plan = []
        for session in runtime.sessions:
            tenants = [self.tenant_of[name] for name in session.names]
            planes = [self.tenant_slos.get(tenant, runtime.slo) for tenant in tenants]
            plan.append((
                session, tenants, tuple(plane for plane in planes if plane is not None)
            ))

        def admit(event) -> list[tuple[QuerySession, tuple[SloPlane, ...]]]:
            decisions: dict[str, bool] = {}
            for tenant in self.tenants:
                name = tenant.name
                admitted = decisions[name] = self._admit(name, event, clock.now)
                if admitted:
                    admitted_counts[name] += 1
                    tenant_slo = self.tenant_slos.get(name)
                    if tenant_slo is not None:
                        tenant_slo.observe_event(clock.now)
                else:
                    throttled_counts[name] += 1
            deliveries = []
            for session, tenants, planes in plan:
                admitted = decisions[tenants[0]]
                assert all(decisions[tenant] == admitted for tenant in tenants), (
                    f"subscribers of {session!r} disagree on admission"
                )
                if admitted:
                    deliveries.append((session, planes))
            return deliveries

        by_query = runtime.run(
            stream,
            admit=admit,
            extra_slos=self.tenant_slos.values(),
        )
        results: dict[str, dict[str, RunResult]] = {
            tenant.name: {} for tenant in self.tenants
        }
        for name, result in by_query.items():
            results[self.tenant_of[name]][name] = result

        return FleetResult(
            results=results,
            events_total=by_query[runtime.sessions[0].name].throughput.events,
            admitted=admitted_counts,
            throttled=throttled_counts,
            sessions=len(runtime.sessions),
        )

    def _admit(self, tenant_name: str, event, now: float) -> bool:
        """One admission decision, with its ``serving`` provenance record."""
        bucket = self.buckets.get(tenant_name)
        if bucket is None:
            return True
        admitted, tokens = bucket.decide(now)
        tracer = self.runtime.tracer
        if tracer.enabled:
            tracer.emit(
                CAT_SERVING,
                "admit" if admitted else "throttle",
                now,
                tenant=tenant_name,
                seq_no=event.seq,
                tokens=tokens,
                rate=bucket.rate,
                burst=bucket.burst,
            )
        return admitted

    def __repr__(self) -> str:
        return (
            f"Fleet({len(self.tenants)} tenants, "
            f"{len(self.runtime.sessions)} session(s))"
        )


class FleetResult:
    """Everything one fleet replay measured, per tenant and fleet-wide.

    ``results`` maps tenant name to that tenant's per-query
    :class:`~repro.runtime.dispatch.RunResult`\\ s — the same objects a
    plain runtime run would return, each reporting the one shared
    remote-data plane.  The fleet-level fields cover what no single tenant
    can see: admission totals, evaluations run, and how much the shared
    plane amortised (total fetch demand vs. wire requests).
    """

    def __init__(
        self,
        results: dict[str, dict[str, RunResult]],
        events_total: int,
        admitted: dict[str, int],
        throttled: dict[str, int],
        sessions: int,
    ) -> None:
        self.results = results
        self.events_total = events_total
        self.admitted = admitted
        self.throttled = throttled
        self.sessions = sessions  # evaluations run: one per equivalence class

    def tenant_result(self, name: str) -> dict[str, RunResult]:
        if name not in self.results:
            raise KeyError(f"no such tenant: {name!r}")
        return self.results[name]

    @property
    def skew(self) -> int:
        """Always 0: kept only until the wall-clock benchmark stops reading it."""
        return 0

    @property
    def amortization(self) -> float:
        """Fetch demand per wire request (>1.0 = the shared plane amortised).

        Demand is what the strategies asked for (blocking + async fetches);
        wire requests are what actually crossed the network after the shared
        transport coalesced and batched across every tenant.  Every session
        reports the one plane, so any tenant's counters are the fleet's.
        """
        runs = next(iter(self.results.values()))
        counters = next(iter(runs.values())).metrics
        wire = counters["transport.wire_requests"]
        if not wire:
            return 0.0
        demand = counters["transport.blocking_fetches"] + counters["transport.async_fetches"]
        return demand / wire

    def summary(self) -> dict[str, Any]:
        """Flat fleet-level summary (per-tenant details live in results)."""
        return {
            "n_tenants": len(self.results),
            "sessions": self.sessions,
            "events": self.events_total,
            "admitted": sum(self.admitted.values()),
            "throttled": sum(self.throttled.values()),
            "amortization": round(self.amortization, 3),
        }

    def __repr__(self) -> str:
        return (
            f"FleetResult({len(self.results)} tenants, {self.sessions} session(s), "
            f"{self.events_total} events, amortization={self.amortization:.2f})"
        )
