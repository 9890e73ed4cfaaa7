"""Transmission-latency model, batching, fault injection, and in-flight tracking.

The CEP engine never touches :class:`repro.remote.store.RemoteStore`
directly; every access goes through a :class:`Transport`, which charges the
transmission latency ``l_remote(d)`` of §2.1.  All access flows through one
unified surface — :meth:`Transport.submit` takes a :class:`FetchRequest`
(what the caller wants: key, mode, utility hint) and returns a
:class:`FetchTicket` (the outstanding or completed fetch).  Two modes exist:

* **blocking** — the naive integration (BL1/BL2) and the "lazy evaluation
  not beneficial" branch of Alg. 4 line 15: the engine stalls until the
  response arrives.
* **async** — PFetch prefetches and LzEval fetch-and-postpone: the request
  is issued at ``now`` and its response materialises later;
  :meth:`Transport.deliver_due` puts each success into the runtime's cache,
  in the tier its ticket carries, whichever session asked for it.

An async request for a key already in flight (or queued in an open batch
window) joins it instead of issuing a duplicate wire request.  A blocking
request consumes its key: it joins (or takes over) whatever is in flight
for it, removes it, and registers nothing, so callers ask once per
distinct key.

Batching
--------
With a :class:`~repro.remote.batching.BatchPolicy` enabled, async requests
queue per source in a coalescing window and drain into one multi-key wire
request costing the amortized ``l_batch = l_fixed + n * l_per`` instead of
n full round trips (see :mod:`repro.remote.batching`).  A blocking request
for a queued key closes that source's window immediately — the urgent need
pays the wire request now.  A failed batch *splits*: every key re-enters
the normal per-key retry machinery, so one poisoned key cannot terminally
fail its cohort; circuit breakers observe one outcome per wire request.
With the default disabled policy every request takes the classic
single-key path and draws exactly the RNG stream it always did.

Fault tolerance
---------------
The transport is always armed.  A :class:`~repro.remote.faults.FaultModel`
(``None`` on a healthy network) decides per wire request whether it
succeeds, errors, is dropped, or suffers a latency spike; a
:class:`~repro.remote.retry.RetryPolicy` re-issues failed attempts with
exponential backoff through the virtual clock (blocking fetches extend the
stall, async fetches re-enter the in-flight table); and a
:class:`~repro.remote.monitor.BreakerBoard` fail-fasts requests to sources
whose recent attempts keep failing.  A request that exhausts its retries is
delivered with ``ok=False`` and ``element=None`` — a *failed* fetch is
deliberately distinguishable from one that succeeded with the store's
``MISSING_VALUE`` sentinel (an empty answer is an answer; a failure is not).
Every wire request, a single key's or a batch's, goes out through one path
(``Transport._send``): one fault draw, one breaker sample.  Without a fault
model no fault draw happens, so the transport draws exactly the latencies
the fault-free substrate did.  Every successful outcome, blocking or async,
also updates :attr:`Transport.last_known`, the one table of graceful
degradation's stale values, so a session may serve stale what another
session fetched.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs.registry import CounterGroup, Histogram, MetricsRegistry
from repro.obs.trace import CAT_FETCH, NULL_TRACER, Tracer, trace_key
from repro.remote.batching import DISABLED_BATCHING, BatchPolicy, BatchQueue
from repro.remote.element import DataElement, DataKey
from repro.remote.faults import DROP, ERROR, SLOW, FaultModel
from repro.remote.monitor import BreakerBoard, LatencyMonitor
from repro.remote.retry import RetryPolicy
from repro.remote.store import RemoteStore
from repro.sim.rng import make_rng

if TYPE_CHECKING:  # the cache layer imports this package
    from repro.cache.base import Cache

__all__ = [
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "PerSourceLatency",
    "FetchRequest",
    "FetchTicket",
    "Transport",
    "MODE_BLOCKING",
    "MODE_ASYNC",
    "TRANSPORT_COUNTER_KEYS",
    "TRANSPORT_FAULT_COUNTER_KEYS",
    "TRANSPORT_LATENCY_METRIC",
    "TRANSPORT_BATCH_KEYS_METRIC",
]

# Access modes of a FetchRequest: blocking stalls the engine until the
# outcome is known; async is issued now and delivered via deliver_due.
MODE_BLOCKING = "blocking"
MODE_ASYNC = "async"

# Every counter the transport maintains (``Transport.stats``), in report order.
TRANSPORT_COUNTER_KEYS = (
    "blocking_fetches",
    "async_fetches",
    "coalesced",
    "retries",
    "failed_fetches",
    "breaker_opens",
    "breaker_fastfails",
    "wire_requests",
    "batches",
    "batched_keys",
    "batch_splits",
)

# The subset that stays zero on a healthy network; the fault table in
# ``repro.metrics.reporting`` derives its transport columns from this.
TRANSPORT_FAULT_COUNTER_KEYS = ("retries", "failed_fetches", "breaker_opens", "breaker_fastfails")

# The transport's latency histogram: sampled transmission latencies over the
# trailing (virtual) second.  Registered here with the counter tables so
# emission sites never spell metric names inline (rule M1).
TRANSPORT_LATENCY_METRIC = "transport.latency_us"

# Batch-size histogram: keys per wire request over the trailing second.
TRANSPORT_BATCH_KEYS_METRIC = "transport.batch_keys_per_wire"

# Arrival time of a ticket still waiting in an open batch window: never, until
# the window closes and the wire request assigns the real arrival.
_QUEUED_ARRIVAL = float("inf")

# ``Transport.next_due`` after a mutation: no bound known, the next
# ``deliver_due`` scans.
_UNKNOWN = float("-inf")


class LatencyModel(ABC):
    """Draws one transmission latency (in virtual us) per fetch."""

    @abstractmethod
    def sample(self, key: DataKey, rng: random.Random) -> float:
        """Latency for fetching ``key``."""


class FixedLatency(LatencyModel):
    """Every fetch takes exactly ``latency`` microseconds."""

    def __init__(self, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"latency must be non-negative: {latency}")
        self.latency = latency

    def sample(self, key: DataKey, rng: random.Random) -> float:
        return self.latency


class UniformLatency(LatencyModel):
    """Latency uniform in ``[low, high]`` — the paper's synthetic setting."""

    def __init__(self, low: float, high: float) -> None:
        if low < 0 or high < low:
            raise ValueError(f"invalid latency range: [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, key: DataKey, rng: random.Random) -> float:
        # uniform(low, high), inline (repro.sim.rng).
        return self.low + (self.high - self.low) * rng.random()


class PerSourceLatency(LatencyModel):
    """Different latency model per remote source, with an optional default."""

    def __init__(
        self,
        models: dict[str, LatencyModel],
        default: LatencyModel | None = None,
    ) -> None:
        self._models = dict(models)
        self._default = default

    def sample(self, key: DataKey, rng: random.Random) -> float:
        model = self._models.get(key[0], self._default)
        if model is None:
            raise KeyError(f"no latency model for source {key[0]!r}")
        return model.sample(key, rng)


@dataclass(frozen=True)
class FetchRequest:
    """One remote-access intent, submitted via :meth:`Transport.submit`.

    ``at`` is the (virtual) submission time; ``mode`` selects blocking or
    async delivery.  ``utility`` is the caller's ranking hint for batch
    assembly — Eq. 7 candidate utility for gated prefetches, ``inf`` for
    certain-use lazy fetches, 0 when unknown.  Blocking requests are never
    batched: they close open windows instead.
    """

    key: DataKey
    at: float
    mode: str = MODE_ASYNC
    utility: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in (MODE_BLOCKING, MODE_ASYNC):
            raise ValueError(f"unknown fetch mode {self.mode!r}")


class FetchTicket:
    """One outstanding (or completed) remote fetch.

    ``ok`` distinguishes a successful response from a failed one; a failed
    ticket carries ``element=None`` and an ``error`` tag (``"error"``,
    ``"timeout"``, or ``"breaker_open"``) and its ``arrives_at`` is the time
    the *failure becomes known* (the error round trip, or the attempt
    timeout for drops).  ``attempt`` counts from 1; ``first_issued_at``
    anchors the per-fetch retry deadline.  ``queued`` marks a ticket still
    waiting in an open batch window (its ``arrives_at`` is infinite until
    the window closes).  ``certain`` is the cache tier an async response
    enters (§6): True for a certain use (T1, a lazy fetch), False for a
    speculative one (T2, a prefetch); the submitter sets it, a certain need
    for the key upgrades it, and a retry carries it over.
    """

    __slots__ = ("key", "issued_at", "arrives_at", "element", "ok", "error",
                 "attempt", "first_issued_at", "queued", "wire_started_at", "certain")

    def __init__(
        self,
        key: DataKey,
        issued_at: float,
        arrives_at: float,
        element: DataElement | None,
        ok: bool = True,
        error: str | None = None,
        attempt: int = 1,
        first_issued_at: float | None = None,
    ) -> None:
        self.key = key
        self.issued_at = issued_at
        self.arrives_at = arrives_at
        self.element = element
        self.ok = ok
        self.error = error
        self.attempt = attempt
        self.first_issued_at = issued_at if first_issued_at is None else first_issued_at
        self.queued = False
        # When the final attempt's wire transmission began: ``issued_at``
        # for single-key requests, the window-flush time for batched keys
        # (they sit queued between issue and flush).  Latency-attribution
        # spans split a blocking stall into batch_wait/wire on this.
        self.wire_started_at = issued_at
        self.certain = False

    @property
    def latency(self) -> float:
        return self.arrives_at - self.issued_at

    def __repr__(self) -> str:
        if self.queued:
            status = "queued"
        elif self.ok:
            status = "ok"
        else:
            status = f"failed:{self.error}"
        return (
            f"FetchTicket({self.key!r}, issued={self.issued_at:.1f}, "
            f"arrives={self.arrives_at:.1f}, {status}, attempt={self.attempt})"
        )


class Transport:
    """Mediates all remote access, charging transmission latency.

    The ``stats`` group (``blocking_fetches``, ``async_fetches``,
    ``coalesced``, ``retries``, ``failed_fetches``, ``breaker_opens``,
    ``breaker_fastfails``, ``wire_requests``, ``batches``, ``batched_keys``,
    ``batch_splits``) feeds the experiment reports.  The transport owns every
    per-fetch fact: the in-flight tickets, their cache tier, each retry,
    terminal failure and breaker open is counted here, once, whichever
    session's strategy asked.  It owns every response too: an async success
    enters :attr:`cache` (bound by the composition root; ``None`` when no
    session keeps one) and every success enters :attr:`last_known`.
    """

    def __init__(
        self,
        store: RemoteStore,
        latency_model: LatencyModel,
        rng: random.Random,
        monitor: LatencyMonitor | None = None,
        fault_model: FaultModel | None = None,
        fault_rng: random.Random | None = None,
        retry_policy: RetryPolicy | None = None,
        breakers: BreakerBoard | None = None,
        batch_policy: BatchPolicy | None = None,
    ) -> None:
        self._store = store
        self._latency_model = latency_model
        self._rng = rng
        self.monitor = monitor if monitor is not None else LatencyMonitor()
        self._fault_model = fault_model
        # The fault stream is separate from the latency stream so that a
        # fault-free run draws exactly the latencies it always did.
        self._fault_rng = fault_rng if fault_rng is not None else make_rng(0x0FA117)
        self._retry = retry_policy or RetryPolicy()
        self.breakers = breakers or BreakerBoard()
        self.batch_policy = batch_policy if batch_policy is not None else DISABLED_BATCHING
        self._in_flight: dict[DataKey, FetchTicket] = {}
        self._queues: dict[str, BatchQueue] = {}
        #: Lower bound on the next instant :meth:`deliver_due` can have
        #: anything to do — the earliest arrival in flight or batch deadline
        #: still open.  ``submit`` and ``flush_batches`` reset it to "unknown"
        #: (every path that adds a ticket or sets an ``arrives_at`` runs
        #: under one of them, or under ``deliver_due`` itself); each full
        #: scan recomputes it.  Too low only costs a scan.
        self.next_due = _UNKNOWN
        self.tracer: Tracer = NULL_TRACER
        #: The runtime's one cache, which delivered async responses enter.
        self.cache: Cache | None = None
        #: Last successfully fetched value per key, for the stale fallback
        #: when a fresh fetch terminally fails.
        self.last_known: dict[DataKey, Any] = {}
        self._latency_hist: Histogram | None = None
        self._batch_hist: Histogram | None = None
        self.stats = CounterGroup("transport", TRANSPORT_COUNTER_KEYS)

    def bind_observability(self, registry: MetricsRegistry | None, tracer: Tracer) -> None:
        """Attach the counters to ``registry`` and bind the trace bus at assembly."""
        if registry is not None:
            registry.attach(self.stats)
            self._latency_hist = registry.histogram(TRANSPORT_LATENCY_METRIC)
            self._batch_hist = registry.histogram(TRANSPORT_BATCH_KEYS_METRIC)
        self.tracer = tracer

    @property
    def store(self) -> RemoteStore:
        return self._store

    # -- the unified request surface -------------------------------------------
    def submit(self, request: FetchRequest) -> FetchTicket:
        """Submit one access intent; every mode resolves through here.

        Blocking requests return a ticket with the final outcome (the caller
        stalls to ``arrives_at``) and consume the key: nothing stays in
        flight for it.  Async requests return the pending ticket, delivered
        later through :meth:`deliver_due`.  Either mode coalesces onto a
        ticket already in flight — pending or queued in a batch window —
        instead of issuing a duplicate wire request.
        """
        self.next_due = _UNKNOWN
        if self._queues:
            # Windows whose deadline passed while the engine stalled close
            # before the new request is considered, keeping flush times
            # independent of *which* call happens to observe the deadline.
            self._flush_due(request.at)
        if request.mode == MODE_BLOCKING:
            return self._submit_blocking(request)
        return self._submit_async(request)

    def _submit_blocking(self, request: FetchRequest) -> FetchTicket:
        """Blocking mode: resolve ``key`` to its final outcome at ``at``.

        If the same key is already in flight (e.g. a prefetch raced ahead),
        the pending ticket is joined so the caller only waits for the
        *remaining* time — issuing a second wire request would be wasteful
        and would overstate the stall.  A key waiting in an open batch
        window closes that window immediately (the urgent need pays the
        wire request now).  A pending ticket that is doomed to fail is
        taken over: the blocking caller continues its retry chain
        synchronously, so the returned ticket always reflects the final
        outcome.  Either way the key leaves the in-flight table, and a fresh
        fetch never enters it: the caller consumes the outcome now, so
        :meth:`deliver_due` must not deliver it again, and its ``complete``
        trace record is emitted here.
        """
        key, now = request.key, request.at
        pending = self._in_flight.get(key)
        if pending is not None and pending.queued:
            self._flush_source(key[0], now)
        pending = self._in_flight.pop(key, None)
        if pending is not None:
            self.stats.coalesced += 1
            return self._retry_to_completion(pending)
        self.stats.blocking_fetches += 1
        return self._retry_to_completion(self._issue(key, now))

    def _submit_async(self, request: FetchRequest) -> FetchTicket:
        """Async mode: issue (or enqueue) a non-blocking fetch."""
        key, now = request.key, request.at
        pending = self._in_flight.get(key)
        if pending is not None:
            self.stats.coalesced += 1
            return pending
        self.stats.async_fetches += 1
        if not self.batch_policy.enabled or not self.breakers.allow(key[0], now):
            # Single-key path: batching off, or the breaker is open
            # (``_issue`` fail-fasts with the usual accounting — an open
            # breaker's request must not linger in a window).
            ticket = self._issue(key, now)
            self._in_flight[key] = ticket
            return ticket
        ticket = FetchTicket(
            key, issued_at=now, arrives_at=_QUEUED_ARRIVAL, element=None,
            ok=False, error=None,
        )
        ticket.queued = True
        self._in_flight[key] = ticket
        source = key[0]
        queue = self._queues.get(source)
        if queue is None:
            queue = self._queues[source] = BatchQueue(
                source, opened_at=now, window=self.batch_policy.window
            )
        queue.add(ticket, request.utility)
        if self.tracer.enabled:
            self.tracer.emit(
                CAT_FETCH,
                "enqueue",
                now,
                key=trace_key(key),
                source=source,
                deadline=queue.deadline,
            )
        if len(queue) >= self.batch_policy.max_keys:
            self._flush_source(source, now)
        return ticket

    # -- in-flight bookkeeping -------------------------------------------------
    def in_flight(self, key: DataKey) -> FetchTicket | None:
        """The pending (or queued) ticket for ``key``, if any."""
        return self._in_flight.get(key)

    def deliver_due(self, now: float) -> list[FetchTicket]:
        """Pop and return every async ticket whose outcome is known by ``now``,
        each success put into :attr:`cache` in its ticket's tier, in order.

        Batch windows whose deadline elapsed close first (at their deadline,
        not at ``now``), so their responses can be among the delivered.
        Failed attempts with retry budget left are re-issued (after backoff)
        instead of delivered; only successes and terminal failures come out.
        A failure puts nothing: the key stays absent, which is *not* the same
        as a successful fetch of the ``MISSING_VALUE`` sentinel.
        Delivery order is deterministic: ``(arrives_at, issued_at, key)`` —
        plain arrival order would leave ties at the mercy of dict insertion
        order, which retry rescheduling perturbs.

        O(1) while ``now`` is short of :attr:`next_due`: nothing in flight
        has arrived and no window has closed, so the scan would find nothing.
        """
        if now < self.next_due:
            return []
        if self._queues:
            self._flush_due(now)
        delivered: list[FetchTicket] = []
        for key in list(self._in_flight):
            ticket = self._in_flight[key]
            while ticket.arrives_at <= now:
                if ticket.ok:
                    delivered.append(ticket)
                    del self._in_flight[key]
                    break
                next_ticket = self._reissue(ticket)
                if next_ticket is None:
                    self.stats.failed_fetches += 1
                    delivered.append(ticket)
                    del self._in_flight[key]
                    break
                ticket = next_ticket
                self._in_flight[key] = ticket
        # What is left arrives after ``now`` (queued tickets: never, until
        # their window's deadline closes it).
        self.next_due = min(
            [pending.arrives_at for pending in self._in_flight.values()]
            + [window.deadline for window in self._queues.values()],
            default=_QUEUED_ARRIVAL,
        )
        delivered.sort(key=lambda t: (t.arrives_at, t.issued_at, repr(t.key)))
        if self.tracer.enabled:
            for ticket in delivered:
                self._trace_complete(ticket)
        cache, last_known = self.cache, self.last_known
        for ticket in delivered:
            if ticket.ok:
                last_known[ticket.key] = ticket.element.value
                if cache is not None:
                    cache.put(ticket.element, now, certain=ticket.certain)
        return delivered

    def _trace_complete(self, ticket: FetchTicket) -> None:
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                CAT_FETCH,
                "complete",
                ticket.first_issued_at,
                dur=ticket.arrives_at - ticket.first_issued_at,
                key=trace_key(ticket.key),
                ok=ticket.ok,
                error=ticket.error,
                attempts=ticket.attempt,
            )

    def pending_count(self) -> int:
        return len(self._in_flight)

    # -- batch windows ---------------------------------------------------------
    def open_batch_count(self) -> int:
        """Sources with an open (unflushed) coalescing window."""
        return len(self._queues)

    def flush_batches(self, now: float) -> int:
        """Drain every open batch window; returns the keys flushed.

        Used by the dispatch loop at end of stream so open windows close
        deterministically (sources in sorted order, each batch in its
        utility-ranked key order) — tracing-on/off and resumed runs stay
        byte-identical.  Windows whose deadline already passed flush at
        that deadline; still-open windows flush at ``now``.
        """
        self.next_due = _UNKNOWN
        flushed = 0
        for source in sorted(self._queues):
            queue = self._queues[source]
            flushed += len(queue)
            self._flush_source(source, min(queue.deadline, now))
        return flushed

    def _flush_due(self, now: float) -> None:
        """Close every window whose deadline has passed, at its deadline."""
        for source in sorted(self._queues):
            queue = self._queues.get(source)
            if queue is not None and queue.deadline <= now:
                self._flush_source(source, queue.deadline)

    def _flush_source(self, source: str, at: float) -> None:
        """Issue one multi-key wire request for a source's open window.

        The window's tickets go out in utility-ranked order at the amortized
        ``l_batch(n)``; :meth:`_send` lands them.  A failed batch leaves
        every ticket failed-at-attempt-1 with retry budget intact: the
        normal delivery machinery then *splits* the batch, re-issuing each
        key individually, so one poisoned key cannot terminally fail its
        cohort.
        """
        queue = self._queues.pop(source, None)
        if queue is None or len(queue) == 0:
            return
        tickets = queue.ranked()
        n = len(tickets)
        if n > 1:
            self.stats.batches += 1
            self.stats.batched_keys += n
        if self._batch_hist is not None:
            self._batch_hist.observe(float(n), at)
        self._send(tickets, at, self.batch_policy.batch_latency(n))

    # -- health-aware estimates ------------------------------------------------
    def source_available(self, source: str, now: float) -> bool:
        """Is the source worth speculative traffic (breaker not open)?"""
        return self.breakers.available(source, now)

    def effective_estimate(self, key: DataKey) -> float:
        """``l_remote`` estimate including expected retry overhead.

        With a healthy source this equals the plain monitor estimate, so
        fault-free planning decisions are unchanged.
        """
        estimate = self.monitor.estimate(key)
        failure_rate = self.breakers.failure_rate(key[0])
        if failure_rate <= 0.0:
            return estimate
        return estimate + self._retry.expected_overhead(failure_rate, estimate)

    # -- issue / retry internals ----------------------------------------------
    def _retry_to_completion(self, ticket: FetchTicket) -> FetchTicket:
        """Drive a ticket's retry chain synchronously to its final outcome."""
        while not ticket.ok:
            next_ticket = self._reissue(ticket)
            if next_ticket is None:
                self.stats.failed_fetches += 1
                break
            ticket = next_ticket
        if ticket.ok:
            self.last_known[ticket.key] = ticket.element.value
        if self.tracer.enabled:
            self._trace_complete(ticket)
        return ticket

    def _reissue(self, ticket: FetchTicket) -> FetchTicket | None:
        """The follow-up attempt for a failed ticket, or None if spent."""
        if ticket.error == "breaker_open":
            return None
        next_attempt = ticket.attempt + 1
        if not self._retry.allows(next_attempt, ticket.arrives_at - ticket.first_issued_at):
            return None
        self.stats.retries += 1
        reissue_at = ticket.arrives_at + self._retry.backoff(ticket.attempt, self._rng)
        if self.tracer.enabled:
            self.tracer.emit(
                CAT_FETCH,
                "retry",
                ticket.arrives_at,
                key=trace_key(ticket.key),
                attempt=next_attempt,
                error=ticket.error,
                reissue_at=reissue_at,
            )
        follow_up = self._issue(
            ticket.key, reissue_at, attempt=next_attempt,
            first_issued_at=ticket.first_issued_at,
        )
        follow_up.certain = ticket.certain
        return follow_up

    def _issue(
        self,
        key: DataKey,
        now: float,
        attempt: int = 1,
        first_issued_at: float | None = None,
    ) -> FetchTicket:
        """One attempt for ``key`` at ``now``: a one-ticket wire request, or a
        fast failure while the source's breaker is open."""
        # Built failed-fast; a wire request overwrites the outcome.
        ticket = FetchTicket(
            key, issued_at=now, arrives_at=now, element=None, ok=False,
            error="breaker_open", attempt=attempt, first_issued_at=first_issued_at,
        )
        tracer = self.tracer
        if not self.breakers.allow(key[0], now):
            # Fail fast without a wire attempt: no latency draw, no fault
            # draw, and no window sample (the breaker re-probes by time).
            self.stats.breaker_fastfails += 1
            if tracer.enabled:
                tracer.emit(
                    CAT_FETCH, "breaker_fastfail", now, key=trace_key(key), attempt=attempt
                )
            return ticket
        if tracer.enabled:
            tracer.emit(CAT_FETCH, "issue", now, key=trace_key(key), attempt=attempt)
        self._send([ticket], now, self._latency_model.sample(key, self._rng))
        return ticket

    def _send(self, tickets: list[FetchTicket], at: float, latency: float) -> None:
        """One wire request carrying ``tickets``, issued at ``at``.

        One fault draw decides the request's fate, for the first ticket's
        key and attempt (a batch's tickets share the wire; the ranked-first
        key is the deterministic representative).  Success lands every
        ticket at ``at + latency`` and records one amortized share
        ``latency / n`` per key — the monitor's estimates feed Eq. 7/8, so
        planning sees the amortized cost.  Failure is known after the round
        trip (an error response) or at the attempt timeout (a silent drop).
        The breaker observes exactly one outcome per wire request.
        """
        self.stats.wire_requests += 1
        first = tickets[0]
        source, n = first.key[0], len(tickets)
        decision = None
        if self._fault_model is not None:
            decision = self._fault_model.decide(first.key, at, first.attempt, self._fault_rng)
        ok = decision is None or decision.kind not in (ERROR, DROP)
        if ok:
            if decision is not None and decision.kind == SLOW:
                latency *= decision.latency_scale
            known_after, error = latency, None
        else:
            if decision.kind == ERROR:
                known_after, error = latency, "error"
            else:
                known_after, error = self._retry.attempt_timeout, "timeout"
            if self.breakers.record(source, False, at):
                self.stats.breaker_opens += 1
            if n > 1:
                self.stats.batch_splits += 1
        # Batch tickets sit queued until their wire request goes out; a
        # single-key ticket's ``issue`` record was emitted by ``_issue``.
        if first.queued and self.tracer.enabled:
            failure = {} if ok else {"error": error}
            self.tracer.emit(
                CAT_FETCH, "batch_issue", at, source=source, n=n,
                keys=[trace_key(t.key) for t in tickets], dur=known_after, ok=ok, **failure,
            )
        share = latency / n
        for ticket in tickets:
            ticket.queued = False
            ticket.wire_started_at = at
            ticket.arrives_at = at + known_after
            ticket.ok = ok
            ticket.error = error
            if ok:
                ticket.element = self._store.lookup(ticket.key)
                self.monitor.record(ticket.key, share)
        if ok:
            if self._latency_hist is not None:
                self._latency_hist.observe(latency, at)
            self.breakers.record(source, True, at)

    def __repr__(self) -> str:
        return f"Transport({self.stats!r}, pending={len(self._in_flight)})"
