"""The fetch plane: how a strategy moves remote data to the engine.

Everything that touches the :class:`~repro.remote.transport.Transport` or
the cache on a strategy's behalf lives here — blocking rounds with their
stall accounting, async issue, and serving stale values under graceful
degradation.  The decision logic of *when* to fetch stays in
:mod:`repro.strategies.obligations` and the concrete strategy subclasses;
this mixin only executes the data movement.

All remote access goes through the unified request surface:
``transport.submit(FetchRequest(...))``.  Async submissions carry the
caller's utility so the transport's batch assembly can rank them —
certain-use lazy fetches submit with infinite utility and lead any batch,
gated prefetches carry their Eq. 7 candidate utility.

The transport owns every per-fetch fact and every response: the in-flight
tickets, retries, terminal failures and breaker opens, the put of each
delivered async response into the runtime's cache in its ticket's tier
(``FetchTicket.certain``), and the one last-known table the stale fallback
reads.  The strategy keeps only per-round state: the staged values and the
keys failed this round.
"""

from __future__ import annotations

from typing import Any

from repro.obs.trace import CAT_FETCH, trace_key
from repro.remote.element import DataKey
from repro.remote.transport import MODE_BLOCKING, FetchRequest

__all__ = ["FetchPlane"]

# Batch-assembly rank of a certain-use (lazy) fetch: ahead of every
# speculative prefetch, whatever its Eq. 7 utility.
_LAZY_UTILITY = float("inf")


class FetchPlane:
    """Remote-access helpers shared by every fetch strategy.

    Mixed into :class:`~repro.strategies.base.FetchStrategy`, which owns the
    instance state these methods use (``ctx``, ``stats``, ``spans``,
    ``_staged``, ``_round_failed``, ``_in_blocking_round``).
    """

    def _available(self, key: DataKey) -> bool:
        """Availability probe without hit/miss accounting (planner checks)."""
        cache = self.ctx.cache
        return cache is not None and cache.peek(key, self.ctx.clock.now) is not None

    def _collect(self, keys) -> tuple[dict[DataKey, Any], list[DataKey]]:
        """Snapshot the locally available values for ``keys``.

        Snapshotting decouples evaluation from cache state: inserting a
        just-fetched element may evict another key of the *same* predicate,
        so values must be read out before any further insertion.  Each
        distinct key is looked up once — counting once in the cache's
        hit/miss statistics — and reported missing at most once, so a
        blocking round asks the transport once per distinct key.
        """
        values: dict[DataKey, Any] = {}
        missing: list[DataKey] = []
        cache = self.ctx.cache
        now = self.ctx.clock.now
        for key in keys:
            if key in values or key in missing:
                continue
            if key in self._staged:
                values[key] = self._staged[key]
                continue
            if key in self._round_failed:
                # Terminally failed this round: neither available nor worth
                # re-requesting — the predicate resolves per failure_mode.
                continue
            element = cache.get(key, now) if cache is not None else None
            if element is None:
                missing.append(key)
            else:
                values[key] = self._value_for(key, element)
        return values, missing

    def _value_for(self, key: DataKey, element) -> Any:
        """The value for ``key`` given a cache hit (possibly on a container)."""
        if element.key == key:
            return element.value
        # Container hit: serve the contained element's own value.
        return self.ctx.transport.store.lookup(key).value

    def _block_for(self, keys: list[DataKey]) -> dict[DataKey, Any]:
        """Fetch the distinct ``keys``, stalling the engine until all are known.

        Requests are issued concurrently (the stall is the max, not the sum
        — this is what makes BL3's one-shot fetching cheaper per match than
        BL1's state-by-state stalls).  Every key goes through a blocking
        ``submit``, which consumes whatever is in flight for it: a pending
        request is simply awaited for its remaining time, and one doomed to
        fail is taken over so its retry chain completes within the stall.
        Returns the fetched values; with a cache attached they are also
        inserted (tier T1 — their use is certain), while BL1 keeps nothing
        beyond the returned snapshot.  A cacheless session that joins a
        fetch another session has in flight consumes its only response, so
        it puts each joined success into the runtime's cache instead.

        A key whose fetch terminally fails (retries exhausted) is served
        from the transport's last-known table when any session fetched it
        before, and is otherwise left out of the returned snapshot — the
        caller's ``failure_mode`` then decides the predicate.
        """
        ctx = self.ctx
        transport = ctx.transport
        now = ctx.clock.now
        latest = now
        tickets = []
        cache = ctx.cache
        shared = transport.cache if cache is None else None
        joined = () if shared is None else {
            key for key in keys if transport.in_flight(key) is not None
        }
        for key in keys:
            ticket = transport.submit(FetchRequest(key, at=now, mode=MODE_BLOCKING))
            tickets.append(ticket)
            if ticket.arrives_at > latest:
                latest = ticket.arrives_at
        self.stats.blocking_stalls += 1
        self.stats.total_stall_time += latest - now
        spans = self.spans
        if spans is not None:
            spans.add_stall(now, latest, tickets)
        tracer = ctx.tracer
        if tracer.enabled:
            tracer.emit(
                CAT_FETCH,
                "stall",
                now,
                dur=latest - now,
                keys=[trace_key(key) for key in keys],
            )
        ctx.clock.advance_to(latest)
        values: dict[DataKey, Any] = {}
        last_known = transport.last_known
        for ticket in tickets:
            if ticket.ok:
                values[ticket.key] = ticket.element.value
                if cache is not None:
                    cache.put(ticket.element, ctx.clock.now, certain=True)
                elif ticket.key in joined:
                    shared.put(ticket.element, ctx.clock.now, certain=True)
                continue
            # Terminal failure, counted by the transport.
            if self._in_blocking_round:
                self._round_failed.add(ticket.key)
            if ticket.key in last_known:
                values[ticket.key] = last_known[ticket.key]
                self.stats.stale_serves += 1
        transport.deliver_due(ctx.clock.now)
        return values

    def _fetch_async(self, key: DataKey, certain: bool, utility: float = 0.0) -> None:
        transport = self.ctx.transport
        pending = transport.in_flight(key)
        if pending is None:
            request = FetchRequest(key, at=self.ctx.clock.now, utility=utility)
            transport.submit(request).certain = certain
        elif certain:
            # A lazy need upgrades a speculative prefetch: its use is now certain.
            pending.certain = True

    def _fetch_async_lazy(self, keys: list[DataKey]) -> None:
        for key in keys:
            self._fetch_async(key, True, utility=_LAZY_UTILITY)

    def _fetch_async_prefetch(self, key: DataKey, utility: float = 0.0) -> None:
        self._fetch_async(key, False, utility=utility)
