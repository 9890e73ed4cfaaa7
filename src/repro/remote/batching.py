"""Batched fetch plane: multi-key wire requests under a coalescing window.

EIRES charges every remote access the full transmission latency
``l_remote(d)`` (§2.1), yet PFetch routinely selects several prefetch
candidates at one decision point and LzEval resolves several postponed
obligations on one arrival.  Issuing each as its own wire request pays the
fixed per-request overhead n times; amortizing it across grouped accesses is
the standard lever once remote I/O dominates detection latency (cf. the
join-optimization survey, arXiv:1801.09413).

:class:`BatchPolicy` holds the knobs and the amortized latency model

    l_batch(n) = l_fixed + sum_d l_per(d) = fixed_latency + n * per_key_latency

so a batch of n keys costs far less than n round trips.  :class:`BatchQueue`
is one source's open coalescing window: async requests for that source
accumulate until the (virtual-time) window elapses or ``max_keys`` is
reached, then drain into a single multi-key wire request.  Assembly is
utility-ranked: entries are ordered by descending utility (Eq. 7 candidate
utilities for gated prefetches, ``inf`` for certain-use lazy fetches) with
the key repr as a deterministic tie-break, so the wire order — and
everything downstream of it — is reproducible.

The queues are owned and drained by :class:`~repro.remote.transport.Transport`;
this module holds only the policy and the bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.remote.element import DataKey

__all__ = ["BatchPolicy", "BatchQueue", "DISABLED_BATCHING"]


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs and latency model of the batched fetch plane.

    ``window`` is the coalescing window in virtual microseconds: the first
    queued key opens the window, and the batch is issued when it elapses
    (or earlier, when ``max_keys`` accumulate or an urgent blocking need
    closes it).  The defaults (``window=0``, ``max_keys=1``) disable
    batching entirely — every request takes the classic single-key path and
    draws exactly the RNG stream it always did.
    """

    window: float = 0.0
    max_keys: int = 1
    fixed_latency: float = 40.0
    per_key_latency: float = 8.0

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError(f"batch window must be non-negative: {self.window}")
        if self.max_keys < 1:
            raise ValueError(f"batch max_keys must be >= 1: {self.max_keys}")
        if self.fixed_latency < 0:
            raise ValueError(
                f"batch fixed latency must be non-negative: {self.fixed_latency}"
            )
        if self.per_key_latency < 0:
            raise ValueError(
                f"batch per-key latency must be non-negative: {self.per_key_latency}"
            )

    @property
    def enabled(self) -> bool:
        """Batching is on only when a window exists *and* batches can grow."""
        return self.window > 0.0 and self.max_keys > 1

    def batch_latency(self, n_keys: int) -> float:
        """``l_batch = l_fixed + sum_d l_per(d)`` for an ``n_keys``-key batch."""
        if n_keys < 1:
            raise ValueError(f"a wire request carries at least one key: {n_keys}")
        return self.fixed_latency + n_keys * self.per_key_latency


#: The shared do-nothing policy a transport falls back to when none is given.
DISABLED_BATCHING = BatchPolicy()


class _Entry:
    """One queued key with its assembly rank inputs."""

    __slots__ = ("ticket", "utility")

    def __init__(self, ticket, utility: float) -> None:
        self.ticket = ticket
        self.utility = utility


class BatchQueue:
    """One source's open coalescing window."""

    __slots__ = ("source", "opened_at", "deadline", "_entries", "_keys")

    def __init__(self, source: str, opened_at: float, window: float) -> None:
        self.source = source
        self.opened_at = opened_at
        self.deadline = opened_at + window
        self._entries: list[_Entry] = []
        self._keys: set[DataKey] = set()

    def add(self, ticket, utility: float) -> None:
        if ticket.key in self._keys:
            raise ValueError(f"key already queued: {ticket.key!r}")
        self._keys.add(ticket.key)
        self._entries.append(_Entry(ticket, utility))

    def __len__(self) -> int:
        return len(self._entries)

    def ranked(self) -> list:
        """Tickets in wire order: descending utility, key repr tie-break.

        Certain-use (lazy) fetches submit with infinite utility and thus
        lead the batch; gated prefetches follow in Eq. 7 utility order.  The
        repr tie-break keeps assembly deterministic regardless of arrival
        interleaving, so traces and resumed runs stay byte-identical.
        """
        return [
            entry.ticket
            for entry in sorted(
                self._entries, key=lambda e: (-e.utility, repr(e.ticket.key))
            )
        ]

    def __repr__(self) -> str:
        return (
            f"BatchQueue({self.source!r}, {len(self._entries)} keys, "
            f"deadline={self.deadline:.1f})"
        )
