"""Virtual-time clock for the EIRES discrete-event simulation.

All latencies reported by this reproduction are measured in *virtual
microseconds*.  The paper (§7) measures wall-clock latency of a C++ engine;
here, every cost the engine incurs (per-event base processing, per-partial-
match evaluation, remote-data transmission stalls, queueing behind a busy
engine) is charged explicitly against a :class:`VirtualClock`.  This makes
runs deterministic and makes the latency decomposition of Eq. 2,
``l(c) = l_match(c) + l_fetch(c)``, directly observable.

Time is represented as a ``float`` number of microseconds since the start of
the simulation.  Microseconds are the natural unit because the synthetic
experiments of the paper use transmission latencies of 10--100 us and report
query latencies in the same range.
"""

from __future__ import annotations

__all__ = ["VirtualClock"]


class VirtualClock:
    """A monotonically advancing virtual clock.

    The clock models the point in time up to which the (single-threaded) CEP
    engine has finished work.  Components advance it by charging costs::

        clock.advance(cost_us)     # engine did `cost_us` of work
        clock.advance_to(t)        # engine idled/stalled until time `t`

    Attempts to move the clock backwards raise ``ValueError`` — a virtual
    clock that rewinds indicates a scheduling bug, and such bugs must not
    pass silently.

    ``now``, the current virtual time in microseconds, is a plain slot: the
    hot path reads it tens of times per event, and a property would make
    each read a Python call.  Only this class writes it, and the engine,
    which publishes a guard's returned time with ``advance_to``'s compare
    and adds costs refused negative where they are defined (rule D5 of
    ``tests/test_invariants.py``).
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at negative time: {start}")
        self.now = float(start)

    def advance(self, delta: float) -> float:
        """Advance the clock by ``delta`` microseconds and return the new time.

        ``delta`` must be non-negative; a zero advance is permitted (some
        operations are modelled as free).
        """
        if delta < 0:
            raise ValueError(f"cannot advance clock by negative delta: {delta}")
        self.now += delta
        return self.now

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to an absolute ``timestamp``, if it is later.

        Unlike :meth:`advance`, this is a *wait-until* operation: if the
        target lies in the past, the clock is left unchanged.  This is the
        idiom for "the engine is free at ``now`` but the next event only
        arrives at ``timestamp``" and for "processing resumes once the remote
        data has arrived".
        """
        if timestamp > self.now:
            self.now = timestamp
        return self.now

    def reset(self, start: float = 0.0) -> None:
        """Reset the clock (used between independent experiment runs)."""
        if start < 0:
            raise ValueError(f"clock cannot reset to negative time: {start}")
        self.now = float(start)

    def __repr__(self) -> str:
        return f"VirtualClock(now={self.now:.3f}us)"
