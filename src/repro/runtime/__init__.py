"""The runtime layer: one composition root and one dispatch loop.

This package assembles the paper's Fig. 4 architecture exactly once, for any
number of queries:

* :class:`~repro.runtime.builder.RuntimeBuilder` wires the shared substrate
  — virtual clock, RNG tree, transport (fault model, retry policy, breaker
  board), cache, latency monitor, tracer, and metrics registry — from an
  :class:`~repro.core.config.EiresConfig`;
* :class:`~repro.runtime.session.QuerySession` bundles the per-query moving
  parts (automaton, engine, fetch strategy, utility model, rate estimators);
* :func:`~repro.runtime.dispatch.dispatch` replays a stream through N
  sessions in priority order — the only event loop in the system, owning
  clock advance, trace emission, latency/throughput recording, end-of-stream
  flush, and :class:`~repro.runtime.dispatch.RunResult` assembly.

The single-query facade :class:`repro.EIRES` is a thin shell over this
layer, multi-query callers use :class:`RuntimeBuilder` directly, and a
:class:`repro.serving.Fleet` is one :class:`Runtime` plus admission state;
anything they can do, a hand-held :class:`Runtime` can do too.
"""

from repro.runtime.builder import Runtime, RuntimeBuilder
from repro.runtime.dispatch import RunResult, dispatch
from repro.runtime.session import QuerySession, QuerySpec

__all__ = [
    "RuntimeBuilder",
    "Runtime",
    "QuerySession",
    "QuerySpec",
    "RunResult",
    "dispatch",
]
