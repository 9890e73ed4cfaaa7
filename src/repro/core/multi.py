"""Multi-query EIRES: several CEP queries sharing one cache and cost model.

§4.1 of the paper: *"our utility model is able to cope with multiple queries
in a straightforward manner: the utility of a data element is assessed based
on its related current and future partial matches, regardless of the query
for which these partial matches have been created. Sharing of data elements
among queries is thereby captured directly in our cost model. If queries are
assigned priorities, these need to be used as weights in the utility
definition in Eq. 3."*

:class:`MultiQueryEIRES` realises exactly that, as a thin facade over the
unified runtime layer: :class:`~repro.runtime.builder.RuntimeBuilder`
assembles one substrate (virtual clock, transport with fault injection and
breakers, shared cache, tracer, metrics registry) and one
:class:`~repro.runtime.session.QuerySession` per query, and
:func:`~repro.runtime.dispatch.dispatch` drives every engine in priority
order — the same composition root and the same loop as the single-query
:class:`~repro.core.framework.EIRES` facade.  The shared cache's utility
function sums the per-query utilities weighted by the queries' priorities,
so an element needed by several queries — or by one high-priority query —
is retained over single-use data.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import EiresConfig
from repro.events.stream import Stream
from repro.obs.trace import Tracer
from repro.remote.store import RemoteStore
from repro.remote.transport import LatencyModel
from repro.runtime import QuerySession, QuerySpec, RunResult
from repro.runtime.builder import CACHE_ALWAYS, RuntimeBuilder

__all__ = ["MultiQueryEIRES", "QuerySpec"]


class MultiQueryEIRES:
    """Shared-cache, shared-clock evaluation of multiple CEP queries."""

    def __init__(
        self,
        specs: Sequence[QuerySpec],
        store: RemoteStore,
        latency_model: LatencyModel,
        config: EiresConfig | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        builder = RuntimeBuilder(
            store, latency_model, config=config, tracer=tracer,
            cache_mode=CACHE_ALWAYS,
        )
        for spec in specs:
            builder.add_spec(spec)
        self.runtime = builder.build()
        self.config = self.runtime.config
        self.clock = self.runtime.clock
        self.metrics = self.runtime.metrics
        self.tracer = self.runtime.tracer
        self.monitor = self.runtime.monitor
        self.transport = self.runtime.transport
        self.cache = self.runtime.cache
        self.noise = self.runtime.noise

    @property
    def sessions(self) -> list[QuerySession]:
        """The per-query sessions, in descending priority order."""
        return self.runtime.sessions

    def run(self, stream: Stream, smoothing_window: int = 1) -> dict[str, RunResult]:
        """Replay ``stream`` through every query; results keyed by query name."""
        return self.runtime.run(stream, smoothing_window=smoothing_window)

    def __repr__(self) -> str:
        names = ", ".join(session.name for session in self.runtime.sessions)
        return f"MultiQueryEIRES([{names}], cache={self.config.cache_policy})"
