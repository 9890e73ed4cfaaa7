"""The EIRES facade: a single query on the unified runtime layer.

:class:`EIRES` is a thin shell over :class:`repro.runtime.RuntimeBuilder` —
the same composition root that assembles multi-query deployments — exposing
the components of Fig. 4 as plain attributes for one query over one remote
store.  Typical use::

    from repro import EIRES, EiresConfig, parse_query
    from repro.remote import RemoteStore, UniformLatency

    query = parse_query("SEQ(A a, B b) WHERE a.v1 IN REMOTE[b.v1] WITHIN 100",
                        name="demo")
    store = RemoteStore()
    store.put("v1", 7, {1, 2, 3})

    eires = EIRES(query, store, UniformLatency(10, 100),
                  strategy="Hybrid", config=EiresConfig())
    result = eires.run(stream)
    print(result.latency_percentiles())
"""

from __future__ import annotations

from repro.core.config import EiresConfig
from repro.events.stream import Stream
from repro.obs.trace import Tracer
from repro.query.ast import Query
from repro.remote.store import RemoteStore
from repro.remote.transport import LatencyModel
from repro.runtime import RunResult, RuntimeBuilder
from repro.strategies.base import FetchStrategy

__all__ = ["EIRES"]


class EIRES:
    """One assembled instance of the framework for a single query."""

    def __init__(
        self,
        query: Query,
        store: RemoteStore,
        latency_model: LatencyModel,
        strategy: str | FetchStrategy = "Hybrid",
        config: EiresConfig | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.runtime = (
            RuntimeBuilder(store, latency_model, config=config, tracer=tracer)
            .add_query(query, strategy=strategy)
            .build()
        )
        session = self.runtime.sessions[0]
        ctx = session.strategy.ctx
        # The assembled components, exposed flat for inspection and tests.
        self.config = self.runtime.config
        self.query = query
        self.automaton = session.automaton
        self.clock = self.runtime.clock
        self.metrics = self.runtime.metrics
        self.tracer = self.runtime.tracer
        self.monitor = self.runtime.monitor
        self.transport = self.runtime.transport
        self.cache = ctx.cache
        self.noise = self.runtime.noise
        self.utility = session.utility
        self.rates = session.rates
        self.scheduler = ctx.scheduler
        self.history = ctx.history
        self.strategy = session.strategy
        self.engine = session.engine

    def run(self, stream: Stream) -> RunResult:
        """Evaluate the query over ``stream`` and return all measurements."""
        results = self.runtime.run(stream)
        return results[self.query.name]

    def __repr__(self) -> str:
        return (
            f"EIRES(query={self.query.name!r}, strategy={self.strategy.name}, "
            f"policy={self.config.policy}, cache={self.config.cache_policy})"
        )
