"""Per-query units of the runtime layer.

A :class:`QuerySpec` declares *what* to run (query, priority, strategy
name); a :class:`QuerySession` is the assembled unit the dispatch loop
drives — automaton, engine, attached fetch strategy, utility model, and
rate estimators around the substrate shared by all sessions — for all
specs of one equivalence class.  Sessions are built exclusively by
:class:`~repro.runtime.builder.RuntimeBuilder`.
"""

from __future__ import annotations

from typing import Sequence

from repro.nfa.automaton import Automaton
from repro.query.ast import Query
from repro.runtime.matches import MatchStore
from repro.strategies.base import FetchStrategy
from repro.utility.model import UtilityModel
from repro.utility.rates import RateEstimator

__all__ = ["QuerySpec", "QuerySession"]


class QuerySpec:
    """One query registered with the runtime.

    ``strategy`` may be a paper name (``"BL1"`` .. ``"Hybrid"``) or an
    already constructed :class:`~repro.strategies.base.FetchStrategy`
    instance.

    ``run_budget`` overrides the config-wide shedding run budget for this
    query alone (the fleet layer maps per-tenant quotas onto it); ``scope``
    overrides the session's metric namespace (default: ``query.<name>``
    when several queries share one registry); ``admission`` is the fleet
    tenant's ``(rate_limit, burst)``.  All three default to ``None`` — the
    spec then behaves exactly as it did before the fields existed.
    """

    __slots__ = ("query", "priority", "strategy_name", "strategy_instance",
                 "run_budget", "scope", "admission")

    def __init__(
        self,
        query: Query,
        priority: float = 1.0,
        strategy: str | FetchStrategy = "Hybrid",
        run_budget: int | None = None,
        scope: str | None = None,
        admission: tuple | None = None,
    ) -> None:
        if priority <= 0:
            raise ValueError(f"query priority must be positive: {priority}")
        if run_budget is not None and run_budget <= 0:
            raise ValueError(f"run budget must be positive: {run_budget}")
        self.query = query
        self.priority = priority
        if isinstance(strategy, str):
            self.strategy_name = strategy
            self.strategy_instance: FetchStrategy | None = None
        else:
            self.strategy_name = strategy.name
            self.strategy_instance = strategy
        self.run_budget = run_budget
        self.scope = scope
        self.admission = admission

    def share_key(self) -> tuple | None:
        """What specs served by one session agree on: everything deciding what
        it computes and when.  ``None`` (a stateful strategy instance) never shares."""
        if self.strategy_instance is not None:
            return None
        return (self.query.structure(), self.strategy_name, self.priority,
                self.run_budget, self.admission)

    def __repr__(self) -> str:
        return f"QuerySpec({self.query.name!r}, priority={self.priority}, {self.strategy_name})"


class QuerySession:
    """One evaluation's assembled moving parts around the shared substrate.

    It serves its *subscribers*, the specs of one :meth:`QuerySpec.share_key`
    class; the first names it.  ``scopes`` holds each subscriber's metric
    prefix (``""`` unscoped, else ``"query.<name>."`` or the spec's
    ``scope + "."``).  ``matches`` is (re)initialised by the dispatch loop
    at the start of every replay; the rest is build-time state.
    """

    __slots__ = ("spec", "names", "scopes", "weight", "automaton", "engine", "strategy",
                 "utility", "rates", "shedder", "matches")

    def __init__(
        self,
        subscribers: Sequence[QuerySpec],
        automaton: Automaton,
        engine,
        strategy: FetchStrategy,
        utility: UtilityModel,
        rates: RateEstimator,
        shedder=None,
        scopes: Sequence[str] = ("",),
    ) -> None:
        self.spec = subscribers[0]
        self.names = tuple(spec.query.name for spec in subscribers)
        self.scopes = tuple(scopes)
        # The Eq. 3 weight: one utility model stands for N subscribers' copies.
        self.weight = sum(spec.priority for spec in subscribers)
        self.automaton = automaton
        self.engine = engine
        self.strategy = strategy
        self.utility = utility
        self.rates = rates
        # Overload control; None unless the config names a shedding policy
        # (the default build carries no shedding plane at all).
        self.shedder = shedder
        self.matches = MatchStore()

    @property
    def name(self) -> str:
        return self.spec.query.name

    @property
    def priority(self) -> float:
        return self.spec.priority

    def begin_run(self) -> None:
        """Start the per-replay match store (the dispatch loop calls this)."""
        self.matches = MatchStore(traced=self.strategy.spans is not None)

    def __repr__(self) -> str:
        return f"QuerySession({self.names!r}, {self.strategy.name}, priority={self.priority})"
