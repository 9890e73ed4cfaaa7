"""What one tenant asks of the fleet: queries, rate, quota, objective.

A :class:`TenantSpec` is declarative — it constructs nothing.  The fleet
builder turns it into :class:`~repro.runtime.session.QuerySpec`
entries (carrying the tenant's run quota and metric scope), a token bucket
when a rate limit is declared, and a per-tenant SLO plane when an
objective is.  Validation happens here, eagerly, so a bad spec fails at
declaration time with the field that is wrong — not mid-dispatch.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.slo import SloSpec
from repro.query.ast import Query

__all__ = ["TenantSpec"]


class TenantSpec:
    """One tenant's declaration: queries plus serving constraints.

    ``queries`` is one :class:`~repro.query.ast.Query` or a sequence of
    them.  ``rate_limit`` is events per virtual second admitted to this
    tenant's sessions (``None`` = unlimited); ``burst`` caps the token
    bucket and defaults to ``max(1.0, rate_limit)``.  ``run_budget`` is
    the tenant's partial-match quota, mapped onto every query's shedding
    detector (requires a shedding policy on the fleet config).  ``slo``
    attaches a per-tenant :class:`~repro.obs.slo.SloSpec` evaluated on the
    tenant's scoped metrics.  ``priority`` weights the tenant's sessions
    in the fleet-wide dispatch order and the shared-cache utility sum.
    """

    __slots__ = ("name", "queries", "rate_limit", "burst", "run_budget", "slo",
                 "priority", "strategy")

    def __init__(
        self,
        name: str,
        queries: Query | Sequence[Query],
        rate_limit: float | None = None,
        burst: float | None = None,
        run_budget: int | None = None,
        slo: SloSpec | None = None,
        priority: float = 1.0,
        strategy: str = "Hybrid",
    ) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(f"tenant name must be a non-empty string: {name!r}")
        if isinstance(queries, Query):
            queries = (queries,)
        else:
            queries = tuple(queries)
        if not queries:
            raise ValueError(f"tenant {name!r} declares no queries")
        if rate_limit is not None and rate_limit <= 0.0:
            raise ValueError(
                f"tenant {name!r}: rate limit must be positive events/s, "
                f"got {rate_limit}"
            )
        if burst is not None:
            if rate_limit is None:
                raise ValueError(
                    f"tenant {name!r}: burst without a rate limit is meaningless"
                )
            if burst < 1.0:
                raise ValueError(
                    f"tenant {name!r}: burst must be at least 1.0, got {burst}"
                )
        elif rate_limit is not None:
            burst = max(1.0, rate_limit)
        if run_budget is not None and run_budget <= 0:
            raise ValueError(
                f"tenant {name!r}: run budget must be positive, got {run_budget}"
            )
        if priority <= 0:
            raise ValueError(
                f"tenant {name!r}: priority must be positive, got {priority}"
            )
        self.name = name
        self.queries = queries
        self.rate_limit = rate_limit
        self.burst = burst
        self.run_budget = run_budget
        self.slo = slo
        self.priority = priority
        self.strategy = strategy

    @property
    def query_names(self) -> tuple[str, ...]:
        return tuple(query.name for query in self.queries)

    def __repr__(self) -> str:
        limit = f", rate_limit={self.rate_limit}/s" if self.rate_limit is not None else ""
        return f"TenantSpec({self.name!r}, queries={list(self.query_names)}{limit})"
