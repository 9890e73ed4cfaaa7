"""SLO definitions evaluated as burn rates over registered ``slo.*`` metrics.

An :class:`SloSpec` declares the service-level objectives of a run in the
paper's own measures: a **latency bound** on the windowed p95 detection
latency (§2.2), a **recall floor** bounding the fraction of input events
the shedding plane may drop (each dropped event is recall given up — the
eSPICE trade), and a **fetch budget** bounding the wire-request rate
against the remote stores (the resource the whole system exists to spend
carefully).

The :class:`SloPlane` evaluates each objective as a *burn rate*: the ratio
of observed behaviour to the objective's allowance, where a value above 1.0
means the objective is being violated at the current trajectory.  Burns
land on registered ``slo.*`` gauges (so the series sampler graphs them and
metric snapshots report them) and are consumable by the shedding
:class:`~repro.shedding.detector.OverloadDetector` as a principled overload
signal beyond the raw lag/population bounds.

The plane is pure measurement: it reads model state through injected
callables, draws no random numbers, and never touches the clock — building
it changes no run results unless the detector is explicitly configured to
consume it (``EiresConfig.slo_in_detector``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.registry import CounterGroup, MetricsRegistry, ScopedRegistry

__all__ = [
    "SloSpec",
    "SloPlane",
    "SLO_GAUGE_KEYS",
    "SLO_COUNTER_KEYS",
    "SLO_LATENCY_METRIC",
]

#: Registered ``slo.*`` gauges, in report order (one per objective + worst).
SLO_GAUGE_KEYS = ("latency_burn", "recall_burn", "fetch_burn", "worst_burn")

#: The ``slo.*`` counters, in report order.
SLO_COUNTER_KEYS = ("evaluations", "breaches")

#: The plane's own windowed histogram of per-match detection latencies;
#: registered as a named constant so emission never spells it inline (M1).
SLO_LATENCY_METRIC = "slo.match_latency_us"

#: Burn reported when an objective allows zero loss but loss occurred
#: (finite so gauges and JSON exports stay well-defined).
_BURN_CAP = 1e9

#: Virtual us the detector-facing :meth:`SloPlane.worst_burn` stays cached.
REFRESH_INTERVAL_US = 1_000.0


def _zero() -> int:
    return 0


@dataclass(frozen=True)
class SloSpec:
    """The objectives of one run; any subset may be set.

    ``latency_bound`` — windowed p95 detection latency must stay under this
    many virtual us.  ``recall_floor`` — at least this fraction of input
    events must survive shedding (1.0 = no loss allowed).  ``fetch_budget``
    — wire requests per virtual *second* must stay under this rate.
    """

    latency_bound: float | None = None
    recall_floor: float | None = None
    fetch_budget: float | None = None

    def __post_init__(self) -> None:
        if self.latency_bound is not None and self.latency_bound <= 0:
            raise ValueError(f"latency_bound must be positive: {self.latency_bound}")
        if self.recall_floor is not None and not 0.0 <= self.recall_floor <= 1.0:
            raise ValueError(f"recall_floor must be in [0, 1]: {self.recall_floor}")
        if self.fetch_budget is not None and self.fetch_budget <= 0:
            raise ValueError(f"fetch_budget must be positive: {self.fetch_budget}")

    @property
    def empty(self) -> bool:
        return (
            self.latency_bound is None
            and self.recall_floor is None
            and self.fetch_budget is None
        )


class SloPlane:
    """Evaluates an :class:`SloSpec` against a live run.

    The dispatch loop feeds it events and match latencies; the wire-request
    and shed-event totals are read through callables the composition root
    binds (keeping this module free of upward imports).  ``evaluate``
    refreshes the ``slo.*`` gauges; ``worst_burn`` is the detector-facing
    read, cached for :data:`REFRESH_INTERVAL_US` so per-event overload
    checks do not recompute percentiles.
    """

    __slots__ = (
        "spec",
        "_gauges",
        "_counters",
        "_hist",
        "_wire_source",
        "_shed_source",
        "_events_seen",
        "_start_t",
        "_cached_burn",
        "_cached_at",
    )

    def __init__(
        self,
        spec: SloSpec,
        registry: MetricsRegistry | ScopedRegistry,
    ) -> None:
        self.spec = spec
        self._gauges = {key: registry.gauge(f"slo.{key}") for key in SLO_GAUGE_KEYS}
        self._counters = CounterGroup("slo", SLO_COUNTER_KEYS, registry)
        self._hist = registry.histogram(SLO_LATENCY_METRIC)
        self._wire_source: Callable[[], int] = _zero
        self._shed_source: Callable[[], int] = _zero
        self._events_seen = 0
        self._start_t: float | None = None
        self._cached_burn: float | None = None
        self._cached_at = 0.0

    def bind_sources(
        self,
        wire_requests: Callable[[], int] | None = None,
        events_shed: Callable[[], int] | None = None,
    ) -> None:
        """Wire the totals the burns read (composition-root plumbing)."""
        if wire_requests is not None:
            self._wire_source = wire_requests
        if events_shed is not None:
            self._shed_source = events_shed

    # -- observation hooks (dispatch loop) ------------------------------------
    def observe_event(self, now: float) -> None:
        """One input event entered the system at virtual time ``now``."""
        if self._start_t is None:
            self._start_t = now
        self._events_seen += 1

    def observe_match(self, latency: float, now: float) -> None:
        """One match was detected with the given latency."""
        self._hist.observe(latency, now)

    # -- burn evaluation -------------------------------------------------------
    def burns(self, now: float) -> dict[str, float]:
        """The current burn rate of every objective (0.0 when unset)."""
        spec = self.spec
        latency_burn = 0.0
        if spec.latency_bound is not None:
            latency_burn = self._hist.percentiles((95,))[95] / spec.latency_bound
        recall_burn = 0.0
        if spec.recall_floor is not None and self._events_seen > 0:
            loss = self._shed_source() / self._events_seen
            allowed = 1.0 - spec.recall_floor
            if allowed > 0.0:
                recall_burn = loss / allowed
            elif loss > 0.0:
                recall_burn = _BURN_CAP
        fetch_burn = 0.0
        if spec.fetch_budget is not None and self._start_t is not None:
            elapsed = now - self._start_t
            if elapsed > 0.0:
                rate = self._wire_source() / (elapsed / 1e6)
                fetch_burn = rate / spec.fetch_budget
        worst = max(latency_burn, recall_burn, fetch_burn)
        return {
            "latency_burn": latency_burn,
            "recall_burn": recall_burn,
            "fetch_burn": fetch_burn,
            "worst_burn": worst,
        }

    def evaluate(self, now: float) -> dict[str, float]:
        """Refresh the ``slo.*`` gauges from the current burns."""
        burns = self.burns(now)
        for key in SLO_GAUGE_KEYS:
            self._gauges[key].set(burns[key])
        self._counters.evaluations += 1
        if burns["worst_burn"] > 1.0:
            self._counters.breaches += 1
        self._cached_burn = burns["worst_burn"]
        self._cached_at = now
        return burns

    def worst_burn(self, now: float) -> float:
        """The detector-facing worst burn, refreshed every refresh interval."""
        if (
            self._cached_burn is None
            or now - self._cached_at >= REFRESH_INTERVAL_US
        ):
            self._cached_burn = self.burns(now)["worst_burn"]
            self._cached_at = now
        return self._cached_burn

    def status(self, now: float) -> dict[str, Any]:
        """Health-report view: each objective's target, burn, and verdict."""
        burns = self.burns(now)
        spec = self.spec
        objectives = {}
        targets = {
            "latency_burn": spec.latency_bound,
            "recall_burn": spec.recall_floor,
            "fetch_burn": spec.fetch_budget,
        }
        for key in SLO_GAUGE_KEYS[:-1]:
            if targets[key] is None:
                continue
            objectives[key] = {
                "target": targets[key],
                "burn": burns[key],
                "ok": burns[key] <= 1.0,
            }
        return {"objectives": objectives, "worst_burn": burns["worst_burn"]}

    def __repr__(self) -> str:
        return f"SloPlane({self.spec!r}, events={self._events_seen})"
