"""Configuration for an assembled EIRES instance.

One :class:`EiresConfig` captures every tunable of the framework — the
paper's system parameters (selection policy, cache policy and capacity, the
utility weighting factors ``omega_fetch``/``omega_cache`` of Eq. 5, the
estimation-noise ratio of Fig. 8a) plus the cost-model constants of the
virtual-time simulation.  The benchmark harness sweeps these fields to
regenerate the sensitivity figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.engine.engine import GREEDY, NON_GREEDY
from repro.engine.interface import CostModel
from repro.remote.faults import make_fault_model
from repro.shedding.policy import SHED_NONE, SHED_POLICIES
from repro.strategies.base import FAIL_CLOSED, FAIL_OPEN

__all__ = ["EiresConfig", "CACHE_LRU", "CACHE_COST"]

CACHE_LRU = "lru"
CACHE_COST = "cost"


@dataclass(frozen=True)
class EiresConfig:
    """All knobs of one EIRES deployment."""

    # CEP semantics (§2.1)
    policy: str = GREEDY

    # Cache management (§6)
    cache_policy: str = CACHE_COST
    cache_capacity: int = 10_000

    # Utility model (§4)
    omega_fetch: float = 0.7
    omega_cache: float = 0.5
    noise_ratio: float = 0.0

    # Prefetch timing/selection (§5.1)
    lookahead_enabled: bool = True
    history_reset_after: float = 1_000_000.0

    # Lazy evaluation (§5.2)
    lazy_gate_enabled: bool = True

    # Fault tolerance: injection profile, retry policy, circuit breakers,
    # graceful degradation (breakers and stale serve are always armed).
    # ``fault_profile="none"`` keeps the substrate byte-identical to a
    # fault-free build (no fault RNG draws).
    fault_profile: str = "none"
    retry_max_attempts: int = 3
    retry_backoff_base: float = 25.0
    retry_attempt_timeout: float = 400.0
    retry_deadline: float = 4_000.0
    breaker_failure_threshold: float = 0.5
    breaker_cooldown: float = 2_000.0
    failure_mode: str = FAIL_CLOSED

    # Batched fetch plane: async requests per source coalesce for up to
    # ``batch_window`` virtual us (at most ``batch_max_keys`` keys) into one
    # wire request costing ``batch_fixed_latency + n * batch_per_key_latency``.
    # The defaults disable batching, keeping runs byte-identical to the
    # single-key substrate.
    batch_window: float = 0.0
    batch_max_keys: int = 1
    batch_fixed_latency: float = 40.0
    batch_per_key_latency: float = 8.0

    # Load shedding (overload control).  ``shed_policy="none"`` builds no
    # shedding plane at all — byte-identical to a build predating it.  The
    # other policies require at least one bound: ``latency_bound`` (maximum
    # tolerable queueing delay, virtual us) and/or ``run_budget`` (maximum
    # live partial matches per session).
    shed_policy: str = "none"
    latency_bound: float | None = None
    run_budget: int | None = None
    shed_event_threshold: float = 0.0
    omega_shed: float = 0.5

    # Observability: the virtual-time series sampler and the SLO/health
    # plane (the percentile sets are the constants REPORT_PERCENTILES and
    # HISTOGRAM_PERCENTILES).  The defaults build no sampler and no SLO
    # plane — byte-identical (and metric-identical) to a build predating
    # them.  ``series_interval`` is the sampling cadence in virtual us
    # (0 = off); the ``slo_*`` objectives are evaluated as burn rates into
    # registered ``slo.*`` metrics, and ``slo_in_detector`` lets the
    # shedding OverloadDetector treat a burn above 1.0 as overload.
    series_interval: float = 0.0
    slo_latency_bound: float | None = None
    slo_recall_floor: float | None = None
    slo_fetch_budget: float | None = None
    slo_in_detector: bool = False

    # Virtual-time cost model
    cost_model: CostModel = field(default_factory=CostModel)

    # Reproducibility
    seed: int = 42

    def __post_init__(self) -> None:
        if self.policy not in (GREEDY, NON_GREEDY):
            raise ValueError(
                f"unknown selection policy {self.policy!r}; "
                f"policy must be {GREEDY!r} or {NON_GREEDY!r}"
            )
        if self.cache_policy not in (CACHE_LRU, CACHE_COST):
            raise ValueError(
                f"unknown cache policy {self.cache_policy!r}; "
                f"cache_policy must be {CACHE_COST!r} or {CACHE_LRU!r}"
            )
        if self.cache_capacity <= 0:
            raise ValueError(f"cache capacity must be positive: {self.cache_capacity}")
        for name in ("omega_fetch", "omega_cache", "noise_ratio"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {value}")
        try:
            make_fault_model(self.fault_profile)
        except ValueError as exc:
            raise ValueError(f"fault_profile {self.fault_profile!r}: {exc}") from None
        if self.failure_mode not in (FAIL_OPEN, FAIL_CLOSED):
            raise ValueError(
                f"unknown failure mode {self.failure_mode!r}; "
                f"failure_mode must be {FAIL_CLOSED!r} or {FAIL_OPEN!r}"
            )
        if self.retry_max_attempts < 1:
            raise ValueError(f"retry_max_attempts must be >= 1: {self.retry_max_attempts}")
        if not 0.0 < self.breaker_failure_threshold <= 1.0:
            raise ValueError(
                f"breaker_failure_threshold must be in (0, 1]: {self.breaker_failure_threshold}"
            )
        if self.batch_window < 0:
            raise ValueError(f"batch_window must be non-negative: {self.batch_window}")
        if self.batch_max_keys < 1:
            raise ValueError(f"batch_max_keys must be >= 1: {self.batch_max_keys}")
        if self.batch_fixed_latency < 0:
            raise ValueError(
                f"batch_fixed_latency must be non-negative: {self.batch_fixed_latency}"
            )
        if self.batch_per_key_latency < 0:
            raise ValueError(
                f"batch_per_key_latency must be non-negative: {self.batch_per_key_latency}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shedding policy {self.shed_policy!r}; shed_policy "
                f"must be one of {sorted(SHED_POLICIES)}"
            )
        if self.latency_bound is not None and self.latency_bound <= 0:
            raise ValueError(f"latency_bound must be positive: {self.latency_bound}")
        if self.run_budget is not None and self.run_budget < 1:
            raise ValueError(f"run_budget must be >= 1: {self.run_budget}")
        if (
            self.shed_policy != SHED_NONE
            and self.latency_bound is None
            and self.run_budget is None
            and not self.slo_in_detector
        ):
            # SLO-consuming detectors may shed on burn rates alone; everything
            # else needs an explicit overload bound to ever trigger.
            raise ValueError(
                f"shed_policy={self.shed_policy!r} needs --latency-bound, "
                f"--run-budget, and/or --slo-in-detector"
            )
        if not 0.0 <= self.omega_shed <= 1.0:
            raise ValueError(f"omega_shed must be in [0, 1]: {self.omega_shed}")
        if self.shed_event_threshold < 0:
            raise ValueError(
                f"shed_event_threshold must be non-negative: {self.shed_event_threshold}"
            )
        if self.series_interval < 0:
            raise ValueError(f"series_interval must be non-negative: {self.series_interval}")
        if self.slo_latency_bound is not None and self.slo_latency_bound <= 0:
            raise ValueError(f"slo_latency_bound must be positive: {self.slo_latency_bound}")
        if self.slo_recall_floor is not None and not 0.0 <= self.slo_recall_floor <= 1.0:
            raise ValueError(f"slo_recall_floor must be in [0, 1]: {self.slo_recall_floor}")
        if self.slo_fetch_budget is not None and self.slo_fetch_budget <= 0:
            raise ValueError(f"slo_fetch_budget must be positive: {self.slo_fetch_budget}")
        if self.slo_in_detector and not self.has_slo:
            raise ValueError("slo_in_detector needs at least one slo_* objective set")

    @property
    def has_slo(self) -> bool:
        """Whether any SLO objective is declared (builds the SloPlane)."""
        return (
            self.slo_latency_bound is not None
            or self.slo_recall_floor is not None
            or self.slo_fetch_budget is not None
        )

    def with_(self, **changes) -> "EiresConfig":
        """A copy with some fields replaced (sweep convenience)."""
        return replace(self, **changes)
