"""Configuration for an assembled EIRES instance.

One :class:`EiresConfig` captures every tunable of the framework — the
paper's system parameters (selection policy, cache policy and capacity, the
utility weighting factors ``omega_fetch``/``omega_cache`` of Eq. 5, the
estimation-noise ratio of Fig. 8a) plus the cost-model constants of the
virtual-time simulation.  The benchmark harness sweeps these fields to
regenerate the sensitivity figures.  Each value's rule is written once, by
the component that uses it, and applied when the config is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.cache.base import check_capacity
from repro.cache.history import HitHistory
from repro.engine.engine import GREEDY, check_policy
from repro.engine.interface import CostModel
from repro.obs.slo import SloSpec
from repro.obs.trace import NULL_TRACER, Tracer
from repro.remote.batching import BatchPolicy
from repro.remote.faults import make_fault_model
from repro.remote.monitor import BreakerBoard
from repro.remote.retry import RetryPolicy
from repro.shedding.detector import check_bounds
from repro.shedding.policy import SHED_NONE, SHED_POLICIES, check_omega
from repro.strategies.base import FAIL_CLOSED, FAIL_OPEN
from repro.utility.noise import NoiseModel

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
        # In field order.  A component's rule is applied by building it (the
        # builder reads the cached ones again) or, where that needs runtime
        # objects, by its check; the rest are the rules no component owns.
        check_policy(self.policy)
        if self.cache_policy not in (CACHE_LRU, CACHE_COST):
            raise ValueError(f"unknown cache policy {self.cache_policy!r}; "
                             f"cache_policy must be {CACHE_COST!r} or {CACHE_LRU!r}")
        self._owned("cache_", check_capacity, "capacity")
        for name in ("omega_fetch", "omega_cache"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {getattr(self, name)}")
        self.noise_model()
        self.hit_history()
        try:
            make_fault_model(self.fault_profile)
        except ValueError as exc:
            raise ValueError(f"fault_profile {self.fault_profile!r}: {exc}") from None
        self.retry_policy
        self.breaker_board()
        if self.failure_mode not in (FAIL_OPEN, FAIL_CLOSED):
            raise ValueError(f"unknown failure mode {self.failure_mode!r}; "
                             f"failure_mode must be {FAIL_CLOSED!r} or {FAIL_OPEN!r}")
        self.batch_policy
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(f"unknown shedding policy {self.shed_policy!r}; shed_policy "
                             f"must be one of {sorted(SHED_POLICIES)}")
        check_bounds(self.latency_bound, self.run_budget)
        if (self.shed_policy != SHED_NONE and self.latency_bound is None
                and self.run_budget is None and not self.slo_in_detector):
            # SLO-consuming detectors may shed on burn rates alone; everything
            # else needs an explicit overload bound to ever trigger.
            raise ValueError(f"shed_policy={self.shed_policy!r} needs --latency-bound, "
                             f"--run-budget, and/or --slo-in-detector")
        if self.shed_event_threshold < 0:
            raise ValueError(f"shed_event_threshold must be non-negative: "
                             f"{self.shed_event_threshold}")
        check_omega(self.omega_shed, "omega_shed")
        if self.series_interval < 0:  # 0 = off
            raise ValueError(f"series_interval must be non-negative: {self.series_interval}")
        if self.slo_spec.empty and self.slo_in_detector:
            raise ValueError("slo_in_detector needs at least one slo_* objective set")

    def _owned(self, prefix: str, build, *params: str, **fixed):
        """``build`` given each parameter ``p`` of ``params`` from the field
        ``prefix + p``; an owner's message starts with ``p``, and is raised
        again naming the field."""
        try:
            return build(**{p: getattr(self, prefix + p) for p in params}, **fixed)
        except ValueError as exc:
            raise ValueError(f"{prefix}{exc}") from None

    @cached_property
    def retry_policy(self) -> RetryPolicy:
        return self._owned("retry_", RetryPolicy,
                           "max_attempts", "backoff_base", "attempt_timeout", "deadline")

    @cached_property
    def batch_policy(self) -> BatchPolicy:
        return self._owned("batch_", BatchPolicy,
                           "window", "max_keys", "fixed_latency", "per_key_latency")

    @cached_property
    def slo_spec(self) -> SloSpec:
        """The ``slo_*`` objectives; empty when none is set."""
        return self._owned("slo_", SloSpec, "latency_bound", "recall_floor", "fetch_budget")

    def breaker_board(self, tracer: Tracer = NULL_TRACER) -> BreakerBoard:
        return self._owned("breaker_", BreakerBoard, "failure_threshold", "cooldown",
                           tracer=tracer)

    def hit_history(self) -> HitHistory:
        """A fresh per-session prefetch outcome history (§5.1)."""
        return self._owned("history_", HitHistory, "reset_after")

    def noise_model(self) -> NoiseModel:
        return self._owned("noise_", NoiseModel, "ratio", seed=self.seed)

    def with_(self, **changes) -> "EiresConfig":
        """A copy with some fields replaced (sweep convenience)."""
        return replace(self, **changes)
