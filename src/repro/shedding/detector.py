"""Overload detection for the load-shedding plane.

Overload is observable entirely in virtual time: the dispatch loop advances
the shared clock to each event's arrival time *or later* — when an engine is
behind (stalled on remote data, or drowning in partial matches), the clock
has already moved past the event's timestamp and the difference is exactly
the queueing delay the event suffered (§2.2's detection-latency
decomposition).  The detector samples that lag, plus the engine's active
partial-match population, against two configured bounds:

* ``latency_bound`` — the maximum tolerable queueing delay in virtual us
  (the eSPICE-style latency bound: beyond it, input events are worth less
  than the delay they add);
* ``run_budget`` — the maximum tolerable number of live partial matches
  (the pSPICE-style state budget: beyond it, per-event evaluation cost
  itself breaks the latency bound).

Either bound may be ``None`` (unmonitored).  An optional
:class:`~repro.obs.slo.SloPlane` adds a third trigger: when the plane's
worst burn rate exceeds 1.0 — some declared objective (end-to-end latency
percentile, recall floor, fetch budget) is being violated — the detector
reports overload even while the raw lag/population samples look healthy.
``assess`` is a pure function of its inputs and the SLO plane's recorded
observations — no RNG, no wall clock — so shedding decisions replay
byte-identically and their trace records can be verified offline
(:func:`repro.obs.provenance.verify_shed_record`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Overload", "OverloadDetector", "check_bounds"]


@dataclass(frozen=True)
class Overload:
    """One positive overload assessment (inputs and which bounds tripped).

    ``severity`` is how far past the worst bound the sample sits, as a
    ratio (> 1.0 by construction): ``max(lag/latency_bound,
    active/run_budget, slo_burn)`` over the configured bounds.  Policies
    use it to scale how aggressively they shed.  ``slo_burn`` is 0.0
    unless the detector consults an SLO plane.
    """

    lag: float
    active: int
    latency_exceeded: bool
    budget_exceeded: bool
    severity: float
    slo_burn: float = 0.0
    slo_exceeded: bool = False

    @property
    def both(self) -> bool:
        return self.latency_exceeded and self.budget_exceeded


def check_bounds(latency_bound: float | None, run_budget: int | None) -> None:
    """The overload bounds' rules, applied at construction and by the config."""
    if latency_bound is not None and latency_bound <= 0:
        raise ValueError(f"latency_bound must be positive: {latency_bound}")
    if run_budget is not None and run_budget < 1:
        raise ValueError(f"run_budget must be >= 1: {run_budget}")


class OverloadDetector:
    """Samples (queueing lag, active runs) against the configured bounds.

    ``slo`` is an optional :class:`~repro.obs.slo.SloPlane`; when attached,
    a worst burn rate above 1.0 is itself an overload signal and folds into
    the severity (the plane caches its burn computation, so the per-event
    cost of consulting it is one comparison between refreshes).
    """

    __slots__ = ("latency_bound", "run_budget", "slo")

    def __init__(
        self,
        latency_bound: float | None = None,
        run_budget: int | None = None,
        slo=None,
    ) -> None:
        check_bounds(latency_bound, run_budget)
        if latency_bound is None and run_budget is None and slo is None:
            raise ValueError("an overload detector needs at least one bound")
        self.latency_bound = latency_bound
        self.run_budget = run_budget
        self.slo = slo

    def assess(self, lag: float, active: int, now: float | None = None) -> Overload | None:
        """The overload state for one sample, or ``None`` when within bounds.

        ``now`` (the sample's virtual time) is only needed when an SLO
        plane is attached; callers without one may omit it.
        """
        latency_exceeded = self.latency_bound is not None and lag > self.latency_bound
        budget_exceeded = self.run_budget is not None and active > self.run_budget
        slo_burn = 0.0
        if self.slo is not None and now is not None:
            slo_burn = self.slo.worst_burn(now)
        slo_exceeded = slo_burn > 1.0
        if not latency_exceeded and not budget_exceeded and not slo_exceeded:
            return None
        severity = 0.0
        if self.latency_bound is not None:
            severity = lag / self.latency_bound
        if self.run_budget is not None:
            severity = max(severity, active / self.run_budget)
        severity = max(severity, slo_burn)
        return Overload(
            lag=lag,
            active=active,
            latency_exceeded=latency_exceeded,
            budget_exceeded=budget_exceeded,
            severity=severity,
            slo_burn=slo_burn,
            slo_exceeded=slo_exceeded,
        )

    def __repr__(self) -> str:
        return (
            f"OverloadDetector(latency_bound={self.latency_bound}, "
            f"run_budget={self.run_budget}, slo={'on' if self.slo is not None else 'off'})"
        )
