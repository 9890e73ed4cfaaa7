"""The per-session shedding unit: detector + policy + accounting.

A :class:`LoadShedder` is attached to a
:class:`~repro.runtime.session.QuerySession` by the composition root
(:class:`~repro.runtime.builder.RuntimeBuilder` — nothing else may build
one, enforced by rule A5 of ``tests/test_invariants.py``) and consulted by the dispatch loop at
two points per input event:

* :meth:`before_event` — may drop the input event for this session
  (eSPICE-style shedding happens *before* NFA evaluation, so a dropped
  event costs neither guard evaluations nor fresh partial matches);
* :meth:`after_event` — may evict partial matches from the engine
  (pSPICE-style shedding happens *after* the step, when the population
  reflects the event's effect).

Every consult samples the :class:`~repro.shedding.detector.OverloadDetector`
with the event's queueing lag and the engine's live-run count; policies are
only asked anything while overloaded, so the healthy path costs two
comparisons.  Actions are counted on registered ``shed.*`` metrics and
emitted as ``shed_decision`` trace records carrying the detector inputs, so
:func:`repro.obs.provenance.verify_shed_record` can replay each decision.  A
session shared by several queries emits one record per query, each naming
it, as the dispatch loop does for ``match`` and ``span`` records.
"""

from __future__ import annotations

from typing import Any

from repro.obs.registry import CounterGroup, MetricsRegistry, ScopedRegistry
from repro.obs.trace import CAT_SHED, NULL_TRACER, Tracer
from repro.shedding.detector import OverloadDetector
from repro.shedding.policy import ACTION_DROP_EVENT, ACTION_SHED_RUNS, SheddingPolicy

__all__ = ["SHED_COUNTER_KEYS", "LoadShedder"]

#: The ``shed.*`` counters, in report order.
SHED_COUNTER_KEYS = (
    "overloads",
    "events_dropped",
    "runs_shed",
)


class LoadShedder:
    """Overload control for one query session."""

    __slots__ = ("detector", "policy", "stats", "_clock", "_tracer", "_labels")

    def __init__(
        self,
        detector: OverloadDetector,
        policy: SheddingPolicy,
        clock,
        metrics: MetricsRegistry | ScopedRegistry | None = None,
        tracer: Tracer = NULL_TRACER,
        labels: tuple[str, ...] = ("",),
    ) -> None:
        self.detector = detector
        self.policy = policy
        self.stats = CounterGroup("shed", SHED_COUNTER_KEYS, metrics)
        self._clock = clock
        self._tracer = tracer
        self._labels = labels

    # -- dispatch hooks -------------------------------------------------------
    def before_event(self, event, engine) -> bool:
        """Whether this session should drop ``event`` (skip NFA evaluation)."""
        now = self._clock.now
        overload = self.detector.assess(now - event.t, engine.active_runs, now)
        if overload is None:
            return False
        self.stats.overloads += 1
        decision = self.policy.on_overload_event(overload, event, engine)
        if decision is None:
            return False
        self.stats.events_dropped += 1
        self._trace(decision.action, overload, decision.fields)
        return True

    def after_event(self, event, engine, strategy) -> int:
        """Evict partial matches if the policy says so; returns the count."""
        now = self._clock.now
        overload = self.detector.assess(now - event.t, engine.active_runs, now)
        if overload is None:
            return 0
        self.stats.overloads += 1
        decision = self.policy.on_overload_post(overload, engine, strategy)
        if decision is None:
            return 0
        victims = int(decision.fields.get("victims", 0))
        self.stats.runs_shed += victims
        self._trace(decision.action, overload, decision.fields)
        return victims

    # -- tracing --------------------------------------------------------------
    def _trace(self, action: str, overload, fields: dict[str, Any]) -> None:
        tracer = self._tracer
        if tracer.enabled:
            for label in self._labels:
                record: dict[str, Any] = {
                    "policy": self.policy.name,
                    "action": action,
                    "lag": overload.lag,
                    "latency_bound": self.detector.latency_bound,
                    "active": overload.active,
                    "run_budget": self.detector.run_budget,
                }
                if self.detector.slo is not None:
                    # Only SLO-consuming detectors stamp the burn: existing
                    # traces (and their goldens) keep their exact field set.
                    record["slo_burn"] = overload.slo_burn
                if label:
                    record["query"] = label
                record.update(fields)
                tracer.emit(CAT_SHED, "shed_decision", self._clock.now, **record)

    def __repr__(self) -> str:
        return f"LoadShedder({self.policy.name}, {self.detector!r})"


# Re-exported action names for dispatch-side checks and tests.
__all__ += ["ACTION_DROP_EVENT", "ACTION_SHED_RUNS"]
