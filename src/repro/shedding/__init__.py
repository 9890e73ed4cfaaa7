"""Utility-aware load shedding: bounded detection latency under overload.

The overload-control plane in three parts, assembled exclusively by the
composition root (:class:`~repro.runtime.builder.RuntimeBuilder`):

* :mod:`repro.shedding.detector` — samples per-event queueing lag (virtual
  time) and the live partial-match population against configured bounds;
* :mod:`repro.shedding.policy` — the registry of shedding policies:
  ``none`` (no plane at all), ``events`` (eSPICE-style
  input-event shedding), ``runs`` (pSPICE-style Eq. 5 utility-scored
  partial-match eviction);
* :mod:`repro.shedding.shedder` — the per-session unit the dispatch loop
  consults, with registered ``shed.*`` counters and replay-verifiable
  ``shed_decision`` trace records.

See ``docs/shedding.md`` for the full model and knobs.
"""

from repro.shedding.detector import Overload, OverloadDetector
from repro.shedding.policy import (
    SHED_EVENTS,
    SHED_NONE,
    SHED_POLICIES,
    SHED_RUNS,
    EventShedding,
    RunShedding,
    ShedDecision,
    SheddingPolicy,
    event_utility,
    make_shedding_policy,
    partial_match_utility,
)
from repro.shedding.shedder import SHED_COUNTER_KEYS, LoadShedder

__all__ = [
    "Overload",
    "OverloadDetector",
    "SHED_NONE",
    "SHED_EVENTS",
    "SHED_RUNS",
    "SHED_POLICIES",
    "SHED_COUNTER_KEYS",
    "SheddingPolicy",
    "ShedDecision",
    "EventShedding",
    "RunShedding",
    "make_shedding_policy",
    "partial_match_utility",
    "event_utility",
    "LoadShedder",
]
