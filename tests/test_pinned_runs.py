"""Whole runs pinned by digest: summary, metrics and the full trace stream.

Refactors of the engine↔strategy boundary promise "same floats, same trace":
no charge, registration, prefetch probe or drop is reordered.  The digests
below were taken at the commit *before* the per-run path was batched (PR 17's
tree) and must not move: every scenario hashes its summary, its metrics
snapshot and every trace record, so one reordered ``run/create`` or one float
added in a different order anywhere in a run changes a digest.

A behaviour change re-pins exactly the scenarios it is meant to move, in its
own commit, and says so — ``python tests/test_pinned_runs.py`` prints the
current table.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import time

import pytest

from repro.bench.harness import ALL_STRATEGIES, run_strategy
from repro.core.config import EiresConfig
from repro.obs.trace import MemorySink, Tracer
from repro.shedding.policy import event_utility, partial_match_utility
from repro.utility.model import required_keys
from repro.workloads.bursty import BurstyConfig, bursty_workload
from repro.workloads.synthetic import SyntheticConfig, q1_workload, q2_workload

_SMALL = {
    "q1": lambda: q1_workload(SyntheticConfig(n_events=600, id_domain=5, window_events=120)),
    "q2": lambda: q2_workload(SyntheticConfig(n_events=700, id_domain=16, window_events=200)),
    "bursty": lambda: bursty_workload(BurstyConfig(n_events=800)),
}
_CONFIGS = {
    "default": {},
    # A cache far below the working set plus batching: evictions, Eq. 7
    # suppressions, batch windows closed by blocking needs.
    "tight": {"cache_capacity": 40, "batch_window": 50.0, "batch_max_keys": 8},
}


def _scenarios():
    for workload in ("q1", "q2"):
        for strategy in ALL_STRATEGIES:
            for policy in ("greedy", "non_greedy"):
                for label, knobs in _CONFIGS.items():
                    name = f"{workload}-{strategy}-{policy}-{label}"
                    yield name, workload, strategy, {"policy": policy, **knobs}
    yield "q1-Hybrid-greedy-drop", "q1", "Hybrid", {"fault_profile": "drop:0.05"}
    for shed_policy in ("events", "runs"):
        knobs = {"shed_policy": shed_policy, "latency_bound": 20.0}
        yield f"bursty-Hybrid-greedy-shed_{shed_policy}", "bursty", "Hybrid", knobs


SCENARIOS = {name: rest for name, *rest in _scenarios()}


def digest_of(name: str) -> str:
    """blake2s over everything the scenario's run makes observable."""
    workload, strategy, knobs = SCENARIOS[name]
    sink = MemorySink()
    result = run_strategy(_SMALL[workload](), strategy, EiresConfig(**knobs), tracer=Tracer(sink))
    assert sink.records, "the traced scenario produced no records"
    observed = {
        "summary": result.summary(),
        "metrics": result.metrics,
        "matches": [
            (match.signature(), match.detected_at, match.last_event_t, match.fetch_wait)
            for match in result.matches
        ],
        "trace": sink.records,
    }
    text = json.dumps(observed, sort_keys=True, default=repr)
    return hashlib.blake2s(text.encode(), digest_size=8).hexdigest()


# name -> digest; taken at the parent of the batching change (PR 20) and re-pinned
# once (PR 21), at unchanged src/, without the ``engine.backend`` metrics
# annotation that PR then deleted — the only key the re-pin is attributable to.
PINNED: dict[str, str] = {
    "bursty-Hybrid-greedy-shed_events": "20359de6b2c62a87",
    "bursty-Hybrid-greedy-shed_runs": "d083dbe83546cdb4",
    "q1-BL1-greedy-default": "28400a73852690ac",
    "q1-BL1-greedy-tight": "28400a73852690ac",
    "q1-BL1-non_greedy-default": "bf7cb853aa636bdb",
    "q1-BL1-non_greedy-tight": "bf7cb853aa636bdb",
    "q1-BL2-greedy-default": "7f025ea07c80c367",
    "q1-BL2-greedy-tight": "cb350b2eda235203",
    "q1-BL2-non_greedy-default": "7f56c8549de8b03a",
    "q1-BL2-non_greedy-tight": "3631037ba9792e2a",
    "q1-BL3-greedy-default": "a3e9e6361c2c9bf1",
    "q1-BL3-greedy-tight": "a3e9e6361c2c9bf1",
    "q1-BL3-non_greedy-default": "9647537b063d482d",
    "q1-BL3-non_greedy-tight": "9647537b063d482d",
    "q1-Hybrid-greedy-default": "79844fdb02a698de",
    "q1-Hybrid-greedy-drop": "fb3d3b790f2e14bc",
    "q1-Hybrid-greedy-tight": "70cf7ec843eba5de",
    "q1-Hybrid-non_greedy-default": "56351bc10c674b98",
    "q1-Hybrid-non_greedy-tight": "6705ecbdc3b38cf2",
    "q1-LzEval-greedy-default": "5516097cd245e0af",
    "q1-LzEval-greedy-tight": "008f582172f4fa07",
    "q1-LzEval-non_greedy-default": "aaa4b61b5d846e09",
    "q1-LzEval-non_greedy-tight": "811a0a07c05cf409",
    "q1-PFetch-greedy-default": "03a2da93c447e4df",
    "q1-PFetch-greedy-tight": "e037900b88d55697",
    "q1-PFetch-non_greedy-default": "6132dd3b0d8360e9",
    "q1-PFetch-non_greedy-tight": "ca55a8ae7e68fd1e",
    "q2-BL1-greedy-default": "62dbb5768b05bc8c",
    "q2-BL1-greedy-tight": "62dbb5768b05bc8c",
    "q2-BL1-non_greedy-default": "a5eaa18ca486dbe2",
    "q2-BL1-non_greedy-tight": "a5eaa18ca486dbe2",
    "q2-BL2-greedy-default": "1654195b36364975",
    "q2-BL2-greedy-tight": "0411229af78f267c",
    "q2-BL2-non_greedy-default": "6e0c3d105ed123c3",
    "q2-BL2-non_greedy-tight": "895225d442e55b67",
    "q2-BL3-greedy-default": "f0f00d86840e5e31",
    "q2-BL3-greedy-tight": "f0f00d86840e5e31",
    "q2-BL3-non_greedy-default": "d484cefd1f56a0e1",
    "q2-BL3-non_greedy-tight": "d484cefd1f56a0e1",
    "q2-Hybrid-greedy-default": "a619c3446959e26b",
    "q2-Hybrid-greedy-tight": "c26f048c7493a390",
    "q2-Hybrid-non_greedy-default": "75bf01ac217b8035",
    "q2-Hybrid-non_greedy-tight": "b1817cbb6243ce0b",
    "q2-LzEval-greedy-default": "de2ae9354b2715b4",
    "q2-LzEval-greedy-tight": "0b3105a69ac50dc5",
    "q2-LzEval-non_greedy-default": "c024be2bc6c6b2ec",
    "q2-LzEval-non_greedy-tight": "fb5f583d2be51882",
    "q2-PFetch-greedy-default": "baaa831da72eaced",
    "q2-PFetch-greedy-tight": "113fe103cfa284d4",
    "q2-PFetch-non_greedy-default": "577d5f4fc3d06517",
    "q2-PFetch-non_greedy-tight": "a56de7479d6caf82",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_is_byte_identical_to_the_pinned_digest(name):
    assert digest_of(name) == PINNED[name]


_WALL_CLOCKS = ("time", "monotonic", "perf_counter", "process_time")
_AMBIENT_RNG = ("random", "randint", "choice", "shuffle", "uniform", "sample", "gauss",
                "randrange")


def test_replays_read_no_wall_clock_and_no_ambient_rng(monkeypatch):
    """The dynamic half of rules D1/D2, and the only check on a clock or RNG
    read that reaches a result through a helper those rules do not see: four
    scenarios spanning the planes (cache pressure + batching, non-greedy
    prefetch, run shedding, transport faults) replay to their pinned digests
    with every wall-clock read and every module-level ``random`` draw raising."""

    def forbid(module, attr):
        def raiser(*args, **kwargs):
            raise AssertionError(f"{module.__name__}.{attr}() called during a replay")

        monkeypatch.setattr(module, attr, raiser)

    for attr in _WALL_CLOCKS:
        forbid(time, attr)
        forbid(time, f"{attr}_ns")
    for attr in _AMBIENT_RNG:
        forbid(random, attr)
    for name in (
        "q1-Hybrid-greedy-tight",
        "q2-PFetch-non_greedy-tight",
        "bursty-Hybrid-greedy-shed_runs",
        "q1-Hybrid-greedy-drop",
    ):
        assert digest_of(name) == PINNED[name], name


def _resident(session):
    cache = session.strategy.ctx.cache
    return cache.keys() if cache is not None else []


def _edges(session):
    return [t for state in session.automaton.states for t in state.transitions]


# The scoring surface the Eq. 7 gate, the cost-based cache and the shedders
# consult speculatively (eSPICE: utilities are read for every event, acted on
# for few): each entry is promised free of consequences, and maps to how the
# replay below calls it on top of whatever the run itself does.
CONSEQUENCE_FREE = {
    "utility.model.required_keys": lambda s, event, now: [
        required_keys(run, deep) for run in s.engine.iter_runs() for deep in (False, True)],
    "UtilityModel.terms": lambda s, event, now: [
        s.utility.terms(key) for key in _resident(s)],
    "UtilityModel.urgent_utility": lambda s, event, now: [
        s.utility.urgent_utility(key) for key in _resident(s)],
    "UtilityModel.future_utility": lambda s, event, now: [
        s.utility.future_utility(key) for key in _resident(s)],
    "UtilityModel.value": lambda s, event, now: [
        s.utility.value(key, s.strategy.ctx.omega_fetch) for key in _resident(s)],
    "UtilityModel.class_count": lambda s, event, now: [
        s.utility.class_count(index) for index in range(s.automaton.n_states)],
    "RateEstimator.event_rate": lambda s, event, now: [s.rates.event_rate()],
    "RateEstimator.type_rate": lambda s, event, now: [s.rates.type_rate(event.event_type)],
    "RateEstimator.extension_rate": lambda s, event, now: [
        s.rates.extension_rate(t.index, t.event_type) for t in _edges(s)],
    "RateEstimator.expected_gap": lambda s, event, now: [
        s.rates.expected_gap(t.index, t.event_type) for t in _edges(s)],
    "shedding.policy.partial_match_utility": lambda s, event, now: [
        partial_match_utility(run, s.automaton, now, s.engine.stats.events_processed, 0.5)
        for run in s.engine.iter_runs()],
    "shedding.policy.event_utility": lambda s, event, now: [
        event_utility(event, s.engine, s.automaton)],
}


# The module, not the function ``repro.runtime`` re-exports under its name.
_DISPATCH = importlib.import_module("repro.runtime.dispatch")


def _digest_with_speculative_calls(monkeypatch, name, functions):
    """``digest_of(name)`` with every function in ``functions`` additionally
    called after each delivered event, results discarded; returns the digest
    and how many calls each function received."""
    calls = dict.fromkeys(functions, 0)
    deliver = _DISPATCH.deliver_event

    def probed(session, event, index, clock, *rest):
        deliver(session, event, index, clock, *rest)
        for function in functions:
            calls[function] += len(CONSEQUENCE_FREE[function](session, event, clock.now))

    with monkeypatch.context() as patch:
        patch.setattr(_DISPATCH, "deliver_event", probed)
        return digest_of(name), calls


@pytest.mark.parametrize("name", ["q2-Hybrid-greedy-tight", "bursty-Hybrid-greedy-shed_runs"])
def test_scoring_surface_is_consequence_free(monkeypatch, name):
    """A run that scores every resident cache key and every live partial match
    after every event — and throws the scores away — is the pinned run: one
    with the cost-based cache evicting under pressure, one shedding runs."""
    digest, calls = _digest_with_speculative_calls(monkeypatch, name, sorted(CONSEQUENCE_FREE))
    assert all(calls.values()), f"never exercised: {[f for f, n in calls.items() if not n]}"
    if digest != PINNED[name]:
        plain = digest_of(name)
        culprits = [
            function for function in sorted(CONSEQUENCE_FREE)
            if _digest_with_speculative_calls(monkeypatch, name, [function])[0] != plain
        ]
        pytest.fail(f"{name}: speculative calls to {culprits} changed the run")


if __name__ == "__main__":
    for scenario in sorted(SCENARIOS):
        print(f'    "{scenario}": "{digest_of(scenario)}",')
