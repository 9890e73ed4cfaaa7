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

from tests.helpers import guard_heavy_workload

_SMALL = {
    "q1": lambda: q1_workload(SyntheticConfig(n_events=600, id_domain=5, window_events=120)),
    "q2": lambda: q2_workload(SyntheticConfig(n_events=700, id_domain=16, window_events=200)),
    "bursty": lambda: bursty_workload(BurstyConfig(n_events=800)),
    "qg": lambda: guard_heavy_workload(
        SyntheticConfig(n_events=600, id_domain=3, window_events=150)
    ),
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
    # Faults on the batched fetch plane: latency spikes on batch wire requests
    # (flaky), and outage bursts that split batches, trip breakers into
    # fast-fails and serve stale values (burst).
    for workload, profile in (("q1", "flaky"), ("q2", "burst")):
        knobs = {"policy": "greedy", **_CONFIGS["tight"], "fault_profile": profile}
        yield f"{workload}-Hybrid-greedy-tight-{profile}", workload, "Hybrid", knobs
    for shed_policy in ("events", "runs"):
        knobs = {"shed_policy": shed_policy, "latency_bound": 20.0}
        yield f"bursty-Hybrid-greedy-shed_{shed_policy}", "bursty", "Hybrid", knobs
    # Local-only: no remote site, so no strategy decision and no utility read.
    yield "qg-BL1-greedy-default", "qg", "BL1", {"policy": "greedy"}
    yield "qg-Hybrid-non_greedy-default", "qg", "Hybrid", {"policy": "non_greedy"}


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


# name -> digest; taken before the batching change and re-pinned twice, each
# time with every run unchanged: once without the ``engine.backend`` metrics
# annotation that was then deleted, and once when the engine's counter group
# joined the metrics snapshot (the earlier runs, with their ``engine.<key>``
# summary columns merged into ``metrics``, give exactly this table).  The two
# ``tight-<fault profile>`` scenarios were pinned later, before the transport's
# single-key and batch wire paths merged into one; the two local-only ``qg``
# scenarios before bucket loops gained their per-call prelude and the utility
# model stopped being driven for automata without a remote site.  All 55 were
# re-pinned when the strategy's copies of the transport's fault counters
# (fetch.fetch_failures, fetch.retries, fetch.breaker_opens) left the summary
# and a blocking round began joining in-flight fetches through submit: with
# those three mapped to their transport.* owners, 33 runs are unchanged; 19
# move only cache.insertions, transport.coalesced and the cache/admit and
# fetch/complete records of the fetches such a round consumes; three
# (q2-Hybrid-greedy-tight, q2-Hybrid-greedy-tight-burst,
# q2-LzEval-greedy-tight) also move batch flushes, stalls and some detection
# times.  Every scenario's match signatures are unchanged.
PINNED: dict[str, str] = {
    "bursty-Hybrid-greedy-shed_events": "359629c604afd8d1",
    "bursty-Hybrid-greedy-shed_runs": "e12c8e9d42189fff",
    "q1-BL1-greedy-default": "3453396be597a62b",
    "q1-BL1-greedy-tight": "3453396be597a62b",
    "q1-BL1-non_greedy-default": "3c1b383acf47178f",
    "q1-BL1-non_greedy-tight": "3c1b383acf47178f",
    "q1-BL2-greedy-default": "a289f20e780a1c3d",
    "q1-BL2-greedy-tight": "07eae90d9259aba2",
    "q1-BL2-non_greedy-default": "693afa3bd9dcde4b",
    "q1-BL2-non_greedy-tight": "1ecda1edfb806d9b",
    "q1-BL3-greedy-default": "e18f59078bc6abad",
    "q1-BL3-greedy-tight": "e18f59078bc6abad",
    "q1-BL3-non_greedy-default": "32491fd1f02a5229",
    "q1-BL3-non_greedy-tight": "32491fd1f02a5229",
    "q1-Hybrid-greedy-default": "0020a27771381572",
    "q1-Hybrid-greedy-drop": "b7145871dda959a4",
    "q1-Hybrid-greedy-tight": "b6bccf058e1c7e32",
    "q1-Hybrid-greedy-tight-flaky": "cf6e99fab57c0900",
    "q1-Hybrid-non_greedy-default": "3f263c018391e68d",
    "q1-Hybrid-non_greedy-tight": "36b97cfbd1574ca6",
    "q1-LzEval-greedy-default": "f7b8800a6a8ef700",
    "q1-LzEval-greedy-tight": "eadc904d85de0545",
    "q1-LzEval-non_greedy-default": "5c36e66a3aea445d",
    "q1-LzEval-non_greedy-tight": "ce9f255bd8a08c77",
    "q1-PFetch-greedy-default": "814c0d759c656345",
    "q1-PFetch-greedy-tight": "127e554a79f91f28",
    "q1-PFetch-non_greedy-default": "fc95a3b084aebb1e",
    "q1-PFetch-non_greedy-tight": "1e7b823c96d88fd7",
    "q2-BL1-greedy-default": "3016cbd0f48ae57b",
    "q2-BL1-greedy-tight": "3016cbd0f48ae57b",
    "q2-BL1-non_greedy-default": "e8900610f9d1a463",
    "q2-BL1-non_greedy-tight": "e8900610f9d1a463",
    "q2-BL2-greedy-default": "08d1f9ca4d6051d2",
    "q2-BL2-greedy-tight": "d04df01002b1b9e3",
    "q2-BL2-non_greedy-default": "3fa66ace37e07e30",
    "q2-BL2-non_greedy-tight": "614cc878bfabc7e6",
    "q2-BL3-greedy-default": "366a056577413dcd",
    "q2-BL3-greedy-tight": "366a056577413dcd",
    "q2-BL3-non_greedy-default": "b05e701eefb4c87a",
    "q2-BL3-non_greedy-tight": "b05e701eefb4c87a",
    "q2-Hybrid-greedy-default": "a489beabe7ea53a6",
    "q2-Hybrid-greedy-tight": "db5335bf53cb4856",
    "q2-Hybrid-greedy-tight-burst": "3a6663b61626bf24",
    "q2-Hybrid-non_greedy-default": "1beb7a2dbaaf5006",
    "q2-Hybrid-non_greedy-tight": "b2621d0142c27706",
    "q2-LzEval-greedy-default": "bab4bec62899e0b4",
    "q2-LzEval-greedy-tight": "38c99b3bb7f5eb16",
    "q2-LzEval-non_greedy-default": "b6a814888e1f34f2",
    "q2-LzEval-non_greedy-tight": "bf5d3816e6fa1ecb",
    "q2-PFetch-greedy-default": "30ed88599e7e57a6",
    "q2-PFetch-greedy-tight": "a2fe0ad219724cfa",
    "q2-PFetch-non_greedy-default": "c75d8dbb00a6a351",
    "q2-PFetch-non_greedy-tight": "92e7bbd47697761b",
    "qg-BL1-greedy-default": "cc9e4a38f819e6bd",
    "qg-Hybrid-non_greedy-default": "ba961f209d41c48c",
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

    def probed(session, event, clock, *rest):
        deliver(session, event, clock, *rest)
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
