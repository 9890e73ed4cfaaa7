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
import json

import pytest

from repro.bench.harness import ALL_STRATEGIES, run_strategy
from repro.core.config import EiresConfig
from repro.obs.trace import MemorySink, Tracer
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


# name -> digest at the parent of the batching change.
PINNED: dict[str, str] = {
    "bursty-Hybrid-greedy-shed_events": "f6a8a7b44b4388a0",
    "bursty-Hybrid-greedy-shed_runs": "46cec3e5ce96eec5",
    "q1-BL1-greedy-default": "d69a65cab9923211",
    "q1-BL1-greedy-tight": "d69a65cab9923211",
    "q1-BL1-non_greedy-default": "51d5fda9a0a38ebd",
    "q1-BL1-non_greedy-tight": "51d5fda9a0a38ebd",
    "q1-BL2-greedy-default": "e6ea0176c2ec7422",
    "q1-BL2-greedy-tight": "1caec62a390f9dcc",
    "q1-BL2-non_greedy-default": "5cc496e205e31a31",
    "q1-BL2-non_greedy-tight": "56a2ce6a5c5be293",
    "q1-BL3-greedy-default": "93ed012c1544a198",
    "q1-BL3-greedy-tight": "93ed012c1544a198",
    "q1-BL3-non_greedy-default": "7fb29b92e381fa7c",
    "q1-BL3-non_greedy-tight": "7fb29b92e381fa7c",
    "q1-Hybrid-greedy-default": "c694a970b864abcf",
    "q1-Hybrid-greedy-drop": "47b96fd256e27aeb",
    "q1-Hybrid-greedy-tight": "eabd88aef0fdc372",
    "q1-Hybrid-non_greedy-default": "940b4db981292bb6",
    "q1-Hybrid-non_greedy-tight": "6524b7100859397c",
    "q1-LzEval-greedy-default": "80541f9583ee3394",
    "q1-LzEval-greedy-tight": "70ce0ecd52ac69bf",
    "q1-LzEval-non_greedy-default": "016c4e797dcce578",
    "q1-LzEval-non_greedy-tight": "19e2427e83372940",
    "q1-PFetch-greedy-default": "7c1c68409b1fa801",
    "q1-PFetch-greedy-tight": "32d02c970c3fe63b",
    "q1-PFetch-non_greedy-default": "d00605bba221b736",
    "q1-PFetch-non_greedy-tight": "04b4d82671221dfc",
    "q2-BL1-greedy-default": "540511cbcaad5a5b",
    "q2-BL1-greedy-tight": "540511cbcaad5a5b",
    "q2-BL1-non_greedy-default": "acb4710e18744fd5",
    "q2-BL1-non_greedy-tight": "acb4710e18744fd5",
    "q2-BL2-greedy-default": "80d0e0fdcbc11d2b",
    "q2-BL2-greedy-tight": "4e0a7e00d4981fdb",
    "q2-BL2-non_greedy-default": "75c487c560f0d85f",
    "q2-BL2-non_greedy-tight": "27e25d2c55b26be7",
    "q2-BL3-greedy-default": "8c5d15b6fc8f043e",
    "q2-BL3-greedy-tight": "8c5d15b6fc8f043e",
    "q2-BL3-non_greedy-default": "627f66cefd604dc3",
    "q2-BL3-non_greedy-tight": "627f66cefd604dc3",
    "q2-Hybrid-greedy-default": "17180a6f591ae565",
    "q2-Hybrid-greedy-tight": "576f24afccbd2734",
    "q2-Hybrid-non_greedy-default": "130406133f242aec",
    "q2-Hybrid-non_greedy-tight": "a43d2f22d0a01b50",
    "q2-LzEval-greedy-default": "61b62a22292c3ab9",
    "q2-LzEval-greedy-tight": "56a029c51411f17f",
    "q2-LzEval-non_greedy-default": "37b6f5980bba8935",
    "q2-LzEval-non_greedy-tight": "28618dd3e1431d72",
    "q2-PFetch-greedy-default": "8767dab97822bdb9",
    "q2-PFetch-greedy-tight": "6b81cbaa1e2867c0",
    "q2-PFetch-non_greedy-default": "d74486e984ad4159",
    "q2-PFetch-non_greedy-tight": "488925002dc5affb",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_is_byte_identical_to_the_pinned_digest(name):
    assert digest_of(name) == PINNED[name]


if __name__ == "__main__":
    for scenario in sorted(SCENARIOS):
        print(f'    "{scenario}": "{digest_of(scenario)}",')
