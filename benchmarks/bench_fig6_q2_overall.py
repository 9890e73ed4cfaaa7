"""Figure 6: overall effectiveness and efficiency for Q2.

Same grid as Fig. 5, on the disjunction-of-sequences query with one remote
reference per branch.  The paper's headline contrast with Q1: among the
baselines, BL3 wins on Q1 but *loses* on Q2 — ignoring remote predicates on
Q2's lightly-guarded branches inflates the partial-match population, and
without a cache every completed candidate pays a fetch round.

``python benchmarks/bench_fig6_q2_overall.py --smoke`` runs every panel on
a 1 500-event stream into ``fig6_q2_overall_smoke.json`` (the bench
regression gate's baseline is in ``results/baselines/``).
"""

from __future__ import annotations

import sys
from functools import partial

import pytest

from repro import CACHE_COST, CACHE_LRU, EiresConfig, GREEDY, NON_GREEDY
from repro.bench.harness import ALL_STRATEGIES, ExperimentResult, run_strategy
from repro.workloads.synthetic import SyntheticConfig, q2_workload

from figure_smoke import smoke_main

Q2_BENCH = SyntheticConfig(n_events=6_000, id_domain=40, window_events=400)
Q2_SMOKE = SyntheticConfig(n_events=1_500, id_domain=40, window_events=400)
CACHE_CAPACITY = 200  # scaled eviction pressure (Q2 touches two keys per root run)

PANELS = [
    ("fig6a_q2_cost_nongreedy", CACHE_COST, NON_GREEDY),
    ("fig6b_q2_lru_nongreedy", CACHE_LRU, NON_GREEDY),
    ("fig6c_q2_cost_greedy", CACHE_COST, GREEDY),
    ("fig6d_q2_lru_greedy", CACHE_LRU, GREEDY),
]


def run_panel(cache_policy: str, policy: str, base: SyntheticConfig = Q2_BENCH) -> list[dict]:
    workload = q2_workload(base)
    config = EiresConfig(
        policy=policy,
        cache_policy=cache_policy,
        cache_capacity=CACHE_CAPACITY,
    )
    return [run_strategy(workload, strategy, config).summary() for strategy in ALL_STRATEGIES]


@pytest.mark.parametrize("name,cache_policy,policy", PANELS)
def test_fig6_panel(benchmark, report, name, cache_policy, policy):
    rows = benchmark.pedantic(run_panel, args=(cache_policy, policy), rounds=1, iterations=1)
    experiment = ExperimentResult(name, rows)
    report.add(experiment)

    by = {row["strategy"]: row for row in rows}
    assert by["Hybrid"]["p50"] <= min(by[s]["p50"] for s in ALL_STRATEGIES) * 1.05
    for eires_strategy in ("PFetch", "LzEval", "Hybrid"):
        for baseline in ("BL1", "BL2", "BL3"):
            assert by[eires_strategy]["p50"] <= by[baseline]["p50"], (
                f"{eires_strategy} should beat {baseline} on Q2 ({name})"
            )
    if policy == GREEDY:
        # The Q1/Q2 contrast: BL3's postponement hurts it on Q2 (§7.2).
        assert by["BL3"]["p50"] > by["BL2"]["p50"]
    counts = {row["matches"] for row in rows}
    assert len(counts) == 1


if __name__ == "__main__":
    sys.exit(smoke_main("fig6_q2_overall", {
        name: partial(run_panel, cache_policy, policy, Q2_SMOKE)
        for name, cache_policy, policy in PANELS
    }))
