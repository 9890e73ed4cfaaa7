"""Figure 5: overall effectiveness and efficiency for Q1.

Four panels — {cost-based, LRU} cache x {non-greedy, greedy} selection —
each comparing BL1, BL2, BL3, PFetch, LzEval, and Hybrid by the 5th/25th/
50th/75th/95th latency percentiles.

Expected shape (paper §7.2): Hybrid best everywhere; PFetch and LzEval beat
every baseline; under non-greedy selection BL3 beats BL1/BL2 (its one
concurrent fetch round per match beats per-state stalls); under greedy
selection caches matter enormously and BL3's postponement-induced partial
matches make it the worst or near-worst baseline.

``python benchmarks/bench_fig5_q1_overall.py --smoke`` runs every panel on
a 1 500-event stream into ``fig5_q1_overall_smoke.json``, which the bench
regression gate diffs against ``results/baselines/``.
"""

from __future__ import annotations

import sys
from functools import partial

import pytest

from repro import CACHE_COST, CACHE_LRU, EiresConfig, GREEDY, NON_GREEDY
from repro.bench.harness import ALL_STRATEGIES, ExperimentResult, run_strategy
from repro.workloads.synthetic import SyntheticConfig, q1_workload

from figure_smoke import smoke_main

# Calibrated in DESIGN.md: dense-enough per-ID substreams for the 8-step
# sequence, tractable partial-match populations under greedy selection.
Q1_BENCH = SyntheticConfig(n_events=6_000, id_domain=20, window_events=400)
Q1_SMOKE = SyntheticConfig(n_events=1_500, id_domain=20, window_events=400)
# The paper sizes the cache at 10% of the remote key range actually under
# contention; our scaled streams touch ~3k distinct keys, so 100 entries
# (about 3% of them, tighter than the paper's 10%) keeps the cache under
# eviction pressure (a full-keyspace 10k cache would never evict at this
# stream length and mask the policy comparison).
CACHE_CAPACITY = 100

PANELS = [
    ("fig5a_q1_cost_nongreedy", CACHE_COST, NON_GREEDY),
    ("fig5b_q1_lru_nongreedy", CACHE_LRU, NON_GREEDY),
    ("fig5c_q1_cost_greedy", CACHE_COST, GREEDY),
    ("fig5d_q1_lru_greedy", CACHE_LRU, GREEDY),
]


def run_panel(cache_policy: str, policy: str, base: SyntheticConfig = Q1_BENCH) -> list[dict]:
    workload = q1_workload(base)
    config = EiresConfig(
        policy=policy,
        cache_policy=cache_policy,
        cache_capacity=CACHE_CAPACITY,
    )
    rows = []
    for strategy in ALL_STRATEGIES:
        result = run_strategy(workload, strategy, config)
        rows.append(result.summary())
    return rows


@pytest.mark.parametrize("name,cache_policy,policy", PANELS)
def test_fig5_panel(benchmark, report, name, cache_policy, policy):
    rows = benchmark.pedantic(run_panel, args=(cache_policy, policy), rounds=1, iterations=1)
    experiment = ExperimentResult(name, rows)
    report.add(experiment)

    # Shape assertions from §7.2 (loose factors: we reproduce ordering, not
    # absolute numbers).
    by = {row["strategy"]: row for row in rows}
    assert by["Hybrid"]["p50"] <= min(by[s]["p50"] for s in ALL_STRATEGIES) * 1.05
    for eires_strategy in ("PFetch", "LzEval", "Hybrid"):
        for baseline in ("BL1", "BL2", "BL3"):
            assert by[eires_strategy]["p50"] <= by[baseline]["p50"], (
                f"{eires_strategy} should beat {baseline} on Q1 ({name})"
            )
    # All strategies detect the same matches.
    counts = {row["matches"] for row in rows}
    assert len(counts) == 1


if __name__ == "__main__":
    sys.exit(smoke_main("fig5_q1_overall", {
        name: partial(run_panel, cache_policy, policy, Q1_SMOKE)
        for name, cache_policy, policy in PANELS
    }))
