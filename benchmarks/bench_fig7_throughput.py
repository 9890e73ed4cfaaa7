"""Figure 7: throughput for Q1 under non-greedy selection.

Events processed per (virtual) second for all six strategies, under the
cost-based and the LRU cache.  The paper: "throughput performance is largely
in line with the observed latencies" — strategies that stall less process
more events per second.

``python benchmarks/bench_fig7_throughput.py --smoke`` runs both panels on a
1 500-event stream into ``fig7_throughput_smoke.json`` (the bench regression
gate's baseline is in ``results/baselines/``).
"""

from __future__ import annotations

import sys
from functools import partial

import pytest

from repro import CACHE_COST, CACHE_LRU, EiresConfig, NON_GREEDY
from repro.bench.harness import ALL_STRATEGIES, ExperimentResult, run_strategy
from repro.workloads.synthetic import SyntheticConfig, q1_workload

from figure_smoke import smoke_main

# Throughput is a *service-rate* measure: the paper replays the stream as
# fast as the engine can drain it.  A high arrival rate (mean gap 4 us)
# makes the engine/fetch path the bottleneck for every strategy, so the
# events-per-second figures reflect processing capacity rather than the
# arrival rate.
Q1_BENCH = SyntheticConfig(
    n_events=6_000, id_domain=20, window_events=400, mean_gap_us=4.0
)
Q1_SMOKE = SyntheticConfig(
    n_events=1_500, id_domain=20, window_events=400, mean_gap_us=4.0
)
CACHE_CAPACITY = 100  # scaled eviction pressure; see bench_fig5 comment

PANELS = [
    ("fig7a_throughput_cost", CACHE_COST),
    ("fig7b_throughput_lru", CACHE_LRU),
]


def run_panel(cache_policy: str, base: SyntheticConfig = Q1_BENCH) -> list[dict]:
    workload = q1_workload(base)
    config = EiresConfig(
        policy=NON_GREEDY,
        cache_policy=cache_policy,
        cache_capacity=CACHE_CAPACITY,
    )
    return [run_strategy(workload, strategy, config).summary() for strategy in ALL_STRATEGIES]


@pytest.mark.parametrize("name,cache_policy", PANELS)
def test_fig7_panel(benchmark, report, name, cache_policy):
    rows = benchmark.pedantic(run_panel, args=(cache_policy,), rounds=1, iterations=1)
    experiment = ExperimentResult(name, rows)
    report.add(experiment, comparison_metric="throughput_eps",
               columns=("strategy", "matches", "throughput_eps", "p50", "p95"),
               higher_is_better=True)

    by = {row["strategy"]: row for row in rows}
    # LzEval and Hybrid (no mid-stream stalls at all) out-process every
    # baseline; PFetch beats the stall-per-miss baselines BL1/BL2.  BL3's
    # *throughput* can rival PFetch's — its stalls are deferred and batched —
    # even though its latency is far worse (paper: "largely in line with the
    # observed latencies", with deviations like this one).
    best_baseline = max(by[s]["throughput_eps"] for s in ("BL1", "BL2", "BL3"))
    for eires_strategy in ("LzEval", "Hybrid"):
        assert by[eires_strategy]["throughput_eps"] >= best_baseline * 0.95
    for baseline in ("BL1", "BL2"):
        assert by["PFetch"]["throughput_eps"] >= by[baseline]["throughput_eps"]
    # BL1 (stall per need, no reuse) is the slowest.
    assert by["BL1"]["throughput_eps"] == min(row["throughput_eps"] for row in rows)


if __name__ == "__main__":
    sys.exit(smoke_main("fig7_throughput", {
        name: partial(run_panel, cache_policy, Q1_SMOKE) for name, cache_policy in PANELS
    }))
