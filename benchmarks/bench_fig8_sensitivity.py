"""Figure 8: sensitivity analysis (Q1, cost-based cache, greedy selection).

Three sweeps over PFetch / LzEval / Hybrid:

* **(a) utility-estimation noise** 10%–90% — PFetch is the most sensitive
  (it both prefetches the wrong elements and evicts the wrong ones); LzEval's
  fetch decisions stay accurate, so its low percentiles barely move.
* **(b) cache size** (scaled to the stream's working set) — a larger cache
  forgives wrong prefetches, so PFetch gains the most from capacity.
* **(c) transmission latency** 1–10 up to 1k–10k us — everyone degrades as
  fetches get slower; PFetch degrades fastest because prefetching must
  happen earlier and earlier, on staler predictions.

``python benchmarks/bench_fig8_sensitivity.py --smoke`` runs the three
sweeps on a 1 000-event stream into ``fig8_sensitivity_smoke.json`` (the bench
regression gate's baseline is in ``results/baselines/``).
"""

from __future__ import annotations

import sys

from repro import CACHE_COST, EiresConfig, GREEDY
from repro.bench.harness import ExperimentResult, run_strategy
from repro.workloads.synthetic import SyntheticConfig, q1_workload

from figure_smoke import smoke_main

EIRES_STRATEGIES = ("PFetch", "LzEval", "Hybrid")
# Smaller stream than Fig. 5: each sweep point replays the workload three
# times and greedy selection is expensive.
BASE = SyntheticConfig(n_events=3_000, id_domain=20, window_events=400)
SMOKE = SyntheticConfig(n_events=1_000, id_domain=20, window_events=400)

NOISE_RATIOS = (0.1, 0.3, 0.5, 0.7, 0.9)
# The paper sweeps 1k-5k entries against a key range its runs saturate; our
# scaled stream touches ~1.5k keys, so the equivalent pressure range is a
# few hundred entries (the top of the sweep is comfortably unconstrained,
# matching the paper's 5k point).
CACHE_SIZES = (100, 200, 400, 800, 1_600)
LATENCY_RANGES = ((1.0, 10.0), (10.0, 100.0), (100.0, 1_000.0), (1_000.0, 10_000.0))


def _config(cache_capacity: int = 800, noise: float = 0.0) -> EiresConfig:
    return EiresConfig(
        policy=GREEDY,
        cache_policy=CACHE_COST,
        cache_capacity=cache_capacity,
        noise_ratio=noise,
    )


def sweep_noise(base: SyntheticConfig = BASE) -> list[dict]:
    rows = []
    workload = q1_workload(base)
    for ratio in NOISE_RATIOS:
        for strategy in EIRES_STRATEGIES:
            row = run_strategy(workload, strategy, _config(noise=ratio)).summary()
            row["noise"] = ratio
            rows.append(row)
    return rows


def sweep_cache_size(base: SyntheticConfig = BASE) -> list[dict]:
    rows = []
    workload = q1_workload(base)
    for capacity in CACHE_SIZES:
        for strategy in EIRES_STRATEGIES:
            row = run_strategy(workload, strategy, _config(cache_capacity=capacity)).summary()
            row["cache_size"] = capacity
            rows.append(row)
    return rows


def sweep_transmission_latency(base: SyntheticConfig = BASE) -> list[dict]:
    rows = []
    for low, high in LATENCY_RANGES:
        config = SyntheticConfig(
            n_events=base.n_events,
            id_domain=base.id_domain,
            window_events=base.window_events,
            latency_low_us=low,
            latency_high_us=high,
        )
        workload = q1_workload(config)
        for strategy in EIRES_STRATEGIES:
            row = run_strategy(workload, strategy, _config()).summary()
            row["latency_range"] = f"{low:g}-{high:g}"
            rows.append(row)
    return rows


def test_fig8a_noise(benchmark, report):
    rows = benchmark.pedantic(sweep_noise, rounds=1, iterations=1)
    report.add(
        ExperimentResult("fig8a_noise_sensitivity", rows),
        comparison_metric=None,
        columns=("noise", "strategy", "matches", "p25", "p50", "p75", "p95"),
    )
    by = {(row["noise"], row["strategy"]): row for row in rows}
    # Match sets are invariant to noise.
    assert len({row["matches"] for row in rows}) == 1
    # PFetch degrades with noise: the worst noise level clearly exceeds the best.
    pfetch_p50 = [by[(r, "PFetch")]["p50"] for r in NOISE_RATIOS]
    assert max(pfetch_p50) > min(pfetch_p50)
    # LzEval's median is less noise-sensitive than PFetch's (paper Fig. 8a).
    lz_spread = max(by[(r, "LzEval")]["p50"] for r in NOISE_RATIOS) - min(
        by[(r, "LzEval")]["p50"] for r in NOISE_RATIOS
    )
    pf_spread = max(pfetch_p50) - min(pfetch_p50)
    assert lz_spread <= pf_spread * 1.5


def test_fig8b_cache_size(benchmark, report):
    rows = benchmark.pedantic(sweep_cache_size, rounds=1, iterations=1)
    report.add(
        ExperimentResult("fig8b_cache_size_sensitivity", rows),
        comparison_metric=None,
        columns=("cache_size", "strategy", "matches", "p25", "p50", "p75", "p95"),
    )
    by = {(row["cache_size"], row["strategy"]): row for row in rows}
    for strategy in EIRES_STRATEGIES:
        small = by[(CACHE_SIZES[0], strategy)]["p50"]
        large = by[(CACHE_SIZES[-1], strategy)]["p50"]
        assert large <= small * 1.25, f"{strategy}: larger cache should not hurt"


def test_fig8c_transmission_latency(benchmark, report):
    rows = benchmark.pedantic(sweep_transmission_latency, rounds=1, iterations=1)
    report.add(
        ExperimentResult("fig8c_latency_sensitivity", rows),
        comparison_metric=None,
        columns=("latency_range", "strategy", "matches", "p25", "p50", "p75", "p95"),
    )
    by = {(row["latency_range"], row["strategy"]): row for row in rows}
    for strategy in EIRES_STRATEGIES:
        fastest = by[("1-10", strategy)]["p95"]
        slowest = by[("1000-10000", strategy)]["p95"]
        assert slowest > fastest, f"{strategy}: latency sweep must show degradation"


if __name__ == "__main__":
    sys.exit(smoke_main("fig8_sensitivity", {
        "fig8a": lambda: sweep_noise(SMOKE),
        "fig8b": lambda: sweep_cache_size(SMOKE),
        "fig8c": lambda: sweep_transmission_latency(SMOKE),
    }))
