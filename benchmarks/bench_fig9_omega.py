"""Figure 9: sensitivity of the utility weighting factor omega (Eq. 5).

(a) sweep ``omega_fetch`` 0.1–0.9 with ``omega_cache`` fixed at 0.5;
(b) sweep ``omega_cache`` 0.1–0.9 with ``omega_fetch`` fixed at 0.7.

The paper reports optimal performance around ``omega_fetch = 0.7`` and
``omega_cache = 0.5``, with a broad robust plateau — any weighting that
emphasises the urgent demand without ignoring future usage works; the
assertions below check the plateau property (no extreme beats the middle
dramatically) rather than an exact optimum, which is noise-sensitive.

``python benchmarks/bench_fig9_omega.py --smoke`` runs both sweeps on a
1 000-event stream into ``fig9_omega_smoke.json`` (the bench regression gate's
baseline is in ``results/baselines/``).
"""

from __future__ import annotations

import sys

from repro import CACHE_COST, EiresConfig, GREEDY
from repro.bench.harness import ExperimentResult, run_strategy
from repro.workloads.synthetic import SyntheticConfig, q1_workload

from figure_smoke import smoke_main

OMEGAS = (0.1, 0.3, 0.5, 0.7, 0.9)
BASE = SyntheticConfig(n_events=3_000, id_domain=20, window_events=400)
SMOKE = SyntheticConfig(n_events=1_000, id_domain=20, window_events=400)
# The weighting factor only matters while the cache is contended (Eq. 7's
# admission gate and the cost-based eviction both compare utilities): size
# the cache below the stream's working set, as in the other panels.
CACHE_CAPACITY = 150


def sweep(field: str, fixed: dict, base: SyntheticConfig = BASE) -> list[dict]:
    workload = q1_workload(base)
    rows = []
    for omega in OMEGAS:
        config = EiresConfig(
            policy=GREEDY,
            cache_policy=CACHE_COST,
            cache_capacity=CACHE_CAPACITY,
            **{field: omega},
            **fixed,
        )
        # Hybrid is the paper's subject; PFetch is included because its
        # admission gate is the mechanism most exposed to the weighting.
        for strategy in ("Hybrid", "PFetch"):
            row = run_strategy(workload, strategy, config).summary()
            row["omega"] = omega
            rows.append(row)
    return rows


def _assert_plateau(rows: list[dict]) -> None:
    p50s = {row["omega"]: row["p50"] for row in rows if row["strategy"] == "Hybrid"}
    middle = min(p50s[omega] for omega in (0.5, 0.7))
    # The interior of the sweep is never dramatically worse than the edges,
    # and the matches are identical everywhere.
    assert middle <= min(p50s[0.1], p50s[0.9]) * 1.5
    assert len({row["matches"] for row in rows}) == 1


def test_fig9a_omega_fetch(benchmark, report):
    rows = benchmark.pedantic(
        sweep, args=("omega_fetch", {"omega_cache": 0.5}), rounds=1, iterations=1
    )
    report.add(
        ExperimentResult("fig9a_omega_fetch", rows),
        comparison_metric=None,
        columns=("omega", "strategy", "matches", "p25", "p50", "p75", "p95"),
    )
    _assert_plateau(rows)


def test_fig9b_omega_cache(benchmark, report):
    rows = benchmark.pedantic(
        sweep, args=("omega_cache", {"omega_fetch": 0.7}), rounds=1, iterations=1
    )
    report.add(
        ExperimentResult("fig9b_omega_cache", rows),
        comparison_metric=None,
        columns=("omega", "strategy", "matches", "p25", "p50", "p75", "p95"),
    )
    _assert_plateau(rows)


if __name__ == "__main__":
    sys.exit(smoke_main("fig9_omega", {
        "fig9a": lambda: sweep("omega_fetch", {"omega_cache": 0.5}, SMOKE),
        "fig9b": lambda: sweep("omega_cache", {"omega_fetch": 0.7}, SMOKE),
    }))
