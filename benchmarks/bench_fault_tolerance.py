"""Latency degradation under increasing remote-fetch failure rates.

The paper's evaluation assumes a perfect network; this bench measures what
the fault-tolerant substrate adds: as the per-attempt drop rate rises, match
latency should degrade *gracefully* — a smooth slope from retry stalls, not
a cliff from lost matches or unbounded waits — while the match set itself
stays exactly the fault-free one (retries hide the faults).

Run under pytest (the tier-2 suite) or standalone::

    python benchmarks/bench_fault_tolerance.py               # full sweep
    python benchmarks/bench_fault_tolerance.py --fault-smoke # CI-sized

The full 3 000-event sweep writes ``results/fault_tolerance.json``; the
600-event smoke writes ``fault_tolerance_smoke.json``, which the bench
regression gate diffs against ``results/baselines/``.  ``REPRO_RESULTS_DIR``
redirects either.
"""

from __future__ import annotations

import sys

from repro import EiresConfig
from repro.bench.harness import ExperimentResult, run_strategy, save_results
from repro.workloads.synthetic import SyntheticConfig, q1_workload

FAILURE_RATES = (0.0, 0.01, 0.05, 0.1, 0.2)
STRATEGIES = ("BL1", "Hybrid")
COLUMNS = ("strategy", "failure_rate", "matches", "p50", "p95",
           "transport.retries", "transport.failed_fetches", "fetch.total_stall_time")


def _config(rate: float) -> EiresConfig:
    return EiresConfig(
        cache_capacity=64,
        fault_profile=f"drop:{rate}" if rate > 0 else "none",
        # Generous retry budget: the sweep measures *degradation*, so every
        # fetch must eventually succeed (p(8 consecutive drops) <= 0.2^8).
        retry_max_attempts=8,
        retry_attempt_timeout=200.0,
        retry_deadline=1e9,
        # A hair-trigger breaker would fail-fast bursts of unlucky draws and
        # turn the smooth retry slope into match-losing steps; keep it as a
        # dead-source guard only.
        breaker_failure_threshold=0.9,
    )


def sweep(n_events: int = 3_000) -> list[dict]:
    workload_config = SyntheticConfig(n_events=n_events, id_domain=20, window_events=400)
    rows = []
    for strategy in STRATEGIES:
        for rate in FAILURE_RATES:
            workload = q1_workload(workload_config)
            row = run_strategy(workload, strategy, _config(rate)).summary()
            row["failure_rate"] = rate
            rows.append(row)
    return rows


def check_rows(rows: list[dict]) -> None:
    """The acceptance properties of the sweep (shared by pytest and CLI)."""
    by_strategy = {
        strategy: [row for row in rows if row["strategy"] == strategy]
        for strategy in STRATEGIES
    }
    for strategy, mine in by_strategy.items():
        assert len(mine) == len(FAILURE_RATES), strategy
        # Faults never change *what* is matched, only when.
        matches = {row["matches"] for row in mine}
        assert len(matches) == 1, f"{strategy}: match set varies with failure rate: {matches}"
        # Every terminal failure would mean a lost/unverified match.
        assert all(row["transport.failed_fetches"] == 0 for row in mine), strategy
        assert mine[0]["transport.retries"] == 0, strategy
    # Each nonzero rate produces retries somewhere in the suite.
    for index in range(1, len(FAILURE_RATES)):
        assert sum(mine[index]["transport.retries"] for mine in by_strategy.values()) > 0
    # The blocking baseline surfaces the retry cost directly: its stall time
    # and latency climb monotonically with the rate, each step bounded (a
    # smooth slope, not a cliff).
    bl1 = by_strategy["BL1"]
    stalls = [row["fetch.total_stall_time"] for row in bl1]
    p95s = [row["p95"] for row in bl1]
    for lower, higher in zip(stalls, stalls[1:]):
        assert higher >= lower * 0.98, f"BL1 stall time regressed: {stalls}"
    for lower, higher in zip(p95s, p95s[1:]):
        assert lower * 0.98 <= higher <= max(lower, 1.0) * 3.0, f"BL1 latency cliff: {p95s}"
    # Hybrid hides retries behind prefetch/postponement: its latency stays
    # within a bounded envelope of the fault-free run (a handful of blocking
    # retry chains at worst — losing the async machinery would cost orders
    # of magnitude, as BL1's column shows).
    hybrid = by_strategy["Hybrid"]
    envelope = hybrid[0]["p95"] * 10.0 + 8 * 200.0  # + max_attempts x attempt_timeout
    for row in hybrid[1:]:
        assert row["p95"] <= envelope, f"Hybrid latency cliff: {row['p95']} > {envelope}"
    # Even at the worst rate, Hybrid keeps its order-of-magnitude win.
    assert hybrid[-1]["p95"] < p95s[-1] / 10.0


def test_fault_tolerance_sweep(benchmark, report):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report.add(
        ExperimentResult("fault_tolerance", rows),
        comparison_metric=None,
        columns=COLUMNS,
    )
    check_rows(rows)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    smoke = "--fault-smoke" in args
    rows = sweep(n_events=600 if smoke else 3_000)
    experiment = ExperimentResult("fault_tolerance_smoke" if smoke else "fault_tolerance", rows)
    print(experiment.table(COLUMNS))
    check_rows(rows)
    path = save_results(experiment)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
