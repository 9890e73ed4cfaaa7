"""Wire-request amortization of the batched fetch plane.

The batch plane coalesces the async fetches of PFetch/LzEval into multi-key
wire requests costing ``l_batch = l_fixed + n * l_per`` instead of n full
round trips.  This bench measures the trade on the paper's q1/q2 synthetic
workloads: with batching on, the wire-request count must drop strictly while
the match set (recall) stays exactly the single-key one; mean detection
latency is recorded alongside so the (bounded) cost of waiting out the
coalescing window is visible next to the saved round trips.

Run under pytest (the tier-2 suite) or standalone::

    python benchmarks/bench_batching.py           # full sweep
    python benchmarks/bench_batching.py --smoke   # CI-sized

Results land in ``results/BENCH_batching.json``.
"""

from __future__ import annotations

import sys

from repro import EiresConfig
from repro.bench.harness import ExperimentResult, run_strategy, save_results
from repro.workloads.synthetic import SyntheticConfig, q1_workload, q2_workload

STRATEGIES = ("PFetch", "Hybrid")
# ~2x the mean event gap (25us): wide enough to coalesce a decision point's
# candidates, narrow enough that responses still land before their use.
BATCH_WINDOW = 50.0
BATCH_MAX_KEYS = 8
COLUMNS = ("workload", "strategy", "batching", "matches", "mean_latency_us",
           "p50", "p95", "transport.wire_requests", "transport.batches",
           "transport.batched_keys", "transport.coalesced")


def _workloads(n_events: int) -> dict:
    return {
        "q1": q1_workload(
            SyntheticConfig(n_events=n_events, id_domain=20, window_events=400)
        ),
        "q2": q2_workload(
            SyntheticConfig(n_events=n_events, id_domain=40, window_events=400)
        ),
    }


def _config(batching: bool, capacity: int) -> EiresConfig:
    config = EiresConfig(cache_capacity=capacity)
    if batching:
        config = config.with_(batch_window=BATCH_WINDOW, batch_max_keys=BATCH_MAX_KEYS)
    return config


def sweep(n_events: int = 4_000) -> list[dict]:
    rows = []
    for workload_name, workload in _workloads(n_events).items():
        capacity = workload.notes["cache_capacity"]
        for strategy in STRATEGIES:
            for batching in (False, True):
                result = run_strategy(workload, strategy, _config(batching, capacity))
                row = result.summary()
                row["workload"] = workload_name
                row["batching"] = "on" if batching else "off"
                latencies = [match.latency for match in result.matches]
                row["mean_latency_us"] = (
                    round(sum(latencies) / len(latencies), 2) if latencies else 0.0
                )
                rows.append(row)
    return rows


def check_rows(rows: list[dict]) -> None:
    """The acceptance properties of the sweep (shared by pytest and CLI)."""
    for workload in ("q1", "q2"):
        for strategy in STRATEGIES:
            mine = {
                row["batching"]: row
                for row in rows
                if row["workload"] == workload and row["strategy"] == strategy
            }
            assert set(mine) == {"off", "on"}, (workload, strategy)
            off, on = mine["off"], mine["on"]
            # Equal recall: batching only changes *how* data moves, never
            # what is matched.
            assert on["matches"] == off["matches"], (
                f"{workload}/{strategy}: recall changed "
                f"{off['matches']} -> {on['matches']}"
            )
            # The headline win: strictly fewer wire requests.
            assert on["transport.wire_requests"] < off["transport.wire_requests"], (
                f"{workload}/{strategy}: no wire-request reduction "
                f"({off['transport.wire_requests']} -> {on['transport.wire_requests']})"
            )
            assert on["transport.batches"] > 0, (workload, strategy)
            assert off["transport.batches"] == 0, (workload, strategy)
            # The window cost is bounded: mean detection latency may give up
            # at most the coalescing window itself.
            assert on["mean_latency_us"] <= off["mean_latency_us"] + BATCH_WINDOW, (
                f"{workload}/{strategy}: latency cliff "
                f"{off['mean_latency_us']} -> {on['mean_latency_us']}"
            )


def test_batching_sweep(benchmark, report):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report.add(
        ExperimentResult("BENCH_batching", rows),
        comparison_metric=None,
        columns=COLUMNS,
    )
    check_rows(rows)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in args
    rows = sweep(n_events=1_000 if smoke else 4_000)
    experiment = ExperimentResult("BENCH_batching", rows)
    print(experiment.table(COLUMNS))
    check_rows(rows)
    path = save_results(experiment)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
