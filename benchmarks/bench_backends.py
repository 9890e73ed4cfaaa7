"""Guard-evaluation throughput of the engine.

The engine evaluates each transition guard through one generated function
(:mod:`repro.query.guards`) that must reproduce the predicate-tree walk
bit-for-bit: same verdicts, same counters, same virtual-time float sums.
This bench drives it through a guard-dominated workload — a four-step
sequence whose transitions carry wide conjunctions of high-pass local
filters over partitions hundreds of runs wide — and records:

* the deterministic result row (matches, virtual-time percentiles, guard
  and predicate counters), which the bench-regression gate holds to the
  committed baseline — millions of guards' worth of bit-identity; and
* a wall-clock ``timing`` section (guard evaluations per second),
  machine-dependent by nature and therefore written *next to* the rows
  where ``tools/bench_diff.py`` ignores it.

Run under pytest (the tier-2 suite) or standalone::

    python benchmarks/bench_backends.py           # full sweep
    python benchmarks/bench_backends.py --smoke   # CI-sized

Results land in ``results/BENCH_backends.json``.
"""

from __future__ import annotations

import sys

from repro import EiresConfig, parse_query, UniformLatency
from repro.bench.harness import (
    ExperimentResult,
    run_strategy,
    save_results,
    wall_time,
)
from repro.workloads.base import Workload
from repro.workloads.synthetic import SyntheticConfig, make_store, make_stream

STRATEGY = "BL1"
COLUMNS = ("matches", "p50", "p95", "throughput_eps",
           "engine.guard_evaluations", "engine.predicate_evaluations")


def guard_workload(n_events: int, id_domain: int = 4, window: int = 400,
                   seed: int = 42) -> Workload:
    """A guard-dominated Q1 variant: local-only, filter-heavy, wide partitions.

    Every transition carries several high-pass range filters (so little
    short-circuits) plus order correlations at the final step; the small
    ``id_domain`` keeps each ``SAME[id]`` partition hundreds of runs wide.
    """
    config = SyntheticConfig(n_events=n_events, id_domain=id_domain,
                             window_events=window, seed=seed)
    text = f"""
    SEQ(A a, B b, C c, D d)
    WHERE SAME[id]
    AND a.v1 <= 92000 AND a.v2 <= 92000 AND a.v1 >= 4000 AND a.v2 >= 4000
    AND b.v1 <= 92000 AND b.v2 >= 8000 AND b.v1 >= 4000
    AND c.v1 <= 92000 AND c.v2 >= 8000 AND c.v1 >= 4000
    AND d.v1 <= 92000 AND d.v2 >= 8000
    AND a.v1 <= d.v1 AND b.v2 <= d.v2 AND c.v1 <= d.v1
    WITHIN {window} EVENTS
    """
    return Workload(
        name="guard-heavy",
        query=parse_query(text, name="QG"),
        store=make_store(config),
        stream=make_stream(config),
        latency_model=UniformLatency(config.latency_low_us, config.latency_high_us),
    )


def sweep(n_events: int = 6_000, rounds: int = 2) -> tuple[list[dict], dict]:
    """Run the engine over the guard-heavy workload.

    Returns ``(rows, timing)``: the deterministic result row, and the
    wall-clock section (guards/second).  Wall time is the best of ``rounds``
    replays — the row is virtual-time deterministic, so every round returns
    the same row and only the timing varies.
    """
    workload = guard_workload(n_events)
    config = EiresConfig()

    def run():
        return run_strategy(workload, STRATEGY, config)

    result, seconds = wall_time(run)
    for _ in range(rounds - 1):
        _, again = wall_time(run)
        seconds = min(seconds, again)
    row = result.summary()
    guards = row["engine.guard_evaluations"]
    timing = {
        "wall_seconds": round(seconds, 3),
        "guard_evals_per_second": round(guards / seconds) if seconds else None,
    }
    return [row], timing


def check_rows(rows: list[dict]) -> None:
    """The acceptance properties of the sweep (shared by pytest and CLI)."""
    (base,) = rows
    # The workload must actually be guard-dominated: several predicates
    # charged per guard, across a large absolute volume of guards.
    assert base["engine.guard_evaluations"] > 10_000, base
    assert (base["engine.predicate_evaluations"]
            > 3 * base["engine.guard_evaluations"]), base
    assert base["matches"] > 0


def test_backends_sweep(benchmark, report):
    rows, timing = benchmark.pedantic(sweep, rounds=1, iterations=1)
    experiment = ExperimentResult("BENCH_backends", rows)
    report.add(experiment, comparison_metric=None, columns=COLUMNS)
    save_results(experiment, extra={"timing": timing})
    check_rows(rows)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in args
    rows, timing = sweep(n_events=1_500 if smoke else 6_000,
                         rounds=1 if smoke else 2)
    experiment = ExperimentResult("BENCH_backends", rows)
    print(experiment.table(COLUMNS))
    print(f"{timing['wall_seconds']}s wall, "
          f"{timing['guard_evals_per_second']} guard evals/s")
    check_rows(rows)
    path = save_results(experiment, extra={"timing": timing})
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
