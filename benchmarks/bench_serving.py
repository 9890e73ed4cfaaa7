"""Wire-request amortization of the multi-tenant fleet layer.

Four tenants run the same q1 monitoring query over the same remote key
space.  Deployed in isolation, each pays its own remote fetches; deployed
as one fleet (:class:`repro.FleetBuilder`), every shard shares a single
remote-data plane, so one tenant's fetch serves the others through the
shared cache and transport.  The bench pins the headline property of the
serving layer: total wire requests of the fleet run are *strictly below*
the sum of the isolated runs, at exactly equal per-tenant recall.  The
four tenants run one query, so the fleet evaluates it once for all of them:
every fleet row reports the same p50 — no tenant queues behind another's
evaluation.

Run under pytest (the tier-2 suite) or standalone::

    python benchmarks/bench_serving.py           # full sweep
    python benchmarks/bench_serving.py --smoke   # CI-sized

Results land in ``results/BENCH_serving.json``.
"""

from __future__ import annotations

import copy
import sys

from repro import EiresConfig, FleetBuilder, RuntimeBuilder, TenantSpec
from repro.bench.harness import ExperimentResult, save_results
from repro.workloads.synthetic import SyntheticConfig, q1_workload

N_TENANTS = 4
N_SHARDS = 2
STRATEGY = "Hybrid"
COLUMNS = ("mode", "tenant", "shard", "matches", "p50", "wire_requests")


def _workload(n_events: int):
    return q1_workload(
        SyntheticConfig(n_events=n_events, id_domain=20, window_events=400)
    )


def _config(capacity: int) -> EiresConfig:
    return EiresConfig(cache_capacity=capacity)


def sweep(n_events: int = 3_000) -> list[dict]:
    rows = []

    # Isolated deployments: one fresh runtime (and remote-data plane) per
    # tenant, all replaying the identical workload.
    for index in range(N_TENANTS):
        workload = _workload(n_events)
        runtime = (
            RuntimeBuilder(
                workload.store, workload.latency_model,
                config=_config(workload.notes["cache_capacity"]),
            )
            .add_query(workload.query, strategy=STRATEGY)
            .build()
        )
        result = runtime.run(workload.stream)[workload.query.name]
        rows.append({
            "mode": "isolated",
            "tenant": f"tenant{index}",
            "shard": -1,
            "matches": result.match_count,
            "p50": round(result.latency_percentiles()[50], 2),
            "wire_requests": result.transport_stats["wire_requests"],
        })

    # The fleet deployment: same four tenants on two shards over ONE shared
    # remote-data plane.  Fleet query names must be unique, so each tenant
    # runs a renamed copy of the workload query.
    workload = _workload(n_events)
    builder = FleetBuilder(
        workload.store, workload.latency_model, n_shards=N_SHARDS,
        config=_config(workload.notes["cache_capacity"]),
    )
    for index in range(N_TENANTS):
        query = copy.copy(workload.query)
        query.name = f"{workload.query.name}_t{index}"
        builder.add_tenant(
            TenantSpec(f"tenant{index}", query, strategy=STRATEGY)
        )
    fleet_result = builder.build().dispatch(workload.stream)
    for index in range(N_TENANTS):
        tenant = f"tenant{index}"
        (run,) = fleet_result.tenant_result(tenant).values()
        rows.append({
            "mode": "fleet",
            "tenant": tenant,
            "shard": fleet_result.placement[tenant],
            "matches": run.match_count,
            "p50": round(run.latency_percentiles()[50], 2),
            # Every session of a shared plane reports the same transport:
            # this is the fleet-wide wire total, identical on every row.
            "wire_requests": run.transport_stats["wire_requests"],
        })
    return rows


def check_rows(rows: list[dict]) -> None:
    """The acceptance properties of the sweep (shared by pytest and CLI)."""
    isolated = {row["tenant"]: row for row in rows if row["mode"] == "isolated"}
    fleet = {row["tenant"]: row for row in rows if row["mode"] == "fleet"}
    assert set(isolated) == set(fleet) and len(fleet) == N_TENANTS

    # Equal recall: sharing the remote-data plane changes *how* data moves,
    # never what each tenant detects.
    for tenant, row in fleet.items():
        assert row["matches"] == isolated[tenant]["matches"], (
            f"{tenant}: recall changed "
            f"{isolated[tenant]['matches']} -> {row['matches']}"
        )

    # One shared evaluation: identical tenants detect every match at the
    # same moment, so none shows another's evaluation as queueing delay.
    fleet_p50s = {row["p50"] for row in fleet.values()}
    assert len(fleet_p50s) == 1, f"identical tenants disagree on p50: {fleet_p50s}"

    # One shared transport: every fleet row reports the same wire total.
    fleet_wires = {row["wire_requests"] for row in fleet.values()}
    assert len(fleet_wires) == 1, f"fleet rows disagree on wire total: {fleet_wires}"

    # The headline win: the fleet's total wire requests are strictly below
    # the sum of the isolated runs.
    (fleet_wire,) = fleet_wires
    isolated_wire = sum(row["wire_requests"] for row in isolated.values())
    assert fleet_wire < isolated_wire, (
        f"no amortization: fleet {fleet_wire} vs isolated sum {isolated_wire}"
    )


def test_serving_sweep(benchmark, report):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report.add(
        ExperimentResult("BENCH_serving", rows),
        comparison_metric=None,
        columns=COLUMNS,
    )
    check_rows(rows)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in args
    rows = sweep(n_events=1_000 if smoke else 3_000)
    experiment = ExperimentResult("BENCH_serving", rows)
    print(experiment.table(COLUMNS))
    check_rows(rows)
    path = save_results(experiment)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
