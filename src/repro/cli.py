"""Command-line interface: compare strategies, trace runs, serve fleets.

Usage::

    python -m repro.cli compare --workload q1 --policy greedy --cache cost
    python -m repro.cli compare --workload cluster --strategies BL1 Hybrid
    python -m repro.cli compare --workload q1 --json
    python -m repro.cli trace --workload q1 --strategy Hybrid \\
        --trace-out q1.trace.json --metrics-out q1.metrics.json
    python -m repro.cli report --workload q1 --strategy Hybrid \\
        --slo-latency-bound 400 --series-interval 500 --series-out q1.series.jsonl
    python -m repro.cli serve --workload q1 --tenants 4 --shards 2 \\
        --rate-limit 20000 --burst 64
    python -m repro.cli describe --workload fraud
    python -m repro.cli compare --workload q1 --config run.toml

``compare`` replays a named workload under the selected strategies and
prints the paper-style percentile table (``--json`` emits the rows as JSON
instead; ``--trace-out`` captures all runs into one trace file, one track
per strategy); ``trace`` replays one strategy with full lifecycle tracing
and decision provenance and verifies the trace explains the run; ``report``
runs one traced strategy and renders a run health report — per-match
latency attribution, SLO burn rates, metric series, provenance replay —
with optional folded-flamegraph and series JSONL exports; ``serve`` runs a
multi-tenant fleet (one tenant per copy of the workload's query) across
worker shards sharing one remote-data plane; ``describe`` prints the
compiled evaluation automaton (states, transitions, remote sites) of the
workload's query.

Every flag family lives in its own argument group (engine, batching,
shedding, SLO, serving, observability), and ``--config FILE`` loads the
same knobs config-first from a TOML file of
:class:`~repro.core.config.EiresConfig` field names — explicit CLI flags
always win over the file.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import tomllib
from typing import Any, Callable

from repro.bench.harness import ALL_STRATEGIES, ExperimentResult, run_strategy
from repro.core.config import CACHE_COST, CACHE_LRU, EiresConfig
from repro.core.framework import EIRES
from repro.engine.engine import GREEDY, NON_GREEDY
from repro.metrics.reporting import format_fault_summary, format_health_report
from repro.nfa.compiler import compile_query
from repro.obs.export import (
    write_chrome_trace,
    write_folded,
    write_jsonl,
    write_metrics_snapshot,
)
from repro.obs.provenance import replay_trace
from repro.obs.series import write_series_jsonl
from repro.obs.spans import aggregate_spans
from repro.obs.trace import MemorySink, Tracer
from repro.remote.transport import TRANSPORT_BATCH_KEYS_METRIC
from repro.remote.faults import FAULT_PROFILES
from repro.serving import PLACE_ROUND_ROBIN, PLACEMENTS, FleetBuilder, TenantSpec
from repro.shedding.policy import SHED_NONE, SHED_POLICIES
from repro.strategies.base import FAIL_CLOSED, FAIL_OPEN
from repro.workloads.base import Workload
from repro.workloads.bursty import BurstyConfig, bursty_workload
from repro.workloads.bushfire import BushfireConfig, bushfire_workload
from repro.workloads.cluster import ClusterConfig, cluster_workload
from repro.workloads.fraud import FraudConfig, fraud_workload
from repro.workloads.synthetic import SyntheticConfig, q1_workload, q2_workload

__all__ = ["main", "WORKLOADS"]


def _q1(events: int) -> Workload:
    return q1_workload(SyntheticConfig(n_events=events, id_domain=20, window_events=400))


def _q2(events: int) -> Workload:
    return q2_workload(SyntheticConfig(n_events=events, id_domain=40, window_events=400))


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "q1": _q1,
    "q2": _q2,
    "bursty": lambda events: bursty_workload(BurstyConfig(n_events=events)),
    "fraud": lambda events: fraud_workload(FraudConfig(n_events=events)),
    "bushfire": lambda events: bushfire_workload(BushfireConfig(n_events=events)),
    "cluster": lambda events: cluster_workload(ClusterConfig(n_tasks=max(events // 6, 1))),
}


#: TOML keys (``EiresConfig`` field names) whose CLI flag spells the dest
#: differently; every other accepted key maps to the identical dest.
CONFIG_DEST_MAP = {
    "cache_policy": "cache",
    "cache_capacity": "capacity",
    "retry_max_attempts": "retry_attempts",
}

#: Every key a ``--config`` TOML file may set: the ``EiresConfig`` fields
#: the CLI exposes as flags.  Keys apply wherever the chosen subcommand
#: supports the corresponding flag; explicit CLI flags always win.
CONFIG_KEYS = (
    "policy",
    "cache_policy",
    "cache_capacity",
    "fault_profile",
    "failure_mode",
    "retry_max_attempts",
    "batch_window",
    "batch_max_keys",
    "batch_fixed_latency",
    "batch_per_key_latency",
    "shed_policy",
    "latency_bound",
    "run_budget",
    "slo_latency_bound",
    "slo_recall_floor",
    "slo_fetch_budget",
    "slo_in_detector",
    "series_interval",
)


def _config_defaults(argv: list[str]) -> dict[str, Any]:
    """Pre-scan ``argv`` for ``--config FILE`` and load it as flag defaults.

    Returns argparse defaults (TOML keys mapped through
    :data:`CONFIG_DEST_MAP`); parsing then layers explicit flags on top, so
    precedence is built-in default < config file < command line.  Unknown
    keys are a clean exit 2 — a typoed knob must not silently fall back.
    """
    path = None
    for index, token in enumerate(argv):
        if token == "--config" and index + 1 < len(argv):
            path = argv[index + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return {}
    try:
        with open(path, "rb") as handle:
            loaded = tomllib.load(handle)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        print(f"error: cannot load --config {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    defaults: dict[str, Any] = {}
    for key, value in loaded.items():
        if key not in CONFIG_KEYS:
            print(
                f"error: unknown --config key {key!r} in {path}; "
                f"accepted keys: {', '.join(CONFIG_KEYS)}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        defaults[CONFIG_DEST_MAP.get(key, key)] = value
    return defaults


def _build_parser(config_defaults: dict[str, Any] | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    compare = subparsers.add_parser("compare", help="compare fetching strategies")
    engine = _add_engine_args(compare)
    engine.add_argument("--strategies", nargs="+", default=list(ALL_STRATEGIES),
                        choices=ALL_STRATEGIES, metavar="STRATEGY")
    engine.add_argument("--failure-mode", choices=(FAIL_CLOSED, FAIL_OPEN),
                        default=FAIL_CLOSED,
                        help="how predicates treat terminally unavailable data")
    engine.add_argument("--retry-attempts", type=int, default=3,
                        help="max fetch attempts incl. the first (default: 3)")
    compare.add_argument("--json", action="store_true",
                         help="emit the per-strategy summary rows as JSON")
    _add_batching_args(compare)
    _add_shedding_args(compare)
    _add_observability_args(compare)

    trace = subparsers.add_parser(
        "trace", help="replay one strategy with full lifecycle tracing")
    _add_engine_args(trace, strategy=True)
    _add_batching_args(trace)
    _add_shedding_args(trace)
    _add_observability_args(trace)

    report = subparsers.add_parser(
        "report", help="run health report: latency attribution, SLOs, series")
    engine = _add_engine_args(report, strategy=True)
    engine.add_argument("--series-interval", type=float, default=0.0, metavar="US",
                        help="metric sampling cadence in virtual us "
                             "(0 disables series sampling; default: 0)")
    report.add_argument("--out", default=None, metavar="PATH",
                        help="also write the health report text to PATH")
    report.add_argument("--folded-out", default=None, metavar="PATH",
                        help="write latency-attribution spans as flamegraph "
                             "folded stacks to PATH")
    report.add_argument("--series-out", default=None, metavar="PATH",
                        help="write the sampled metric series as JSONL to PATH "
                             "(needs --series-interval)")
    _add_slo_args(report)
    _add_batching_args(report)
    _add_shedding_args(report)
    _add_observability_args(report)

    serve = subparsers.add_parser(
        "serve", help="run a multi-tenant fleet over shared remote data")
    _add_engine_args(serve, strategy=True)
    _add_serving_args(serve)
    serve.add_argument("--json", action="store_true",
                       help="emit the fleet and per-tenant summaries as JSON")
    _add_batching_args(serve)
    _add_shedding_args(serve)
    _add_observability_args(serve)

    describe = subparsers.add_parser("describe", help="print a workload's automaton")
    describe.add_argument("--workload", choices=sorted(WORKLOADS), default="q1")

    if config_defaults:
        for sub in (compare, trace, report, serve):
            sub.set_defaults(**config_defaults)
    return parser


def _add_engine_args(
    subparser: argparse.ArgumentParser, strategy: bool = False
) -> argparse._ArgumentGroup:
    """The core evaluation knobs every run subcommand shares."""
    group = subparser.add_argument_group(
        "engine", "workload selection and core evaluation knobs")
    group.add_argument("--workload", choices=sorted(WORKLOADS), default="q1")
    group.add_argument("--events", type=int, default=6_000,
                       help="stream length (tasks x ~6 for 'cluster')")
    if strategy:
        group.add_argument("--strategy", choices=ALL_STRATEGIES, default="Hybrid")
    group.add_argument("--policy", choices=(GREEDY, NON_GREEDY), default=GREEDY)
    group.add_argument("--cache", choices=(CACHE_COST, CACHE_LRU), default=CACHE_COST)
    group.add_argument("--capacity", type=int, default=None,
                       help="cache capacity (default: the workload's recommendation)")
    group.add_argument("--fault-profile", default="none", metavar="PROFILE",
                       help="fault injection profile: one of "
                            f"{', '.join(sorted(FAULT_PROFILES))}, or a spec like "
                            "'drop:0.1' / 'drop:0.05,slow:0.1:8' (default: none)")
    group.add_argument("--config", default=None, metavar="FILE",
                       help="TOML file of EiresConfig fields loaded as flag "
                            "defaults (explicit flags win); accepted keys: "
                            f"{', '.join(CONFIG_KEYS)}")
    return group


def _add_serving_args(subparser: argparse.ArgumentParser) -> None:
    group = subparser.add_argument_group(
        "serving", "fleet shape: tenants, shards, placement, admission")
    group.add_argument("--tenants", type=int, default=2, metavar="N",
                       help="number of tenants, each running its own copy of "
                            "the workload's query (default: 2)")
    group.add_argument("--shards", type=int, default=1, metavar="N",
                       help="number of worker shards (default: 1)")
    group.add_argument("--placement", choices=PLACEMENTS, default=PLACE_ROUND_ROBIN,
                       help="tenant-to-shard placement policy "
                            f"(default: {PLACE_ROUND_ROBIN})")
    group.add_argument("--rate-limit", type=float, default=None, metavar="EPS",
                       help="per-tenant admission rate in events per virtual "
                            "second (default: unlimited)")
    group.add_argument("--burst", type=float, default=None, metavar="N",
                       help="per-tenant token-bucket burst "
                            "(default: max(1, rate limit))")


def _add_batching_args(subparser: argparse.ArgumentParser) -> None:
    group = subparser.add_argument_group(
        "batching", "remote-fetch coalescing on the wire")
    group.add_argument("--batch-window", type=float, default=0.0, metavar="US",
                       help="batch coalescing window in virtual us "
                            "(0 disables batching; default: 0)")
    group.add_argument("--batch-max-keys", type=int, default=1, metavar="N",
                       help="max keys per wire request (1 disables batching; "
                            "default: 1)")
    group.add_argument("--batch-fixed-latency", type=float, default=40.0,
                       metavar="US", help="fixed per-wire-request latency "
                                          "of a batch (default: 40)")
    group.add_argument("--batch-per-key-latency", type=float, default=8.0,
                       metavar="US", help="per-key marginal latency of a "
                                          "batch (default: 8)")


def _batching_fields(args: argparse.Namespace) -> dict:
    return {
        "batch_window": args.batch_window,
        "batch_max_keys": args.batch_max_keys,
        "batch_fixed_latency": args.batch_fixed_latency,
        "batch_per_key_latency": args.batch_per_key_latency,
    }


def _add_shedding_args(subparser: argparse.ArgumentParser) -> None:
    group = subparser.add_argument_group(
        "shedding", "load shedding under overload")
    group.add_argument("--shed-policy", choices=sorted(SHED_POLICIES),
                       default=SHED_NONE,
                       help="load-shedding policy under overload "
                            "(default: none — no shedding plane at all)")
    group.add_argument("--latency-bound", type=float, default=None, metavar="US",
                       help="max tolerable queueing delay in virtual us "
                            "before shedding kicks in")
    group.add_argument("--run-budget", type=int, default=None, metavar="N",
                       help="max live partial matches per query before "
                            "shedding kicks in")


def _shedding_fields(args: argparse.Namespace) -> dict:
    return {
        "shed_policy": args.shed_policy,
        "latency_bound": args.latency_bound,
        "run_budget": args.run_budget,
    }


def _add_slo_args(subparser: argparse.ArgumentParser) -> None:
    group = subparser.add_argument_group(
        "slo", "service-level objectives and burn rates")
    group.add_argument("--slo-latency-bound", type=float, default=None, metavar="US",
                       help="SLO: p95 detection latency must stay below this "
                            "many virtual us")
    group.add_argument("--slo-recall-floor", type=float, default=None,
                       metavar="FRACTION",
                       help="SLO: fraction of events that must survive "
                            "shedding (e.g. 0.95)")
    group.add_argument("--slo-fetch-budget", type=float, default=None,
                       metavar="RPS",
                       help="SLO: max wire requests per virtual second")
    group.add_argument("--slo-in-detector", action="store_true",
                       help="feed SLO burn rates into the shedding overload "
                            "detector (needs --shed-policy)")


def _slo_fields(args: argparse.Namespace) -> dict:
    return {
        "slo_latency_bound": args.slo_latency_bound,
        "slo_recall_floor": args.slo_recall_floor,
        "slo_fetch_budget": args.slo_fetch_budget,
        "slo_in_detector": args.slo_in_detector,
    }


def _add_observability_args(subparser: argparse.ArgumentParser) -> None:
    group = subparser.add_argument_group(
        "observability", "trace and metrics exports")
    group.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write the lifecycle trace to PATH")
    group.add_argument("--trace-format", choices=("chrome", "jsonl"), default="chrome",
                       help="trace file format: Chrome trace-event JSON "
                            "(Perfetto-loadable) or raw JSON lines (default: chrome)")
    group.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write per-strategy metrics registry snapshots to PATH")


def _write_trace(records: list[dict], args: argparse.Namespace) -> None:
    if args.trace_format == "chrome":
        write_chrome_trace(records, args.trace_out)
    else:
        write_jsonl(records, args.trace_out)


def _cmd_compare(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload](args.events)
    capacity = args.capacity if args.capacity is not None else workload.notes["cache_capacity"]
    config = EiresConfig(
        policy=args.policy,
        cache_policy=args.cache,
        cache_capacity=capacity,
        fault_profile=args.fault_profile,
        failure_mode=args.failure_mode,
        retry_max_attempts=args.retry_attempts,
        **_batching_fields(args),
        **_shedding_fields(args),
    )
    sink = MemorySink() if args.trace_out is not None else None
    rows = []
    metrics: dict[str, dict] = {}
    for strategy in args.strategies:
        tracer = Tracer(sink, track=strategy) if sink is not None else None
        result = run_strategy(workload, strategy, config, tracer=tracer)
        row = result.summary()
        if result.metrics is not None:
            metrics[strategy] = result.metrics
            # Surface the batch-size distribution next to the dropped-run
            # ledger in machine-readable rows (flat keys, diffable).
            histogram = result.metrics.get(TRANSPORT_BATCH_KEYS_METRIC)
            if isinstance(histogram, dict):
                row.update({
                    f"{TRANSPORT_BATCH_KEYS_METRIC}.{key}": value
                    for key, value in histogram.items()
                })
        rows.append(row)
    if sink is not None:
        _write_trace(sink.records, args)
    if args.metrics_out is not None:
        write_metrics_snapshot(metrics, args.metrics_out)
    title = f"{args.workload} / {args.policy} / {args.cache} cache (capacity {capacity})"
    if args.fault_profile != "none":
        title += f" / faults={args.fault_profile}"
    if args.shed_policy != SHED_NONE:
        title += f" / shed={args.shed_policy}"
    experiment = ExperimentResult(title, rows)
    if args.json:
        print(json.dumps({"name": title, "rows": rows}, indent=2, default=str))
        return 0
    print(experiment.table())
    if "Hybrid" in args.strategies and len(args.strategies) > 1:
        print()
        print(experiment.comparison("p50"))
    if args.fault_profile != "none":
        print()
        print(format_fault_summary(rows))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload](args.events)
    capacity = args.capacity if args.capacity is not None else workload.notes["cache_capacity"]
    config = EiresConfig(
        policy=args.policy,
        cache_policy=args.cache,
        cache_capacity=capacity,
        fault_profile=args.fault_profile,
        **_batching_fields(args),
        **_shedding_fields(args),
    )
    sink = MemorySink()
    result = run_strategy(
        workload, args.strategy, config,
        tracer=Tracer(sink, track=args.strategy),
    )
    replay = replay_trace(sink.records)
    if args.trace_out is not None:
        _write_trace(sink.records, args)
        print(f"trace: {len(sink.records)} records -> {args.trace_out} ({args.trace_format})")
    else:
        print(f"trace: {len(sink.records)} records (no --trace-out; not persisted)")
    if args.metrics_out is not None:
        write_metrics_snapshot({args.strategy: result.metrics}, args.metrics_out)
        print(f"metrics: -> {args.metrics_out}")
    print(
        f"provenance: {replay['checked_eq7']} Eq.7 decisions, "
        f"{replay['checked_eq8']} Eq.8 gates, "
        f"{replay['checked_shed']} shed decisions, "
        f"{replay['checked_serving']} serving decisions replayed, "
        f"{len(replay['problems'])} inconsistencies"
    )
    for problem in replay["problems"]:
        print(f"  {problem}", file=sys.stderr)
    print(
        f"{result.strategy_name}: {result.match_count} matches, "
        f"p50={result.latency_percentiles()[50]:.1f}us"
    )
    return 1 if replay["problems"] else 0


def _cmd_report(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload](args.events)
    capacity = args.capacity if args.capacity is not None else workload.notes["cache_capacity"]
    config = EiresConfig(
        policy=args.policy,
        cache_policy=args.cache,
        cache_capacity=capacity,
        fault_profile=args.fault_profile,
        series_interval=args.series_interval,
        **_slo_fields(args),
        **_batching_fields(args),
        **_shedding_fields(args),
    )
    sink = MemorySink()
    eires = EIRES(
        workload.query,
        workload.store,
        workload.latency_model,
        strategy=args.strategy,
        config=config,
        tracer=Tracer(sink, track=args.strategy),
    )
    result = eires.run(workload.stream)
    replay = replay_trace(sink.records)
    attribution = aggregate_spans(sink.records)
    slo = eires.runtime.slo
    slo_status = slo.status(eires.clock.now) if slo is not None else None
    series = result.series
    title = f"{args.workload} / {args.strategy} run health"
    if args.fault_profile != "none":
        title += f" / faults={args.fault_profile}"
    report = format_health_report(
        title,
        result.summary(),
        attribution,
        slo_status=slo_status,
        replay=replay,
        series_samples=len(series) if series is not None else None,
    )
    print(report)
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(report)
            handle.write("\n")
        print(f"report: -> {args.out}")
    if args.folded_out is not None:
        stacks = write_folded(sink.records, args.folded_out)
        print(f"folded spans: {stacks} stacks -> {args.folded_out}")
    if args.series_out is not None:
        samples = write_series_jsonl(series or [], args.series_out)
        print(f"series: {samples} samples -> {args.series_out}")
    if args.trace_out is not None:
        _write_trace(sink.records, args)
        print(f"trace: {len(sink.records)} records -> {args.trace_out} ({args.trace_format})")
    if args.metrics_out is not None:
        write_metrics_snapshot({args.strategy: result.metrics}, args.metrics_out)
        print(f"metrics: -> {args.metrics_out}")
    for problem in replay["problems"]:
        print(f"  {problem}", file=sys.stderr)
    return 1 if replay["problems"] else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload](args.events)
    capacity = args.capacity if args.capacity is not None else workload.notes["cache_capacity"]
    config = EiresConfig(
        policy=args.policy,
        cache_policy=args.cache,
        cache_capacity=capacity,
        fault_profile=args.fault_profile,
        **_batching_fields(args),
        **_shedding_fields(args),
    )
    sink = MemorySink() if args.trace_out is not None else None
    builder = FleetBuilder(
        workload.store, workload.latency_model,
        n_shards=args.shards, placement=args.placement,
        config=config, tracer=Tracer(sink) if sink is not None else None,
    )
    for index in range(args.tenants):
        # Every tenant runs its own copy of the workload's query; fleet
        # query names must be unique, so the copy is renamed per tenant.
        query = copy.copy(workload.query)
        query.name = f"{workload.query.name}_t{index}"
        builder.add_tenant(TenantSpec(
            f"tenant{index}", query,
            rate_limit=args.rate_limit, burst=args.burst,
            strategy=args.strategy,
        ))
    try:
        fleet = builder.build()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = fleet.dispatch(workload.stream)

    tenant_rows = []
    for tenant in sorted(result.results):
        for query_name, run in sorted(result.results[tenant].items()):
            percentiles = run.latency_percentiles()
            tenant_rows.append({
                "tenant": tenant,
                "query": query_name,
                "shard": result.placement[tenant],
                "matches": run.match_count,
                "admitted": result.admitted[tenant],
                "throttled": result.throttled[tenant],
                "p50": round(percentiles[50], 2),
                "p95": round(percentiles[95], 2),
            })
    if args.json:
        print(json.dumps(
            {"fleet": result.summary(), "tenants": tenant_rows},
            indent=2, default=str,
        ))
    else:
        summary = result.summary()
        print(
            f"fleet: {summary['n_tenants']} tenants on {summary['n_shards']} "
            f"shard(s), placement={summary['placement']}, "
            f"{summary['events']} events "
            f"(admitted {summary['admitted']}, throttled {summary['throttled']}), "
            f"skew={summary['skew']}, amortization={summary['amortization']}"
        )
        for row in tenant_rows:
            print(
                f"  {row['tenant']}/{row['query']} [shard {row['shard']}]: "
                f"{row['matches']} matches, p50={row['p50']}us, "
                f"p95={row['p95']}us, throttled={row['throttled']}"
            )
    if sink is not None:
        replay = replay_trace(sink.records)
        _write_trace(sink.records, args)
        print(f"trace: {len(sink.records)} records -> {args.trace_out} ({args.trace_format})")
        print(
            f"provenance: {replay['checked_serving']} serving decisions, "
            f"{replay['checked_eq7']} Eq.7 decisions, "
            f"{replay['checked_shed']} shed decisions replayed, "
            f"{len(replay['problems'])} inconsistencies"
        )
        for problem in replay["problems"]:
            print(f"  {problem}", file=sys.stderr)
        if replay["problems"]:
            return 1
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload](0)
    automaton = compile_query(workload.query)
    print(automaton.describe())
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser(_config_defaults(argv)).parse_args(argv)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "describe":
        return _cmd_describe(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
