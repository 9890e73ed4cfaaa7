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

The four run subcommands take the same config flags, one per
:class:`~repro.core.config.EiresConfig` field in :data:`CONFIG_FLAGS`, each
typed and defaulted by the field itself.  ``--config FILE`` loads the same
fields, by name, from a TOML file; explicit flags always win over the file.
``EiresConfig`` validates flag and file values alike, and a rejected value
exits with status 2 and an ``error:`` line naming the field.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import sys
import tomllib
import typing
from typing import Any, Callable

from repro.bench.harness import ALL_STRATEGIES, run_strategy, run_strategy_suite
from repro.core.config import CACHE_COST, CACHE_LRU, EiresConfig
from repro.core.framework import EIRES
from repro.engine.engine import GREEDY, NON_GREEDY
from repro.metrics.reporting import format_fault_summary, format_health_report
from repro.nfa.compiler import compile_query
from repro.obs.export import (
    write_chrome_trace, write_folded, write_jsonl, write_metrics_snapshot,
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


#: The argument groups of every run subcommand, in ``--help`` order.
ARG_GROUPS = {
    "engine": "workload selection and core evaluation knobs",
    "batching": "remote-fetch coalescing on the wire",
    "shedding": "load shedding under overload",
    "slo": "service-level objectives and burn rates",
    "observability": "trace, metrics and series exports",
}

#: The config flags: ``EiresConfig`` field -> (flag, argument group, help).
#: The field names are both the argparse dests and the ``--config`` keys;
#: each flag's type and default are read off the field.
CONFIG_FLAGS: dict[str, tuple[str, str, str]] = {
    "policy": ("--policy", "engine", f"selection policy: {GREEDY} or {NON_GREEDY}"),
    "cache_policy": ("--cache", "engine", f"cache policy: {CACHE_COST} or {CACHE_LRU}"),
    "cache_capacity": ("--capacity", "engine", "cache capacity (default: the workload's "
                       "recommendation)"),
    "fault_profile": ("--fault-profile", "engine", "fault injection profile: one of "
                      f"{', '.join(sorted(FAULT_PROFILES))}, or a spec like 'drop:0.1' / "
                      "'drop:0.05,slow:0.1:8'"),
    "failure_mode": ("--failure-mode", "engine", "how predicates treat terminally "
                     f"unavailable data: {FAIL_CLOSED} or {FAIL_OPEN}"),
    "retry_max_attempts": ("--retry-attempts", "engine", "max fetch attempts incl. the first"),
    "batch_window": ("--batch-window", "batching", "coalescing window, virtual us (0: off)"),
    "batch_max_keys": ("--batch-max-keys", "batching", "max keys per wire request (1: off)"),
    "batch_fixed_latency": ("--batch-fixed-latency", "batching", "fixed latency of one wire "
                            "request of a batch, virtual us"),
    "batch_per_key_latency": ("--batch-per-key-latency", "batching", "per-key marginal "
                              "latency of a batch, virtual us"),
    "shed_policy": ("--shed-policy", "shedding", "load-shedding policy: one of "
                    f"{', '.join(sorted(SHED_POLICIES))} ({SHED_NONE}: no shedding plane)"),
    "latency_bound": ("--latency-bound", "shedding", "max tolerable queueing delay in "
                      "virtual us before shedding kicks in"),
    "run_budget": ("--run-budget", "shedding", "max live partial matches per query before "
                   "shedding kicks in"),
    "slo_latency_bound": ("--slo-latency-bound", "slo", "SLO: p95 detection latency must stay "
                          "below this many virtual us"),
    "slo_recall_floor": ("--slo-recall-floor", "slo", "SLO: fraction of events that must "
                         "survive shedding (e.g. 0.95)"),
    "slo_fetch_budget": ("--slo-fetch-budget", "slo", "SLO: max wire requests per virtual second"),
    "slo_in_detector": ("--slo-in-detector", "slo", "feed SLO burn rates into the shedding "
                        "overload detector (needs --shed-policy)"),
    "series_interval": ("--series-interval", "observability", "metric sampling cadence in "
                        "virtual us (0: no series sampling)"),
}


def _value_type(hint: Any) -> type:
    """The value type of a field annotation: ``int`` for ``int | None`` too."""
    return next((arg for arg in typing.get_args(hint) if arg is not type(None)), hint)


_FIELD_HINTS = typing.get_type_hints(EiresConfig)
_FIELD_DEFAULTS = {field.name: field.default for field in dataclasses.fields(EiresConfig)}

#: Each config flag's value type, from its ``EiresConfig`` annotation.
_FLAG_TYPES: dict[str, type] = {name: _value_type(_FIELD_HINTS[name]) for name in CONFIG_FLAGS}
#: Each config flag's default, the field's own — except ``cache_capacity``,
#: whose unset ``None`` means "the workload's recommendation".
_FLAG_DEFAULTS: dict[str, Any] = {
    name: None if name == "cache_capacity" else _FIELD_DEFAULTS[name] for name in CONFIG_FLAGS
}
_NO_FAULTS = _FIELD_DEFAULTS["fault_profile"]


def _config_defaults(argv: list[str]) -> dict[str, Any]:
    """Pre-scan ``argv`` for ``--config FILE`` and load it as flag defaults.

    Parsing then layers explicit flags on top, so precedence is built-in
    default < config file < command line.  An unknown key or a value of the
    wrong type is a clean exit 2 — a typoed knob must not silently fall
    back.  The one widening is an integer for a float field.
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
        if key not in CONFIG_FLAGS:
            print(f"error: unknown --config key {key!r} in {path}; "
                  f"accepted keys: {', '.join(CONFIG_FLAGS)}", file=sys.stderr)
            raise SystemExit(2)
        expected = _FLAG_TYPES[key]
        if expected is float and type(value) is int:
            value = float(value)
        if type(value) is not expected:
            print(f"error: --config key {key!r} in {path} must be {expected.__name__}",
                  file=sys.stderr)
            raise SystemExit(2)
        defaults[key] = value
    return defaults


def _build_parser(config_defaults: dict[str, Any] | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    compare = _add_run_parser(subparsers, "compare", "compare fetching strategies",
                              _cmd_compare, config_defaults)
    compare.add_argument("--json", action="store_true",
                         help="emit the per-strategy summary rows as JSON")

    _add_run_parser(subparsers, "trace", "replay one strategy with full lifecycle tracing",
                    _cmd_trace, config_defaults)

    report = _add_run_parser(subparsers, "report", "run health report: latency attribution, "
                             "SLOs, series", _cmd_report, config_defaults)
    report.add_argument("--out", default=None, metavar="PATH",
                        help="also write the health report text to PATH")
    report.add_argument("--folded-out", default=None, metavar="PATH",
                        help="write latency-attribution spans as flamegraph "
                             "folded stacks to PATH")
    report.add_argument("--series-out", default=None, metavar="PATH",
                        help="write the sampled metric series as JSONL to PATH "
                             "(needs --series-interval)")

    serve = _add_run_parser(subparsers, "serve", "run a multi-tenant fleet over shared "
                            "remote data", _cmd_serve, config_defaults)
    _add_serving_args(serve)
    serve.add_argument("--json", action="store_true",
                       help="emit the fleet and per-tenant summaries as JSON")

    describe = subparsers.add_parser("describe", help="print a workload's automaton")
    describe.add_argument("--workload", choices=sorted(WORKLOADS), default="q1")
    describe.set_defaults(func=_cmd_describe)
    return parser


def _add_run_parser(subparsers: Any, name: str, help_text: str, func: Callable[..., int],
                    config_defaults: dict[str, Any] | None) -> argparse.ArgumentParser:
    """A run subcommand: workload selection, every config flag, exports."""
    sub = subparsers.add_parser(name, help=help_text)
    groups = {title: sub.add_argument_group(title, text) for title, text in ARG_GROUPS.items()}
    engine = groups["engine"]
    engine.add_argument("--workload", choices=sorted(WORKLOADS), default="q1")
    engine.add_argument("--events", type=int, default=6_000,
                        help="stream length (tasks x ~6 for 'cluster')")
    if name == "compare":
        engine.add_argument("--strategies", nargs="+", default=list(ALL_STRATEGIES),
                            choices=ALL_STRATEGIES, metavar="STRATEGY")
    else:
        engine.add_argument("--strategy", choices=ALL_STRATEGIES, default="Hybrid")
    engine.add_argument("--config", default=None, metavar="FILE",
                        help="TOML file of EiresConfig fields loaded as flag "
                             "defaults (explicit flags win); accepted keys: "
                             f"{', '.join(CONFIG_FLAGS)}")
    for field_name, (flag, group, field_help) in CONFIG_FLAGS.items():
        default, value_type = _FLAG_DEFAULTS[field_name], _FLAG_TYPES[field_name]
        kind = {"action": "store_true"} if value_type is bool else {"type": value_type}
        if default is not None and value_type is not bool:
            field_help += " (default: %(default)s)"
        groups[group].add_argument(flag, dest=field_name, default=default, help=field_help,
                                   **kind)
    observability = groups["observability"]
    observability.add_argument("--trace-out", default=None, metavar="PATH",
                               help="write the lifecycle trace to PATH")
    observability.add_argument("--trace-format", choices=("chrome", "jsonl"), default="chrome",
                               help="trace file format: Chrome trace-event JSON "
                                    "(Perfetto-loadable) or raw JSON lines (default: chrome)")
    observability.add_argument("--metrics-out", default=None, metavar="PATH",
                               help="write per-strategy metrics registry snapshots to PATH")
    sub.set_defaults(func=func, **(config_defaults or {}))
    return sub


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


def _build_config(args: argparse.Namespace, workload: Workload) -> EiresConfig:
    """The run's config: every :data:`CONFIG_FLAGS` field as parsed.

    The only ``EiresConfig`` construction of the CLI, so its
    ``__post_init__`` validates flag and ``--config`` values alike.
    """
    values = {name: getattr(args, name) for name in CONFIG_FLAGS}
    if values["cache_capacity"] is None:
        values["cache_capacity"] = workload.notes["cache_capacity"]
    return EiresConfig(**values)


def _write_trace(records: list[dict], args: argparse.Namespace) -> None:
    if args.trace_format == "chrome":
        write_chrome_trace(records, args.trace_out)
    else:
        write_jsonl(records, args.trace_out)


def _cmd_compare(args: argparse.Namespace, workload: Workload, config: EiresConfig) -> int:
    title = (f"{args.workload} / {config.policy} / {config.cache_policy} cache "
             f"(capacity {config.cache_capacity})")
    if config.fault_profile != _NO_FAULTS:
        title += f" / faults={config.fault_profile}"
    if config.shed_policy != SHED_NONE:
        title += f" / shed={config.shed_policy}"
    sink = MemorySink() if args.trace_out is not None else None
    experiment = run_strategy_suite(title, workload, config, args.strategies, trace_sink=sink)
    rows = experiment.rows
    for strategy, row in zip(args.strategies, rows):
        # Surface the batch-size distribution next to the dropped-run
        # ledger in machine-readable rows (flat keys, diffable).
        histogram = experiment.metrics.get(strategy, {}).get(TRANSPORT_BATCH_KEYS_METRIC)
        if isinstance(histogram, dict):
            row.update({
                f"{TRANSPORT_BATCH_KEYS_METRIC}.{key}": value
                for key, value in histogram.items()
            })
    if sink is not None:
        _write_trace(sink.records, args)
    if args.metrics_out is not None:
        write_metrics_snapshot(experiment.metrics, args.metrics_out)
    if args.json:
        print(json.dumps({"name": title, "rows": rows}, indent=2, default=str))
        return 0
    print(experiment.table())
    if "Hybrid" in args.strategies and len(args.strategies) > 1:
        print()
        print(experiment.comparison("p50"))
    if config.fault_profile != _NO_FAULTS:
        print()
        print(format_fault_summary(rows))
    return 0


def _cmd_trace(args: argparse.Namespace, workload: Workload, config: EiresConfig) -> int:
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


def _cmd_report(args: argparse.Namespace, workload: Workload, config: EiresConfig) -> int:
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
    if config.fault_profile != _NO_FAULTS:
        title += f" / faults={config.fault_profile}"
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


def _cmd_serve(args: argparse.Namespace, workload: Workload, config: EiresConfig) -> int:
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
            f"shard(s), sessions={summary['sessions']}, "
            f"placement={summary['placement']}, "
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
    if args.command == "describe":
        return args.func(args)
    workload = WORKLOADS[args.workload](args.events)
    try:
        config = _build_config(args, workload)
    except ValueError as exc:
        # A rejected flag or --config value; the run below is deliberately
        # not wrapped, so a genuine bug keeps its traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return args.func(args, workload, config)


if __name__ == "__main__":
    sys.exit(main())
