"""Wall-clock benchmark of the EIRES reproduction, measured from outside.

One command builds a workload from ``--seed``, checks its output against an
independent replay, and replays it with tracing off until ``--seconds``
seconds are spent, for the end-to-end metrics (``--trace 0``); ``--trace 1``
first makes two observed passes — ``cProfile`` folded by layer, and
``tracemalloc`` — for the per-layer metrics::

    python3 benchmarks/perf/run.py                      # every workload, both passes
    python3 benchmarks/perf/run.py --workload q1_hybrid --seed 7 --seconds 16 --trace 0
    python3 benchmarks/perf/run.py --selfcheck          # two sets of runs must agree
    python3 benchmarks/perf/run.py --smoke              # quarter-size, 3 reps

Every metric is printed by name with its unit; the last line of each block is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Metric
names, units and regression bounds are declared once, in ``BENCHMARK.json``;
this file computes them and refuses to print if the two disagree.

The program is single-threaded and so is the benchmark: one process and one
thread per block (an invocation that prints several blocks runs them one
after another, each in a process of its own).  Arrivals are an open loop in
*virtual* time (the generator stamps each event, detection latency counts
from the last contributing event's arrival); host time is batch replay —
events completed per wall second at the stated stream length.  See README.md
next to this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tracemalloc
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# The benchmark measures the checkout it sits in, never an installed copy.
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"run.py: no src/repro under {ROOT}: nothing to measure")
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.bench.harness import wall_time  # noqa: E402

from hostspeed import REFERENCE_S, kernel  # noqa: E402
from layers import fold, profile_call  # noqa: E402
from workloads import SPECS, Case, Replay, Spec, prepare  # noqa: E402

MIN_REPS = 7        # untraced replays per --trace 0 run, however short --seconds is
TRACE_REPS = 3      # untraced replays per --trace 1 run, next to the observed passes
SMOKE_REPS = 3
SMOKE_SCALE = 0.25
SETUP_FLOOR_S = 0.02  # --selfcheck: set-ups this close agree, whatever their ratio


def virtual_metrics(replay: Replay, events: int) -> dict[str, float]:
    """The simulated statistics of one replay; exact for a fixed seed."""
    latencies = [m.latency for run in replay.runs for m in run.matches]
    # Linear interpolation between order statistics, as numpy's default.
    percentiles = statistics.quantiles(latencies, n=100, method="inclusive")
    p95 = percentiles[94]
    # One plane per deployment: every session reports the same meter and wire.
    shared = replay.runs[0]
    return {
        "matches": len(latencies),
        "virt_latency_p50_us": percentiles[49],
        "virt_latency_p95_us": p95,
        "virt_latency_beyond_p95": sum(1 for value in latencies if value > p95),
        "virt_throughput_eps": shared.throughput.events_per_second(),
        "wire_requests_per_kevent":
            shared.transport_stats["wire_requests"] * 1000.0 / events,
    }


def work_counts(replay: Replay) -> dict[str, float]:
    """Exact per-layer work counts from the public result summaries."""
    rows = [run.summary() for run in replay.runs]
    shared = rows[0]  # cache and transport are plane-wide: same on every row

    def total(key: str) -> float:
        return sum(row[key] for row in rows)

    batches = shared["transport.batches"]
    return {
        "engine.guard_evaluations": total("engine.guard_evaluations"),
        "engine.predicate_evaluations": total("engine.predicate_evaluations"),
        "engine.runs_created": total("engine.runs_created"),
        "engine.peak_active_runs": total("engine.peak_active_runs"),
        # Strategies that run cacheless (BL1) report no cache.* columns.
        "cache.hit_rate": shared.get("cache.hit_rate", 0.0),
        "cache.insertions": shared.get("cache.insertions", 0),
        "cache.evictions": shared.get("cache.evictions", 0),
        "remote.wire_requests": shared["transport.wire_requests"],
        "remote.keys_per_wire":
            shared["transport.batched_keys"] / batches if batches else 0.0,
        "remote.coalesced": shared["transport.coalesced"],
        "strategies.prefetches_issued": total("fetch.prefetches_issued"),
        "strategies.lazy_postponements": total("fetch.lazy_postponements"),
        "strategies.blocking_stalls": total("fetch.blocking_stalls"),
        "strategies.total_stall_time_us": total("fetch.total_stall_time"),
        "serving.amortization": replay.fleet.amortization if replay.fleet else 0.0,
        "serving.skew": replay.fleet.skew if replay.fleet else 0,
    }


def peak_mem_mb(case: Case) -> float:
    """tracemalloc peak (10^6 bytes) over one replay of a warm process."""
    replay = case.build()
    gc.collect()
    tracemalloc.start()
    try:
        replay()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def fast_quartile(values: list[float]) -> float:
    """The lower quartile of host times: what the program costs undisturbed.

    Host noise on a shared box only ever adds time, in bursts shorter than a
    replay, so the faster quartile repeats better than the median (README.md,
    "Steadiness") while, unlike the minimum, needing a quarter of the samples
    to agree.
    """
    return statistics.quantiles(values, n=4)[0]


class Run:
    """One run of one workload: set up, check, then observe and measure."""

    def __init__(self, spec: Spec, seed: int, scale: float) -> None:
        self.spec, self.seed, self.scale = spec, seed, scale
        self.setups: list[float] = []            # wall s of each prepare + build
        self.parts: list[dict[str, float]] = []  # the same, by step
        self.walls: list[float] = []             # wall s of each untraced replay
        self.kernels: list[float] = []           # wall s of each hostspeed.kernel()
        self.drifted = 0          # untraced replays whose virtual metrics moved
        self.profiled_s = 0.0     # wall s of the replay under cProfile
        self.observed_s = 0.0     # wall s of both --trace 1 passes

        # Output check, from outside: the same inputs under another strategy
        # must detect exactly the same matches, in every session.  The
        # reference replay warms the process up; the replay it is compared
        # with is the first timed one (the fast quartile drops it if cold).
        self.case, replay = self.set_up()
        expected = self.case.expected_signatures()
        first, run_s = wall_time(replay)
        self.walls.append(run_s)
        self.attempted = len(expected) * len(first.runs)
        self.failed = sum(len(expected ^ got) for got in first.signatures())
        self.virtual = virtual_metrics(first, self.case.events)
        self.counts = work_counts(first)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.drifted == 0

    def set_up(self) -> tuple[Case, Callable[[], Replay]]:
        """Generate the inputs and build a deployment: one ``setup_s`` sample."""
        case, prepare_s = wall_time(lambda: prepare(self.spec, self.seed, self.scale))
        replay, build_s = wall_time(case.build)
        self.setups.append(prepare_s + build_s)
        self.parts.append({**case.timings, "build": build_s})
        return case, replay

    def measure(self, seconds: float, min_reps: int) -> None:
        """Set up and replay untraced until ``seconds`` are spent.

        Every replay needs a fresh deployment, so set-ups and replays
        alternate, with one calibration kernel between replays: all three
        sample sets span the whole run.
        """
        self.kernels.append(wall_time(kernel)[1])
        while (sum(self.setups) + sum(self.walls) + sum(self.kernels) < seconds
               or len(self.walls) < min_reps):
            # Collect before each timed step: a full collection over the
            # previous replay's matches would otherwise land inside a set-up.
            gc.collect()
            case, replay = self.set_up()
            gc.collect()
            outcome, run_s = wall_time(replay)
            self.walls.append(run_s)
            self.drifted += virtual_metrics(outcome, case.events) != self.virtual
            del outcome
            self.kernels.append(wall_time(kernel)[1])

    def observe(self) -> dict[str, float]:
        """The ``--trace 1`` passes: one replay under cProfile, one under tracemalloc."""
        replay = self.case.build()
        gc.collect()
        (_, stats), self.profiled_s = wall_time(lambda: profile_call(replay))
        metrics = fold(stats, self.case.events)
        metrics["py.peak_mem_mb"], traced_s = wall_time(lambda: peak_mem_mb(self.case))
        self.observed_s = self.profiled_s + traced_s
        return metrics

    def host(self, walls: list[float], kernels: list[float]) -> dict[str, float]:
        """Events per wall second, the host's speed, and the first over the second."""
        events_per_s = self.case.events / fast_quartile(walls)
        speed = REFERENCE_S / fast_quartile(kernels)
        return {
            "events_per_s": events_per_s,
            "host_speed": speed,
            "events_per_ref_s": events_per_s / speed,
        }

    def end_to_end(self, setups: list[float], walls: list[float],
                   kernels: list[float]) -> dict[str, float]:
        # Linux reports the resident-set high-water mark in KiB.
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "events_per_ref_s": self.host(walls, kernels)["events_per_ref_s"],
            "virt_throughput_eps": self.virtual["virt_throughput_eps"],
            "peak_rss_mb": peak_rss_kib * 1024 / 1e6,
            "setup_s": fast_quartile(setups),
        }

    def per_layer(self, observed: dict[str, float]) -> dict[str, float]:
        """The observed passes plus exact counts, set-up parts and virtual statistics."""
        wall = fast_quartile(self.walls)
        metrics = dict(observed)
        metrics["py.profile_overhead_ratio"] = self.profiled_s / wall
        metrics.update(self.counts)
        metrics["engine.guard_evals_per_s"] = self.counts["engine.guard_evaluations"] / wall
        host = self.host(self.walls, self.kernels)
        metrics["py.events_per_s"] = host["events_per_s"]
        metrics["py.host_speed"] = host["host_speed"]

        def part_us(step: str) -> float:
            return fast_quartile([part[step] for part in self.parts]) * 1e6

        metrics["query.parse_us"] = part_us("parse")
        metrics["runtime.build_us"] = part_us("build")
        metrics["events.generate_us_per_event"] = part_us("generate") / self.case.events
        metrics.update(
            (name, value) for name, value in self.virtual.items()
            if name != "virt_throughput_eps"
        )
        return metrics


def emit(name: str, trace: int, run: Run, metrics: dict[str, float],
         declared_metrics: list[dict]) -> None:
    """Print one block: every metric by name and unit, then the JSON line."""
    units = {entry["name"]: entry["unit"] for entry in declared_metrics}
    if set(units) != set(metrics):
        raise SystemExit(
            f"BENCHMARK.json and run.py disagree on --trace {trace} metrics: "
            f"{sorted(set(units) ^ set(metrics))}"
        )
    q1, q2, q3 = statistics.quantiles(run.walls, n=4)
    host = run.host(run.walls, run.kernels)
    print(f"== {name} seed={run.seed} trace={trace} events={run.case.events} "
          f"reps={len(run.walls)} replay_wall_s q1/median/q3="
          f"{q1:.4f}/{q2:.4f}/{q3:.4f} events_per_s={host['events_per_s']:.1f} "
          f"host_speed={host['host_speed']:.3f} setups={len(run.setups)}")
    print(f"{name} ops_attempted = {run.attempted}")
    print(f"{name} ops_failed = {run.failed}")
    if run.drifted:
        print(f"{name} NONDETERMINISTIC: virtual metrics moved on "
              f"{run.drifted} of {len(run.walls)} replays")
    for metric in units:
        print(f"{name} {metric} = {metrics[metric]:.6g} {units[metric]}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }))


def selfcheck(name: str, run: Run, bounds: dict[str, float]) -> bool:
    """Two interleaved sets of runs of the same code must agree.

    Set A takes the even-numbered set-ups and replays, set B the odd ones,
    so a slow phase of the host hits both.  Virtual metrics must be identical
    on every replay (``drifted == 0``); host metrics must agree within the
    bound ``BENCHMARK.json`` fixes for them.
    """
    sets = [
        run.end_to_end(run.setups[i::2], run.walls[i::2], run.kernels[i::2])
        for i in (0, 1)
    ]
    ok = run.correct
    print(f"{name} selfcheck ops_failed = {run.failed} of {run.attempted}; "
          f"virtual metrics identical on {len(run.walls)} replays: "
          f"{run.drifted == 0}")
    for metric, bound in bounds.items():
        a, b = sets[0][metric], sets[1][metric]
        spread = abs(a - b) / min(a, b)
        within = spread <= bound or (
            metric == "setup_s" and abs(a - b) <= SETUP_FLOOR_S
        )
        ok = ok and within
        print(f"{name} selfcheck {metric}: A={a:.6g} B={b:.6g} "
              f"spread={spread:.4f} bound={bound} {'ok' if within else 'FAIL'}")
    print(f"{name} selfcheck verdict: {'PASS' if ok else 'FAIL'}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="untraced replay time per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 = end-to-end metrics, 1 = per-layer metrics "
                             "(default: both)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="measure two interleaved sets and compare them")
    parser.add_argument("--smoke", action="store_true",
                        help=f"x{SMOKE_SCALE} streams, {SMOKE_REPS} replays")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(SPECS)
    traces = [None] if args.selfcheck else (
        [args.trace] if args.trace is not None else [0, 1]
    )
    if len(names) * len(traces) > 1:
        # One process per block, exactly as the driver runs them: peak_rss_mb
        # is a process-wide high-water mark and must not see another workload.
        passed = sys.argv[1:] if argv is None else argv
        codes = []
        for name in names:
            for trace in traces:
                command = [sys.executable, os.path.abspath(__file__), *passed,
                           "--workload", name]
                if trace is not None:
                    command += ["--trace", str(trace)]
                sys.stdout.flush()
                codes.append(subprocess.run(command).returncode)
        return max(codes)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    scale, min_reps = 1.0, MIN_REPS
    if args.smoke:
        scale, min_reps, seconds = SMOKE_SCALE, SMOKE_REPS, 0.0
    (name,), (trace,) = names, traces
    run = Run(SPECS[name], args.seed, scale)
    if args.selfcheck:
        run.measure(2 * seconds, 2 * min_reps)
        bounds = {entry["name"]: entry["bound"] for entry in bench["end_to_end"]}
        return 0 if selfcheck(name, run, bounds) else 1
    if trace:
        # The observed passes are part of the measuring time; the untraced
        # replays that follow only anchor the overhead ratio.
        observed = run.observe()
        run.measure(seconds - run.observed_s, min(min_reps, TRACE_REPS))
        emit(name, trace, run, run.per_layer(observed), bench["per_layer"])
    else:
        run.measure(seconds, min_reps)
        emit(name, trace, run,
             run.end_to_end(run.setups, run.walls, run.kernels),
             bench["end_to_end"])
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
