"""Tests for the health plane: SLO burns, metric series, exporters, gates.

Covers the observability satellites end-to-end: SLO burn-rate math and its
consumption by the shedding detector, series sampling and its JSONL round
trip, exporter edge cases (empty traces, span records in Chrome traces,
window-boundary histogram snapshots), the trace validator's conditional
requirements, the health-report renderer, and the bench-diff regression
gate.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.harness import run_strategy
from repro.core.config import CACHE_COST, CACHE_LRU, EiresConfig
from repro.core.framework import EIRES
from repro.metrics.reporting import format_health_report
from repro.obs.export import chrome_trace, folded_spans, write_chrome_trace, write_folded
from repro.obs.provenance import replay_trace
from repro.obs.registry import HISTOGRAM_WINDOW_US, CounterGroup, MetricsRegistry
from repro.obs.series import SeriesSampler, load_series_jsonl, write_series_jsonl
from repro.obs.slo import REFRESH_INTERVAL_US, SLO_GAUGE_KEYS, SloPlane, SloSpec
from repro.obs.spans import SPAN_COMPONENTS, SPAN_RECORD_NAME, aggregate_spans
from repro.obs.trace import CAT_SPAN, MemorySink, Tracer
from repro.obs.validate import validate_chrome_trace
from repro.workloads.bursty import BurstyConfig, bursty_workload
from repro.workloads.synthetic import SyntheticConfig, q1_workload, q2_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench_diff  # noqa: E402
import cache_bound  # noqa: E402
import opcode_count  # noqa: E402
import perf_count_gate  # noqa: E402


def q1():
    return q1_workload(SyntheticConfig(n_events=1500, id_domain=20, window_events=400))


def span_record(**overrides):
    record = {name: 0.0 for name in SPAN_COMPONENTS}
    record.update(
        {"seq": 0, "t": 100.0, "cat": CAT_SPAN, "name": SPAN_RECORD_NAME,
         "track": "Hybrid", "wire": 30.0, "eval": 12.0,
         "latency": 42.0, "dur": 42.0}
    )
    record.update(overrides)
    return record


class TestSloBurns:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SloSpec(latency_bound=0.0)
        with pytest.raises(ValueError):
            SloSpec(recall_floor=1.5)
        with pytest.raises(ValueError):
            SloSpec(fetch_budget=-1.0)
        assert SloSpec().empty
        assert not SloSpec(latency_bound=100.0).empty

    def test_latency_burn_is_windowed_p95_over_bound(self):
        plane = SloPlane(SloSpec(latency_bound=100.0), MetricsRegistry())
        for latency in (50.0, 60.0, 70.0, 80.0, 400.0):
            plane.observe_match(latency, now=10.0)
        burns = plane.burns(now=20.0)
        # Interpolated p95 of the window is 336us against a 100us bound.
        assert burns["latency_burn"] == pytest.approx(3.36)
        assert burns["worst_burn"] == pytest.approx(3.36)

    def test_recall_burn_scales_loss_against_floor(self):
        plane = SloPlane(SloSpec(recall_floor=0.9), MetricsRegistry())
        for i in range(100):
            plane.observe_event(now=float(i))
        plane.bind_sources(events_shed=lambda: 5)
        # 5% loss against a 10% allowance: half the budget burned.
        assert plane.burns(now=100.0)["recall_burn"] == pytest.approx(0.5)

    def test_zero_loss_allowance_caps_burn(self):
        plane = SloPlane(SloSpec(recall_floor=1.0), MetricsRegistry())
        plane.observe_event(now=0.0)
        plane.bind_sources(events_shed=lambda: 1)
        assert plane.burns(now=10.0)["recall_burn"] == pytest.approx(1e9)

    def test_fetch_burn_is_wire_rate_over_budget(self):
        plane = SloPlane(SloSpec(fetch_budget=1_000.0), MetricsRegistry())
        plane.observe_event(now=0.0)
        plane.bind_sources(wire_requests=lambda: 2_000)
        # 2000 requests over 1 virtual second = 2000 rps vs a 1000 budget.
        assert plane.burns(now=1e6)["fetch_burn"] == pytest.approx(2.0)

    def test_evaluate_lands_on_registered_gauges_and_counters(self):
        registry = MetricsRegistry()
        plane = SloPlane(SloSpec(latency_bound=10.0), registry)
        plane.observe_match(50.0, now=1.0)
        plane.evaluate(now=2.0)
        snapshot = registry.snapshot()
        assert snapshot["slo.latency_burn"] == pytest.approx(5.0)
        assert snapshot["slo.worst_burn"] == pytest.approx(5.0)
        assert snapshot["slo.evaluations"] == 1
        assert snapshot["slo.breaches"] == 1
        for key in SLO_GAUGE_KEYS:
            assert f"slo.{key}" in snapshot

    def test_worst_burn_caches_between_refresh_intervals(self):
        plane = SloPlane(SloSpec(latency_bound=100.0), MetricsRegistry())
        plane.observe_match(200.0, now=0.0)
        assert plane.worst_burn(now=0.0) == pytest.approx(2.0)
        plane.observe_match(800.0, now=1.0)
        # Inside the refresh interval the cached value still answers.
        assert plane.worst_burn(now=REFRESH_INTERVAL_US / 2) == pytest.approx(2.0)
        assert plane.worst_burn(now=REFRESH_INTERVAL_US) > 2.0

    def test_status_reports_each_declared_objective(self):
        plane = SloPlane(
            SloSpec(latency_bound=100.0, fetch_budget=500.0), MetricsRegistry()
        )
        plane.observe_match(50.0, now=1.0)
        status = plane.status(now=10.0)
        assert set(status["objectives"]) == {"latency_burn", "fetch_burn"}
        assert status["objectives"]["latency_burn"]["ok"]
        assert status["objectives"]["latency_burn"]["target"] == 100.0


class TestSloInRun:
    def _slo_run(self, **config_fields):
        config = EiresConfig(**config_fields)
        workload = bursty_workload(BurstyConfig(n_events=2_000))
        sink = MemorySink()
        eires = EIRES(
            workload.query, workload.store, workload.latency_model,
            strategy="Hybrid", config=config, tracer=Tracer(sink, track="Hybrid"),
        )
        result = eires.run(workload.stream)
        return eires, result, sink

    @pytest.fixture(scope="class")
    def plain_and_slo(self):
        """The overloaded scenario replayed once without and once with a
        latency SLO, for the tests that only read the outcome."""
        return self._slo_run(), self._slo_run(slo_latency_bound=150.0)

    def test_slo_plane_gauges_land_in_metrics_snapshot(self, plain_and_slo):
        eires, result, _ = plain_and_slo[1]
        assert eires.runtime.slo is not None
        assert result.metrics["slo.evaluations"] > 0
        assert result.metrics["slo.worst_burn"] > 1.0  # overloaded scenario

    def test_slo_plane_alone_changes_no_results(self, plain_and_slo):
        (_, plain, _), (_, with_slo, _) = plain_and_slo
        assert with_slo.match_signatures() == plain.match_signatures()
        plain_row = {k: v for k, v in plain.summary().items() if not k.startswith("slo.")}
        slo_row = {k: v for k, v in with_slo.summary().items() if not k.startswith("slo.")}
        assert slo_row == plain_row

    def test_detector_sheds_on_slo_burn_alone(self):
        eires, result, sink = self._slo_run(
            shed_policy="events", slo_latency_bound=150.0, slo_in_detector=True
        )
        shed = [r for r in sink.records if r["cat"] == "shed"]
        assert shed, "SLO burn alone must trip the detector"
        assert all(r["latency_bound"] is None and r["run_budget"] is None for r in shed)
        assert all(r["slo_burn"] > 1.0 for r in shed)
        replay = replay_trace(sink.records)
        assert replay["checked_shed"] == len(shed)
        assert replay["problems"] == []

    def test_shed_records_without_slo_detector_carry_no_burn(self):
        _, _, sink = self._slo_run(shed_policy="events", latency_bound=150.0)
        shed = [r for r in sink.records if r["cat"] == "shed"]
        assert shed
        assert all("slo_burn" not in r for r in shed)

    def test_slo_in_detector_requires_an_objective(self):
        with pytest.raises(ValueError):
            EiresConfig(slo_in_detector=True)

    def test_shed_policy_requires_some_trigger(self):
        with pytest.raises(ValueError):
            EiresConfig(shed_policy="events")


class TestSeriesSampler:
    def test_samples_align_to_cadence_grid(self):
        registry = MetricsRegistry()
        counter = CounterGroup("x", ("n",), registry)
        sampler = SeriesSampler(registry, interval=100.0)
        assert not sampler.due(50.0)
        counter.n += 1
        assert sampler.due(130.0) and sampler.maybe_sample(130.0)
        # A long stall skips boundaries: one sample for the last crossed.
        counter.n += 1
        assert sampler.maybe_sample(450.0)
        assert not sampler.maybe_sample(460.0)
        sampler.finalize(470.0)
        rows = sampler.rows()
        assert [row["t"] for row in rows] == [100.0, 400.0, 470.0]
        assert [row["at"] for row in rows] == [130.0, 450.0, 470.0]
        assert [row["final"] for row in rows] == [False, False, True]
        assert [row["metrics"]["x.n"] for row in rows] == [1, 2, 2]

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            SeriesSampler(MetricsRegistry(), interval=0.0)

    def test_window_boundary_histogram_snapshot(self):
        """A sample taken right after window eviction sees only live data."""
        registry = MetricsRegistry()
        hist = registry.histogram("lat.us")
        window = HISTOGRAM_WINDOW_US
        sampler = SeriesSampler(registry, interval=window / 2)
        hist.observe(10.0, t=0.0)
        sampler.maybe_sample(window / 2)
        hist.observe(500.0, t=1.5 * window)  # evicts the t=0 sample
        sampler.maybe_sample(1.5 * window)
        first, second = sampler.rows()
        assert first["metrics"]["lat.us"]["p50"] == 10.0
        assert second["metrics"]["lat.us"]["p50"] == 500.0
        assert second["metrics"]["lat.us"]["windowed_count"] == 1
        assert second["metrics"]["lat.us"]["count"] == 2  # totals keep history

    def test_jsonl_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.gauge("a.b").set(3)
        registry.histogram("c.d").observe(1.5, t=10.0)
        sampler = SeriesSampler(registry, interval=10.0)
        sampler.maybe_sample(10.0)
        sampler.finalize(25.0)
        path = str(tmp_path / "series.jsonl")
        assert write_series_jsonl(sampler.rows(), path) == 2
        assert load_series_jsonl(path) == sampler.rows()

    def test_run_series_is_deterministic(self):
        config = EiresConfig(series_interval=500.0)
        first = run_strategy(q1(), "Hybrid", config)
        second = run_strategy(q1(), "Hybrid", config)
        assert first.series is not None and len(first.series) > 1
        assert first.series == second.series
        assert "series" not in first.summary()


class TestExporterEdgeCases:
    def test_empty_trace_exports(self, tmp_path):
        assert chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ns"}
        assert folded_spans([]) == []
        assert aggregate_spans([]) == {
            "matches": 0,
            "latency_total": 0.0,
            "components": {
                name: {"total": 0.0, "mean": 0.0, "share": 0.0}
                for name in SPAN_COMPONENTS
            },
        }
        path = str(tmp_path / "empty.folded")
        assert write_folded([], path) == 0
        assert Path(path).read_text() == ""

    def test_chrome_export_of_span_records(self):
        trace = chrome_trace([span_record()])
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 1
        event = spans[0]
        assert event["name"] == f"{CAT_SPAN}.{SPAN_RECORD_NAME}"
        assert event["dur"] == 42.0
        for component in SPAN_COMPONENTS:
            assert component in event["args"]

    def test_folded_spans_accumulate_by_track_and_component(self):
        records = [
            span_record(),
            span_record(seq=1, wire=10.0, eval=5.0, latency=15.0, dur=15.0),
            span_record(seq=2, track="BL1", wire=7.0, eval=0.0, latency=7.0, dur=7.0),
        ]
        assert folded_spans(records) == [
            "BL1;match;wire 7",
            "Hybrid;match;eval 17",
            "Hybrid;match;wire 40",
        ]

    def test_folded_spans_prefer_query_over_track(self):
        lines = folded_spans([span_record(query="q9")])
        assert all(line.startswith("q9;") for line in lines)


class TestValidateRequirements:
    def _write_trace(self, tmp_path, records):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(records, path)
        return path

    @pytest.fixture(scope="class")
    def full_trace(self, tmp_path_factory):
        """One traced run for the class, as a Chrome trace file: the bursty
        workload actually overloads the detector, so the trace carries
        shedding decisions next to the batching lifecycle."""
        sink = MemorySink()
        run_strategy(
            bursty_workload(BurstyConfig(n_events=2_000)), "Hybrid",
            EiresConfig(batch_window=60.0, batch_max_keys=8,
                        shed_policy="events", latency_bound=200.0),
            tracer=Tracer(sink, track="Hybrid"),
        )
        return self._write_trace(tmp_path_factory.mktemp("full"), sink.records)

    def test_batching_and_shedding_requirements_pass_on_enabled_run(self, full_trace):
        counts = validate_chrome_trace(
            full_trace,
            require_names=("fetch.enqueue", "fetch.batch_issue", "shed.shed_decision"),
        )
        assert counts["span"] > 0

    def test_missing_required_names_fail(self, tmp_path):
        sink = MemorySink()
        run_strategy(q1(), "Hybrid", EiresConfig(), tracer=Tracer(sink, track="Hybrid"))
        path = self._write_trace(tmp_path, sink.records)
        with pytest.raises(ValueError, match="fetch.batch_issue"):
            validate_chrome_trace(path, require_names=("fetch.batch_issue",))

    def test_cli_flags(self, tmp_path, full_trace):
        from repro.obs import validate

        assert validate.main([full_trace, "--require-batching", "--require-shedding"]) == 0
        assert validate.main([str(tmp_path / "missing.json")]) == 1


class TestHealthReport:
    def test_report_renders_all_sections(self):
        sink = MemorySink()
        result = run_strategy(q1(), "Hybrid", EiresConfig(),
                              tracer=Tracer(sink, track="Hybrid"))
        text = format_health_report(
            "q1 health",
            result.summary(),
            aggregate_spans(sink.records),
            slo_status={"objectives": {"latency_burn": {
                "target": 100.0, "burn": 0.5, "ok": True}}, "worst_burn": 0.5},
            replay=replay_trace(sink.records),
            series_samples=7,
        )
        assert "Latency attribution" in text
        assert "SLO status" in text
        assert "Series: 7 samples" in text
        assert "0 inconsistencies" in text
        assert "p50=" in text and "p99=" in text

    def test_report_degrades_without_matches_or_slo(self):
        text = format_health_report("empty", {"matches": 0}, aggregate_spans([]))
        assert "no matches" in text
        assert "SLO" not in text


class TestBenchDiff:
    BASE = {"name": "BENCH_x", "rows": [
        {"strategy": "Hybrid", "policy": "none", "latency_bound": None,
         "matches": 100, "p50": 10.0, "p95": 25.0},
        {"strategy": "Hybrid", "policy": "events", "latency_bound": 200.0,
         "matches": 90, "p50": 8.0, "p95": 18.0},
    ]}

    def _write(self, tmp_path, name, data):
        directory = tmp_path / name
        directory.mkdir(exist_ok=True)
        (directory / "BENCH_x.json").write_text(json.dumps(data))
        return str(directory)

    def test_identical_results_pass(self, tmp_path):
        base = self._write(tmp_path, "base", self.BASE)
        fresh = self._write(tmp_path, "fresh", self.BASE)
        assert bench_diff.main([base, fresh]) == 0

    def test_regression_beyond_tolerance_fails(self, tmp_path):
        regressed = json.loads(json.dumps(self.BASE))
        regressed["rows"][0]["p95"] = 250.0
        base = self._write(tmp_path, "base", self.BASE)
        fresh = self._write(tmp_path, "fresh", regressed)
        assert bench_diff.main([base, fresh]) == 1
        assert bench_diff.main([base, fresh, "--rel-tol", "100"]) == 0

    def test_missing_row_field_and_identity_drift_fail(self, tmp_path):
        problems = bench_diff.compare_rows(self.BASE["rows"], [], 0.0, 0.0)
        assert problems
        mutated = json.loads(json.dumps(self.BASE["rows"]))
        del mutated[0]["p95"]
        mutated[1]["policy"] = "runs"
        problems = bench_diff.compare_rows(self.BASE["rows"], mutated, 0.0, 0.0)
        assert any("missing" in p for p in problems)
        assert any("policy" in p for p in problems)

    def test_reordered_rows_pass(self):
        reordered = list(reversed(self.BASE["rows"]))
        assert bench_diff.compare_rows(self.BASE["rows"], reordered, 0.0, 0.0) == []

    def test_dropped_row_is_named_removed(self):
        problems = bench_diff.compare_rows(
            self.BASE["rows"], self.BASE["rows"][:1], 0.0, 0.0
        )
        assert problems == [
            "row (policy=events/strategy=Hybrid) removed: "
            "in the baseline, not in fresh results"
        ]

    def test_extra_row_is_named_added(self):
        extra = {"strategy": "LzEval", "policy": "none", "latency_bound": None,
                 "matches": 100, "p50": 12.0, "p95": 30.0}
        problems = bench_diff.compare_rows(
            self.BASE["rows"], self.BASE["rows"] + [extra], 0.0, 0.0
        )
        assert problems == [
            "row (policy=none/strategy=LzEval) added: "
            "in fresh results, not in the baseline"
        ]

    def test_none_bound_must_reproduce_exactly(self, tmp_path):
        mutated = json.loads(json.dumps(self.BASE["rows"]))
        mutated[0]["latency_bound"] = 5.0
        problems = bench_diff.compare_rows(self.BASE["rows"], mutated, 1.0, 1.0)
        assert any("latency_bound" in p for p in problems)

    def test_missing_fresh_file_fails(self, tmp_path):
        base = self._write(tmp_path, "base", self.BASE)
        empty = tmp_path / "fresh"
        empty.mkdir()
        assert bench_diff.main([base, str(empty)]) == 1

    def test_committed_baselines_match_a_fresh_smoke_run(self, tmp_path):
        """The CI gate contract: a fresh smoke run reproduces the committed
        baselines (run the cheaper batching bench only)."""
        env_dir = tmp_path / "fresh"
        env_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "benchmarks" / "bench_batching.py"),
             "--smoke"],
            env={"REPRO_RESULTS_DIR": str(env_dir),
                 "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        problems = bench_diff.diff_files(
            str(REPO_ROOT / "results" / "baselines" / "BENCH_batching.json"),
            str(env_dir / "BENCH_batching.json"),
            bench_diff.DEFAULT_REL_TOL, bench_diff.DEFAULT_ABS_TOL,
        )
        assert problems == []


class TestPerfCountGate:
    """Each exact-count row fails on a block doctored past its bound."""

    @staticmethod
    def _block(gate, ratio):
        """A ``--trace 1`` block holding ``gate`` at ``ratio``.

        The event count and every denominator are one power of two, so the
        gate's scaling of ``*_per_event`` rows by the event count is exact.
        """
        unit = 8.0
        metrics = {"engine.process_event.calls": unit}
        metrics.update(dict.fromkeys(gate.numerators, 0.0))
        metrics.update(dict.fromkeys(gate.denominators, unit))
        numerator = gate.numerators[0]
        per_event = numerator.endswith("_per_event")
        metrics[numerator] = ratio * len(gate.denominators) * (1.0 if per_event else unit)
        return {
            "correct": True,
            "metrics": {name: {"value": value} for name, value in metrics.items()},
        }

    @pytest.mark.parametrize("gate", perf_count_gate.GATES, ids=lambda gate: gate.name)
    def test_row_holds_at_its_bound_and_fails_beyond_it(
        self, gate, tmp_path, capsys, monkeypatch
    ):
        # The row alone: rows of one workload share numerators, so a block
        # doctored for one row says nothing about the others.
        monkeypatch.setattr(perf_count_gate, "GATES", (gate,))
        path = tmp_path / "block.json"
        path.write_text(json.dumps(self._block(gate, gate.bound)))
        assert perf_count_gate.main([gate.workload, str(path)]) == 0
        path.write_text(json.dumps(self._block(gate, gate.bound * 1.5)))
        assert perf_count_gate.main([gate.workload, str(path)]) == 1
        assert gate.message in capsys.readouterr().err

    def test_incorrect_block_fails(self, tmp_path, capsys):
        path = tmp_path / "block.json"
        path.write_text(json.dumps({"correct": False, "metrics": {}}))
        assert perf_count_gate.main(["guard_heavy", str(path)]) == 1
        assert "not correct" in capsys.readouterr().err


class TestCacheBound:
    """The MIN tool's demand sequence is the one the cache saw, and MIN
    bounds what both policies got from it."""

    def test_lru_simulation_reproduces_the_run_and_min_bounds_both(self):
        workload = q2_workload(SyntheticConfig(n_events=400, id_domain=8, window_events=100))
        capacity = 16
        lru_run, keys = cache_bound.demand_run(workload, CACHE_LRU, capacity)
        cost_run, cost_keys = cache_bound.demand_run(workload, CACHE_COST, capacity)
        assert cost_keys == keys  # BL2 under a COUNT window: policy-independent
        assert len(keys) > len(set(keys)) > capacity  # the cache is contended
        assert cache_bound.lru_hits(keys, capacity) == lru_run
        bound = cache_bound.min_hits(keys, capacity)
        assert bound >= max(lru_run, cost_run)
        assert bound > lru_run  # not vacuous: MIN finds headroom here

    def test_min_evicts_the_furthest_next_request(self):
        # a b c a b d a b c in two entries, each missed key admitted: MIN
        # keeps a (wanted soonest) and hits it twice; LRU evicts every key
        # just before it comes back.
        keys = list("abcabdabc")
        assert cache_bound.min_hits(keys, 2) == 2
        assert cache_bound.lru_hits(keys, 2) == 0
        assert cache_bound.min_hits(keys, 4) == cache_bound.lru_hits(keys, 4) == 5


class TestOpcodeCount:
    """The opcode probe: exact, so two counts of one replay agree."""

    def test_two_counts_of_a_q1_replay_agree_and_fold_into_the_total(self):
        workload = q1_workload(SyntheticConfig(n_events=200, id_domain=5, window_events=120))

        def replay():
            return run_strategy(workload, "Hybrid", EiresConfig())

        replay()  # warm every lazily built cache first
        first = opcode_count.count_opcodes(replay)
        second = opcode_count.count_opcodes(replay)
        assert first == second
        layers = opcode_count.fold(first)
        assert sum(layers.values()) == sum(first.values()) > 0
        guards = sum(count for filename, count in first.items()
                     if os.path.basename(filename).startswith("<guard "))
        assert 0 < guards < layers["query"]
        assert {"engine", "strategies", "query", "nfa"} <= set(layers)

    def test_garbage_left_before_a_count_is_not_counted(self):
        # Cyclic garbage whose ``__del__`` runs Python code: a collection
        # started inside the traced call would run it and count it.
        workload = q1_workload(SyntheticConfig(n_events=200, id_domain=5, window_events=120))

        def replay():
            return run_strategy(workload, "Hybrid", EiresConfig())

        class Cycle:
            def __del__(self):
                sum(range(50))

        def leave_garbage():
            for _ in range(200):
                cycle = Cycle()
                cycle.self = cycle

        replay()
        leave_garbage()
        first = opcode_count.count_opcodes(replay)
        second = opcode_count.count_opcodes(replay)
        assert first == second

    @pytest.mark.parametrize(
        ("path", "layer"),
        [
            (os.path.join("src", "repro", "engine", "engine.py"), "engine"),
            (os.path.join("src", "repro", "query", "<guard 0123456789abcdef>"), "query"),
            (os.path.join("src", "repro", "cli.py"), "repro"),
            (os.path.join("lib", "python3", "random.py"), "py"),
            ("<string>", "py"),
        ],
    )
    def test_files_fold_into_their_package(self, path, layer):
        assert opcode_count.layer_of(os.sep + path) == layer

    def test_the_command_prints_a_row_per_package(self, capsys):
        assert opcode_count.main(["q1_hybrid", "--scale", "0.01"]) == 0
        header, total, *rows = capsys.readouterr().out.splitlines()
        assert header == "q1_hybrid seed=42 scale=0.01 events=70"
        per_event = float(total.split()[1])
        assert sum(float(row.split()[1]) for row in rows) == pytest.approx(per_event, rel=1e-3)
        assert any(row.split()[0] == "query" for row in rows)

