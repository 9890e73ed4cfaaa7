"""Tests for the shared benchmark harness."""

import json
import os

import pytest

from repro.bench.harness import (
    ALL_STRATEGIES,
    ExperimentResult,
    results_dir,
    run_strategy,
    run_strategy_suite,
    save_results,
)
from repro.core.config import EiresConfig
from repro.workloads.synthetic import SyntheticConfig, q1_workload


@pytest.fixture()
def tiny_workload():
    return q1_workload(SyntheticConfig(n_events=400, id_domain=10, window_events=200))


class TestRunStrategy:
    def test_produces_run_result(self, tiny_workload):
        result = run_strategy(tiny_workload, "BL2", EiresConfig(cache_capacity=50))
        assert result.strategy_name == "BL2"
        assert result.summary()["engine.events_processed"] == 400

    def test_all_strategies_registered(self):
        assert set(ALL_STRATEGIES) == {"BL1", "BL2", "BL3", "PFetch", "LzEval", "Hybrid"}


class TestRunStrategySuite:
    def test_suite_rows_per_strategy(self, tiny_workload):
        experiment = run_strategy_suite(
            "suite-test", tiny_workload, EiresConfig(cache_capacity=50),
            strategies=("BL2", "Hybrid"), extra_fields={"tag": "x"},
        )
        assert [row["strategy"] for row in experiment.rows] == ["BL2", "Hybrid"]
        assert all(row["tag"] == "x" for row in experiment.rows)

    def test_metric_and_row_access(self, tiny_workload):
        experiment = run_strategy_suite(
            "suite-test", tiny_workload, EiresConfig(cache_capacity=50),
            strategies=("BL2",),
        )
        assert experiment.metric("BL2", "matches") == experiment.rows[0]["matches"]
        with pytest.raises(KeyError):
            experiment.row_for("Hybrid")

    def test_table_renders(self, tiny_workload):
        experiment = run_strategy_suite(
            "render-test", tiny_workload, EiresConfig(cache_capacity=50),
            strategies=("BL2",),
        )
        table = experiment.table()
        assert "render-test" in table
        assert "BL2" in table


class TestSaveResults:
    def test_writes_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        experiment = ExperimentResult("unit test exp", [{"strategy": "BL2", "p50": 1.0}])
        path = save_results(experiment)
        assert os.path.dirname(path) == str(tmp_path)
        with open(path) as handle:
            data = json.load(handle)
        assert data["name"] == "unit test exp"
        assert data["rows"][0]["strategy"] == "BL2"

    def test_results_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "sub"))
        assert results_dir() == str(tmp_path / "sub")
        assert os.path.isdir(results_dir())
