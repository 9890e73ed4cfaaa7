"""Tests for the command-line interface."""

import argparse
import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.cli import (
    CONFIG_FLAGS,
    WORKLOADS,
    _build_config,
    _build_parser,
    _config_defaults,
    main,
)
from repro.core.config import CACHE_LRU, EiresConfig
from repro.engine.engine import NON_GREEDY
from repro.strategies.base import FAIL_OPEN


class TestDescribe:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_describe_prints_automaton(self, workload, capsys):
        assert main(["describe", "--workload", workload]) == 0
        out = capsys.readouterr().out
        assert "Automaton" in out
        assert "Transition" in out


class TestCompare:
    def test_compare_two_strategies(self, capsys):
        code = main([
            "compare", "--workload", "q1", "--events", "800",
            "--strategies", "BL2", "Hybrid",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "BL2" in out and "Hybrid" in out
        assert "p50" in out
        assert "improvement" in out

    def test_compare_single_strategy_no_comparison_line(self, capsys):
        code = main([
            "compare", "--workload", "q2", "--events", "500",
            "--strategies", "BL1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "improvement" not in out

    def test_compare_non_greedy_lru(self, capsys):
        code = main([
            "compare", "--workload", "q1", "--events", "600",
            "--policy", "non_greedy", "--cache", "lru",
            "--strategies", "BL2", "Hybrid", "--capacity", "64",
        ])
        assert code == 0
        assert "lru cache (capacity 64)" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "--workload", "nope"])


class TestConfigFile:
    """--config FILE round-trips TOML into flag defaults."""

    def write_config(self, tmp_path, text):
        path = tmp_path / "eires.toml"
        path.write_text(text)
        return str(path)

    def test_config_file_sets_defaults(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, 'cache_policy = "lru"\ncache_capacity = 64\n'
        )
        code = main([
            "compare", "--workload", "q1", "--events", "400",
            "--strategies", "Hybrid", "--config", path,
        ])
        assert code == 0
        assert "lru cache (capacity 64)" in capsys.readouterr().out

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        path = self.write_config(
            tmp_path, 'cache_policy = "lru"\ncache_capacity = 64\n'
        )
        code = main([
            "compare", "--workload", "q1", "--events", "400",
            "--strategies", "Hybrid", "--config", path, "--cache", "cost",
        ])
        assert code == 0
        assert "cost cache (capacity 64)" in capsys.readouterr().out

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        path = self.write_config(tmp_path, 'cache_polciy = "lru"\n')
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--workload", "q1", "--config", path])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown --config key" in err and "accepted keys" in err

    def test_unreadable_config_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--workload", "q1",
                  "--config", str(tmp_path / "missing.toml")])
        assert exc.value.code == 2
        assert "cannot load --config" in capsys.readouterr().err

    def test_equals_form_is_recognised(self, tmp_path, capsys):
        path = self.write_config(tmp_path, "cache_capacity = 32\n")
        code = main([
            "compare", "--workload", "q1", "--events", "400",
            "--strategies", "Hybrid", f"--config={path}",
        ])
        assert code == 0
        assert "(capacity 32)" in capsys.readouterr().out


class TestServe:
    def test_serve_prints_fleet_and_tenants(self, capsys):
        code = main([
            "serve", "--workload", "q1", "--events", "400",
            "--tenants", "2", "--shards", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet: 2 tenants on 2 shard(s)" in out
        assert "tenant0" in out and "tenant1" in out

    def test_serve_json_schema(self, capsys):
        code = main([
            "serve", "--workload", "q1", "--events", "400",
            "--tenants", "2", "--json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"fleet", "tenants"}
        assert report["fleet"]["n_tenants"] == 2
        assert len(report["tenants"]) == 2
        for row in report["tenants"]:
            assert set(row) == {
                "tenant", "query", "shard", "matches", "admitted",
                "throttled", "p50", "p95",
            }

    def test_serve_rate_limit_throttles(self, capsys):
        code = main([
            "serve", "--workload", "q1", "--events", "800",
            "--tenants", "2", "--rate-limit", "20000", "--burst", "8",
            "--json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fleet"]["throttled"] > 0
        assert all(row["admitted"] + row["throttled"] == 800
                   for row in report["tenants"])

    def test_serve_trace_replays_clean(self, tmp_path, capsys):
        out_path = tmp_path / "serve.trace.jsonl"
        code = main([
            "serve", "--workload", "q1", "--events", "400",
            "--tenants", "2", "--shards", "2",
            "--rate-limit", "20000", "--burst", "8",
            "--trace-out", str(out_path), "--trace-format", "jsonl",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "provenance:" in out and "0 inconsistencies" in out
        assert out_path.exists()

    def test_serve_build_error_exits_two(self, capsys):
        # Three round-robin shards for two tenants leaves one shard empty.
        code = main([
            "serve", "--workload", "q1", "--events", "200",
            "--tenants", "2", "--shards", "3",
        ])
        assert code == 2
        assert "received no tenants" in capsys.readouterr().err

    def test_serve_rejects_unknown_placement(self):
        with pytest.raises(SystemExit):
            main(["serve", "--workload", "q1", "--placement", "astrology"])


def exit_code(argv):
    """``main``'s exit status, whether returned or raised as SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestConfigErrors:
    """Every rejected config value is a worded exit 2, flag and TOML alike."""

    @pytest.mark.parametrize("argv, toml, field", [
        (["compare", "--shed-policy", "events"], None, "shed_policy"),
        (["compare", "--fault-profile", "drop:2"], None, "fault_profile"),
        (["compare", "--policy", "foo"], None, "policy"),
        (["compare"], 'policy = "foo"\n', "policy"),
        (["trace"], 'failure_mode = "open"\n', "failure_mode"),
        (["compare"], "cache_capacity = 64.5\n", "cache_capacity"),
        (["compare"], 'slo_in_detector = "yes"\n', "slo_in_detector"),
    ], ids=["shed-no-bound", "fault-drop-2", "policy-flag", "policy-toml",
            "trace-failure-mode", "capacity-float", "slo-in-detector-str"])
    def test_bad_value_exits_two_naming_the_field(self, argv, toml, field, tmp_path, capsys):
        argv = [*argv, "--workload", "q1", "--events", "100"]
        if toml is not None:
            path = tmp_path / "eires.toml"
            path.write_text(toml)
            argv += ["--config", str(path)]
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and field in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_toml_type_error_names_key_path_and_type(self, tmp_path, capsys):
        path = tmp_path / "eires.toml"
        path.write_text("cache_capacity = 64.5\n")
        assert exit_code(["compare", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: --config key 'cache_capacity' in {path} must be int\n"
        )

    def test_int_widens_to_a_float_field(self, tmp_path):
        path = tmp_path / "eires.toml"
        path.write_text("batch_window = 50\n")
        argv = ["compare", "--config", str(path)]
        config = _build_config(_build_parser(_config_defaults(argv)).parse_args(argv), STUB)
        assert config.batch_window == 50.0 and type(config.batch_window) is float


RUN_COMMANDS = ("compare", "trace", "report", "serve")

#: A valid non-default value for every config key.
NON_DEFAULTS = {
    "policy": NON_GREEDY,
    "cache_policy": CACHE_LRU,
    "cache_capacity": 64,
    "fault_profile": "lossy",
    "failure_mode": FAIL_OPEN,
    "retry_max_attempts": 5,
    "batch_window": 50.0,
    "batch_max_keys": 8,
    "batch_fixed_latency": 20.0,
    "batch_per_key_latency": 4.0,
    "shed_policy": "runs",
    "latency_bound": 200.0,
    "run_budget": 50,
    "slo_latency_bound": 300.0,
    "slo_recall_floor": 0.9,
    "slo_fetch_budget": 1000.0,
    "slo_in_detector": True,
    "series_interval": 500.0,
}

#: Keys whose lone non-default value needs a companion to validate.
COMPANIONS = {
    "shed_policy": {"latency_bound": 200.0},
    "slo_in_detector": {"slo_latency_bound": 300.0},
}

#: Stands in for a workload: the helper reads only the capacity note.
STUB = SimpleNamespace(notes={"cache_capacity": 123})


def subcommand_parsers():
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: subparsers.choices[name] for name in RUN_COMMANDS}


class TestConfigSurface:
    """Flags and --config keys are one table derived from EiresConfig."""

    def test_table_keys_are_config_fields(self):
        fields = {field.name: field.default for field in dataclasses.fields(EiresConfig)}
        assert set(CONFIG_FLAGS) <= set(fields)
        assert set(NON_DEFAULTS) == set(CONFIG_FLAGS)
        assert all(value != fields[name] for name, value in NON_DEFAULTS.items())

    @pytest.mark.parametrize("command", RUN_COMMANDS)
    def test_config_dests_and_defaults_match_the_fields(self, command):
        sub = subcommand_parsers()[command]
        fields = {field.name: field.default for field in dataclasses.fields(EiresConfig)}
        dests = {action.dest for action in sub._actions} & set(fields)
        assert dests == set(CONFIG_FLAGS)
        for name in CONFIG_FLAGS:
            expected = None if name == "cache_capacity" else fields[name]
            assert sub.get_default(name) == expected, name

    @pytest.mark.parametrize("command", RUN_COMMANDS)
    def test_every_key_reaches_the_config(self, command, tmp_path):
        flags = {name: flag for name, (flag, _, _) in CONFIG_FLAGS.items()}
        for key, value in NON_DEFAULTS.items():
            companions = COMPANIONS.get(key, {})
            path = tmp_path / f"{key}.toml"
            path.write_text("".join(
                f"{name} = {json.dumps(v)}\n" for name, v in {key: value, **companions}.items()
            ))
            from_file = [command, "--config", str(path)]
            from_flag = [command, flags[key]] + ([] if value is True else [str(value)])
            for name, v in companions.items():
                from_flag += [flags[name], str(v)]
            for argv in (from_file, from_flag):
                args = _build_parser(_config_defaults(argv)).parse_args(argv)
                assert getattr(_build_config(args, STUB), key) == value, (command, key, argv)
