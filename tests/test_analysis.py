"""Tests for the repro.analysis static-analysis framework.

Four layers, mirroring how the framework earns its keep:

* the **fixture corpus** — every registered rule must pass on its clean
  snippet and fail on its seeded violation, or the framework's green check
  proves nothing;
* the **framework mechanics** — suppression parsing (with mandatory
  justifications), the JSON report schema, and the ``--explain`` catalogue;
* the **cross-module checks** — re-export canonicalisation over seeded
  scratch packages;
* the **real tree** — the default roots must be clean, which is the
  acceptance bar CI enforces on every push (scanned once per test process:
  :func:`tests.helpers.real_tree`).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis import ModuleIndex, all_rules, analyze, get_rule
from repro.analysis.cli import main
from repro.analysis.core import FRAMEWORK_RULE
from repro.analysis.suppress import parse_suppressions
from tests.helpers import real_tree

FIXTURES = Path(__file__).parent / "analysis_fixtures"

_PLACE = re.compile(r"#\s*eires-fixture:\s*place=(\S+)")


def place_fixture(tmp_path: Path, fixture: Path) -> Path:
    """Copy a fixture to its header-declared package path under tmp_path."""
    source = fixture.read_text()
    match = _PLACE.search(source.splitlines()[0])
    assert match is not None, f"{fixture.name} lacks a '# eires-fixture: place=' header"
    target = tmp_path / match.group(1)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return target


def fixture_cases() -> list[Path]:
    return sorted(FIXTURES.glob("*_*.py"))


class TestFixtureCorpus:
    def test_every_rule_has_a_good_and_a_bad_fixture(self):
        for rule in all_rules():
            assert (FIXTURES / f"{rule.id}_good.py").exists(), rule.id
            assert (FIXTURES / f"{rule.id}_bad.py").exists(), rule.id

    @pytest.mark.parametrize("fixture", fixture_cases(), ids=lambda p: p.stem)
    def test_fixture(self, fixture: Path, tmp_path: Path):
        rule_id, kind = fixture.stem.split("_", 1)
        assert get_rule(rule_id) is not None, f"fixture for unknown rule {rule_id}"
        place_fixture(tmp_path, fixture)
        result = analyze([tmp_path], rule_ids=[rule_id], package_root=tmp_path)
        flagged = [f for f in result.findings if f.rule == rule_id]
        if kind == "bad":
            assert flagged, f"{fixture.name}: expected a {rule_id} finding, got none"
        else:
            assert not result.findings, (
                f"{fixture.name}: expected clean, got {result.findings}"
            )

    def test_bad_fixtures_report_the_seeded_line(self, tmp_path):
        place_fixture(tmp_path, FIXTURES / "D1_bad.py")
        result = analyze([tmp_path], rule_ids=["D1"], package_root=tmp_path)
        (finding,) = result.findings
        assert "time.time" in finding.message
        assert finding.line > 1  # not the header comment

    def test_m1_flags_an_inline_counter_group_key_list(self, tmp_path):
        source = place_fixture(tmp_path, FIXTURES / "M1_bad.py").read_text().splitlines()
        result = analyze([tmp_path], rule_ids=["M1"], package_root=tmp_path)
        flagged = [source[f.line - 1] for f in result.findings if "CounterGroup" in f.message]
        assert flagged == ['    CounterGroup("fetch", ("retries", "stalls"), registry)']


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return root


class TestRealTree:
    def test_default_roots_are_clean(self):
        _, result = real_tree()
        assert result.ok, "\n".join(f.render() for f in result.findings)
        assert len(result.rule_ids) == 12

    def test_src_and_benchmarks_are_clean(self):
        _, result = real_tree()
        assert [
            f.render() for f in result.findings
            if {"src", "benchmarks"} & set(Path(f.path).parts)
        ] == []

    def test_real_tree_suppressions_all_carry_reasons(self):
        _, result = real_tree()
        for _, suppression in result.suppressed:
            assert suppression.reason


class TestSuppressions:
    def test_parse_single_rule(self):
        suppressions, malformed = parse_suppressions(
            ["x = 1  # eires: allow[D1] bench wall-clock timing"]
        )
        assert malformed == []
        assert suppressions[1].rule_ids == frozenset({"D1"})
        assert suppressions[1].reason == "bench wall-clock timing"

    def test_parse_multiple_rules(self):
        suppressions, _ = parse_suppressions(["y = 2  # eires: allow[D2, M1] seeding"])
        assert suppressions[1].rule_ids == frozenset({"D2", "M1"})

    def test_missing_reason_is_malformed(self):
        suppressions, malformed = parse_suppressions(["z = 3  # eires: allow[D3]"])
        assert suppressions == {}
        assert malformed and "justification" in malformed[0][1]

    def test_non_allow_marker_is_malformed(self):
        _, malformed = parse_suppressions(["w = 4  # eires: disable D3"])
        assert malformed and "malformed" in malformed[0][1]

    def test_suppressed_finding_is_dropped_and_recorded(self, tmp_path):
        rogue = tmp_path / "rogue.py"
        rogue.write_text(
            "import time\n"
            "START = time.time()  # eires: allow[D1] process start stamp for logs\n"
        )
        result = analyze([tmp_path], rule_ids=["D1"])
        assert result.findings == []
        assert len(result.suppressed) == 1
        finding, suppression = result.suppressed[0]
        assert finding.rule == "D1"
        assert suppression.reason == "process start stamp for logs"

    def test_suppression_for_other_rule_does_not_mask(self, tmp_path):
        rogue = tmp_path / "rogue.py"
        rogue.write_text("import time\nSTART = time.time()  # eires: allow[D2] wrong id\n")
        result = analyze([tmp_path], rule_ids=["D1"])
        assert [f.rule for f in result.findings] == ["D1"]

    @pytest.mark.parametrize("rule_id", ["A3", "D9"])
    def test_suppression_naming_no_registered_rule_is_a_framework_finding(
        self, tmp_path, rule_id
    ):
        (tmp_path / "stale.py").write_text(f"X = 1  # eires: allow[{rule_id}] stale waiver\n")
        # Checked against every registered rule, not only the selected ones.
        result = analyze([tmp_path], rule_ids=["D1"])
        (finding,) = result.findings
        assert finding.rule == FRAMEWORK_RULE and finding.line == 1
        assert rule_id in finding.message

    def test_malformed_suppression_surfaces_as_framework_finding(self, tmp_path):
        rogue = tmp_path / "rogue.py"
        rogue.write_text("x = 1  # eires: allow[D1]\n")
        result = analyze([tmp_path])
        assert [f.rule for f in result.findings] == [FRAMEWORK_RULE]

    def test_syntax_error_surfaces_as_framework_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        result = analyze([tmp_path])
        assert [f.rule for f in result.findings] == [FRAMEWORK_RULE]
        assert "unparseable" in result.findings[0].message


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rogue.py").write_text("import random\nx = random.random()\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "D2" in out and "FAILED" in out

    def test_missing_path_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["no/such/dir"]) == 2

    def test_unknown_rule_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert main([str(tmp_path), "--rules", "Z9"]) == 2

    def test_json_schema(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rogue.py").write_text(
            "import random\n"
            "x = random.random()\n"
            "y = random.random()  # eires: allow[D2] fixture exercising suppressed output\n"
        )
        assert main([str(tmp_path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "schema_version", "rules", "modules", "findings", "suppressed", "ok",
        }
        assert report["schema_version"] == 3 and report["ok"] is False
        assert report["modules"] == 1
        (finding,) = report["findings"]
        assert set(finding) == {"rule", "path", "line", "message"}
        assert finding["rule"] == "D2" and finding["line"] == 2
        (suppressed,) = report["suppressed"]
        assert suppressed["reason"] == "fixture exercising suppressed output"

    def test_explain_every_registered_rule(self, capsys):
        for rule in all_rules():
            assert main(["--explain", rule.id]) == 0
            out = capsys.readouterr().out
            assert rule.id in out and rule.title in out

    def test_explain_unknown_rule(self, capsys):
        assert main(["--explain", "Q7"]) == 2

    def test_list_rules_names_all(self, capsys):
        assert main(["--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == [
            "A1", "A2", "A5", "A6", "A7", "D1", "D2", "D3", "D4", "M1", "M2", "R3",
        ]

    @pytest.mark.parametrize("flag", [
        ["--cache", "x"], ["--changed-since", "HEAD"], ["--baseline", "x"],
        ["--write-baseline"], ["--update-baseline"],
    ], ids=lambda flag: flag[0])
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(flag)
        assert exit_info.value.code == 2


class TestModuleIndex:
    def test_binding_resolution_through_aliases(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "import numpy as np\n"
            "from time import perf_counter as pc\n"
            "x = np.random.rand(3)\n"
            "t = pc()\n"
        )
        (module,) = ModuleIndex([tmp_path]).modules
        targets = {target for target, _ in module.calls}
        assert "numpy.random.rand" in targets
        assert "time.perf_counter" in targets

    def test_package_root_scoping(self, tmp_path):
        target = tmp_path / "strategies" / "s.py"
        target.parent.mkdir()
        target.write_text("x = 1\n")
        (module,) = ModuleIndex([tmp_path], package_root=tmp_path).modules
        assert module.pkg == "strategies/s.py"
        assert module.pkg_top == "strategies"

    def test_reexport_aliases_canonicalize(self, tmp_path):
        write_tree(tmp_path, {
            "__init__.py": "from repro.core.config import EiresConfig\n",
            "core/config.py": (
                "class EiresConfig:\n"
                "    def __init__(self):\n"
                "        self.omega = 1.0\n"
            ),
            "client.py": (
                "from repro import EiresConfig\n"
                "cfg = EiresConfig()\n"
            ),
        })
        index = ModuleIndex([tmp_path], package_root=tmp_path)
        client = next(m for m in index if m.rel == "client.py")
        # The alias resolves through the package __init__ re-export to the
        # defining module.
        assert client.bindings["EiresConfig"] == "repro.core.config.EiresConfig"
        assert ("repro.core.config.EiresConfig", 2) in client.calls

    def test_real_tree_reexports_resolve(self):
        index, _ = real_tree()
        assert index.canonical_name("repro.EiresConfig").startswith("repro.core.config")


class TestContracts:
    def test_locally_minted_category_fires_m1(self, tmp_path):
        write_tree(tmp_path, {
            "obs/report.py": (
                "CAT_BOGUS = 'bogus'\n\n\n"
                "def snap(tracer):\n"
                "    if tracer.enabled:\n"
                "        tracer.emit(CAT_BOGUS, {})\n"
            ),
        })
        result = analyze([tmp_path], rule_ids=["M1"], package_root=tmp_path)
        (finding,) = result.findings
        assert "CAT_BOGUS" in finding.message
