"""Tests for the import-architecture rules A1–A2 (legacy R1–R2) of repro.analysis.

The real tree must pass, and — just as important — the checker must FAIL
when a violation is seeded into a scratch package, or CI's green check
means nothing.
"""

from pathlib import Path

from repro.analysis import analyze
from repro.analysis.cli import main as analysis_main
from tests.helpers import real_tree

REPO_ROOT = Path(__file__).resolve().parents[1]
ARCHITECTURE_RULES = ("A1", "A2")


def check_tree(root: Path) -> list[str]:
    """Architecture violations under ``root`` as ``<pkg-path>:<line>: <message>``."""
    result = analyze([root], rule_ids=ARCHITECTURE_RULES, package_root=root)
    return [
        f"{finding.pkg or finding.rel}:{finding.line}: {finding.message}"
        for finding in result.findings
    ]


def run_cli(root: Path) -> int:
    return analysis_main(
        [str(root), "--package-root", str(root), "--rules", ",".join(ARCHITECTURE_RULES)]
    )


def seed(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


class TestRealTree:
    def test_repo_architecture_holds(self):
        _, result = real_tree()
        assert [f.render() for f in result.findings if f.rule in ARCHITECTURE_RULES] == []

    def test_cli_exit_zero_on_real_tree(self, capsys):
        assert run_cli(REPO_ROOT / "src" / "repro") == 0
        assert "repro.analysis OK" in capsys.readouterr().out


class TestSeededViolations:
    def test_r1_core_importing_strategies_is_flagged(self, tmp_path):
        seed(tmp_path, "engine/rogue.py", "from repro.strategies.base import FetchStrategy\n")
        violations = check_tree(tmp_path)
        assert any("R1" in v and "engine/rogue.py" in v for v in violations)

    def test_r1_core_importing_runtime_is_flagged(self, tmp_path):
        seed(tmp_path, "nfa/rogue.py", "import repro.runtime.builder\n")
        violations = check_tree(tmp_path)
        assert any("R1" in v and "repro.runtime.builder" in v for v in violations)

    def test_r2_transport_construction_outside_runtime_is_flagged(self, tmp_path):
        seed(
            tmp_path, "bench/rogue.py",
            "from repro.remote.transport import Transport\n"
            "transport = Transport(store, latency, rng, monitor)\n",
        )
        violations = check_tree(tmp_path)
        assert any("R2" in v and "Transport" in v for v in violations)

    def test_r2_cache_construction_outside_runtime_is_flagged(self, tmp_path):
        seed(tmp_path, "core/rogue.py", "cache = lru.LRUCache(100)\n")
        violations = check_tree(tmp_path)
        assert any("R2" in v and "LRUCache" in v for v in violations)

    def test_r3_wiring_two_groups_together_is_flagged(self, tmp_path):
        # Wiring a tracer to a transport needs a transport, and building
        # one outside runtime/ is A2's finding, on its own line.
        seed(
            tmp_path, "cli_rogue.py",
            "tracer = Tracer(sink)\ntransport = Transport(store, latency, rng, monitor)\n",
        )
        assert check_tree(tmp_path) == [
            "cli_rogue.py:2: R2 composition root: constructs Transport outside repro.runtime"
        ]

    def test_cli_exit_one_on_seeded_violation(self, tmp_path, capsys):
        seed(tmp_path, "engine/rogue.py", "from repro.core.config import EiresConfig\n")
        assert run_cli(tmp_path) == 1
        assert "FAILED" in capsys.readouterr().out


class TestAllowed:
    def test_composition_root_may_build_everything(self, tmp_path):
        seed(
            tmp_path, "runtime/builder2.py",
            "transport = Transport(store, latency, rng, monitor)\n"
            "cache = LRUCache(100)\ntracer = Tracer(sink)\n",
        )
        assert check_tree(tmp_path) == []

    def test_tracer_alone_is_fine_anywhere(self, tmp_path):
        # Callers construct tracers and hand them INTO the builder.
        seed(tmp_path, "cli2.py", "tracer = Tracer(sink, track='Hybrid')\n")
        assert check_tree(tmp_path) == []

    def test_defining_modules_may_reference_their_class(self, tmp_path):
        seed(tmp_path, "cache/lru.py", "DEFAULT = LRUCache(1)\n")
        assert check_tree(tmp_path) == []
