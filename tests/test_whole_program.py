"""Tests for the whole-program analysis engine.

Covers the layers the per-module fixture corpus cannot: call-graph
resolution (self-methods, re-export aliases), the interprocedural taint
fixpoint, purity inference, registry-drift cross-checks, and the
incremental cache (warm findings byte-identical to cold, edits
invalidating exactly the dirty modules).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import ModuleIndex, analyze
from repro.analysis.cache import AnalysisCache
from repro.analysis.callgraph import build_call_graph
from repro.analysis.cli import main
from repro.analysis.taint import taint_analysis

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return root


class TestCallGraphResolution:
    def test_self_method_calls_resolve(self, tmp_path):
        write_tree(tmp_path, {
            "m.py": (
                "class Engine:\n"
                "    def step(self):\n"
                "        return self.helper()\n"
                "    def helper(self):\n"
                "        return 1\n"
            ),
        })
        index = ModuleIndex([tmp_path], package_root=tmp_path)
        (module,) = index.modules
        # The satellite fix: self.helper() lands in the flat call table ...
        assert ("repro.m.Engine.helper", 3) in module.calls
        # ... and resolves to a call-graph edge.
        graph = build_call_graph(index)
        edges = dict(graph.edges["m.py::Engine.step"])
        assert edges[0] == "m.py::Engine.helper"

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
        # The satellite fix: the alias resolves through the package
        # __init__ re-export to the defining module.
        assert client.bindings["EiresConfig"] == "repro.core.config.EiresConfig"
        assert ("repro.core.config.EiresConfig", 2) in client.calls
        graph = build_call_graph(index)
        edges = dict(graph.edges["client.py::<module>"])
        assert edges[0] == "core/config.py::EiresConfig.__init__"

    def test_real_tree_reexports_resolve(self):
        index = ModuleIndex([REPO_ROOT / "src"])
        assert index.canonical_name("repro.EiresConfig").startswith("repro.core.config")

    def test_dirty_region_includes_transitive_importers(self, tmp_path):
        write_tree(tmp_path, {
            "a.py": "from repro.b import mid\n",
            "b.py": "from repro.c import low\n\n\ndef mid():\n    return low()\n",
            "c.py": "def low():\n    return 1\n",
            "lone.py": "x = 1\n",
        })
        graph = build_call_graph(ModuleIndex([tmp_path], package_root=tmp_path))
        assert graph.dirty_region({"c.py"}) == ["a.py", "b.py", "c.py"]
        assert graph.dirty_region({"a.py"}) == ["a.py"]
        assert graph.dirty_region({"lone.py"}) == ["lone.py"]


class TestTaint:
    def test_two_hop_wall_clock_leak_across_modules(self, tmp_path):
        write_tree(tmp_path, {
            "clockio.py": (
                "import time\n\n\n"
                "def raw_now():\n"
                "    return time.time()\n"
            ),
            "reporter.py": (
                "from repro.clockio import raw_now\n\n\n"
                "def stamp(offset):\n"
                "    return raw_now() + offset\n\n\n"
                "def report(tracer, offset):\n"
                "    if tracer.enabled:\n"
                "        tracer.emit('span', {'at': stamp(offset)})\n"
            ),
        })
        result = analyze([tmp_path], rule_ids=["T1"], package_root=tmp_path)
        (finding,) = result.findings
        # The finding anchors at the SOURCE (the time.time() line) and
        # names the sink it reaches.
        assert finding.rel == "clockio.py" and finding.line == 5
        assert "emit" in finding.message

    def test_argument_into_callee_sink(self, tmp_path):
        write_tree(tmp_path, {
            "m.py": (
                "import time\n\n\n"
                "def sinker(tracer, value):\n"
                "    tracer.emit('span', value)\n\n\n"
                "def driver(tracer):\n"
                "    sinker(tracer, time.time())\n"
            ),
        })
        result = analyze([tmp_path], rule_ids=["T1"], package_root=tmp_path)
        assert [f.line for f in result.findings] == [9]

    def test_self_attribute_store_channel(self, tmp_path):
        write_tree(tmp_path, {
            "m.py": (
                "import time\n\n\n"
                "class Probe:\n"
                "    def arm(self):\n"
                "        self.started = time.time()\n\n"
                "    def report(self, tracer):\n"
                "        tracer.emit('span', self.started)\n"
            ),
        })
        result = analyze([tmp_path], rule_ids=["T1"], package_root=tmp_path)
        assert [f.line for f in result.findings] == [6]

    def test_sorted_strips_order_but_not_clock(self, tmp_path):
        write_tree(tmp_path, {
            "m.py": (
                "def keys(index):\n"
                "    return sorted(set(index))\n\n\n"
                "def flush(registry, index):\n"
                "    for key in keys(index):\n"
                "        registry.counter('c').inc(key)\n"
            ),
        })
        result = analyze([tmp_path], rule_ids=["T3"], package_root=tmp_path)
        assert result.findings == []

    def test_sim_modules_are_sanitizers(self, tmp_path):
        write_tree(tmp_path, {
            "sim/clock.py": (
                "import time\n\n\n"
                "def anchor():\n"
                "    return time.time()\n"
            ),
            "runtime/loop.py": (
                "from repro.sim.clock import anchor\n\n\n"
                "def report(tracer):\n"
                "    tracer.emit('span', anchor())\n"
            ),
        })
        result = analyze([tmp_path], rule_ids=["T1"], package_root=tmp_path)
        assert result.findings == []

    def test_allow_comment_on_source_sanctions_downstream_flow(self, tmp_path):
        write_tree(tmp_path, {
            "m.py": (
                "import time\n\n\n"
                "def raw():\n"
                "    return time.time()  # eires: allow[D1] boot stamp for logs\n\n\n"
                "def report(tracer):\n"
                "    tracer.emit('span', raw())\n"
            ),
        })
        result = analyze([tmp_path], rule_ids=["T1"], package_root=tmp_path)
        assert result.findings == []

    def test_rng_taint_through_two_hops(self, tmp_path):
        write_tree(tmp_path, {
            "m.py": (
                "import random\n\n\n"
                "def jitter():\n"
                "    return random.random()\n\n\n"
                "def scaled(base):\n"
                "    return base + jitter()\n\n\n"
                "def score(run, now):\n"
                "    return now + scaled(1.0)\n\n\n"
                "def decide(shedder, run, now):\n"
                "    shedder.submit(score(run, now))\n"
            ),
        })
        engine = taint_analysis(ModuleIndex([tmp_path], package_root=tmp_path))
        kinds = {flow.kind for flow in engine.flows()}
        assert kinds == {"rng"}


class TestPurity:
    def test_transitive_effect_through_helper(self, tmp_path):
        write_tree(tmp_path, {
            "utility/model.py": (
                "class UtilityModel:\n"
                "    def _bump(self):\n"
                "        self.count = 1\n\n"
                "    def value(self, run, now):\n"
                "        self._bump()\n"
                "        return now\n"
            ),
        })
        result = analyze([tmp_path], rule_ids=["P1"], package_root=tmp_path)
        (finding,) = result.findings
        assert "value" in finding.message and "_bump" in finding.message

    def test_fresh_local_mutation_is_pure(self, tmp_path):
        write_tree(tmp_path, {
            "utility/model.py": (
                "class UtilityModel:\n"
                "    def value(self, run, now):\n"
                "        acc = []\n"
                "        acc.append(now)\n"
                "        table = {}\n"
                "        table['x'] = now\n"
                "        return sum(acc)\n"
            ),
        })
        result = analyze([tmp_path], rule_ids=["P1"], package_root=tmp_path)
        assert result.findings == []


class TestContracts:
    def test_injected_unregistered_metric_name_fires_r1(self, tmp_path):
        write_tree(tmp_path, {
            "obs/slo.py": (
                "def setup(registry):\n"
                "    registry.histogram(GHOST_METRIC, (1.0,))\n"
            ),
        })
        result = analyze([tmp_path], rule_ids=["R1"], package_root=tmp_path)
        (finding,) = result.findings
        assert "GHOST_METRIC" in finding.message

    def test_registered_metric_constant_passes_r1(self, tmp_path):
        write_tree(tmp_path, {
            "obs/names.py": 'SLO_METRIC = "slo.latency_us"\n',
            "obs/slo.py": (
                "from repro.obs.names import SLO_METRIC\n\n\n"
                "def setup(registry):\n"
                "    registry.histogram(SLO_METRIC, (1.0,))\n"
            ),
        })
        result = analyze([tmp_path], rule_ids=["R1"], package_root=tmp_path)
        assert result.findings == []

    def test_locally_minted_category_fires_r1(self, tmp_path):
        write_tree(tmp_path, {
            "obs/report.py": (
                "CAT_BOGUS = 'bogus'\n\n\n"
                "def snap(tracer):\n"
                "    if tracer.enabled:\n"
                "        tracer.emit(CAT_BOGUS, {})\n"
            ),
        })
        result = analyze([tmp_path], rule_ids=["R1"], package_root=tmp_path)
        (finding,) = result.findings
        assert "CAT_BOGUS" in finding.message

    def test_category_must_exist_in_trace_module(self, tmp_path):
        write_tree(tmp_path, {
            "obs/trace.py": 'CAT_FETCH = "fetch"\n',
            "obs/report.py": (
                "from repro.obs.trace import CAT_GHOST\n\n\n"
                "def snap(tracer):\n"
                "    if tracer.enabled:\n"
                "        tracer.emit(CAT_GHOST, {})\n"
            ),
        })
        result = analyze([tmp_path], rule_ids=["R1"], package_root=tmp_path)
        (finding,) = result.findings
        assert "CAT_GHOST" in finding.message

    def test_real_registries_match_real_docs(self):
        result = analyze(
            [REPO_ROOT / "src"], rule_ids=["R1", "R2"],
            docs_root=REPO_ROOT / "docs",
        )
        assert result.findings == []


class TestIncrementalCache:
    TREE = {
        "sim/clock.py": "class Clock:\n    def now(self):\n        return 0.0\n",
        "runtime/loop.py": (
            "from repro.sim.clock import Clock\n\n\n"
            "def run():\n"
            "    return Clock().now()\n"
        ),
        "strategies/rogue.py": "import time\nNOW = time.time()\n",
    }

    def test_warm_run_parses_nothing_and_matches_cold(self, tmp_path):
        tree = write_tree(tmp_path / "tree", dict(self.TREE))
        cache_path = tmp_path / "cache.json"

        cold_cache = AnalysisCache(cache_path)
        cold = analyze([tree], package_root=tree, cache=cold_cache)
        cold_cache.write()
        assert cold.parsed_modules == 3 and cold.cached_modules == 0

        warm_cache = AnalysisCache(cache_path)
        warm = analyze([tree], package_root=tree, cache=warm_cache)
        assert warm.parsed_modules == 0 and warm.cached_modules == 3
        # Byte-identical: every finding field, fingerprint, and the
        # suppression records match the cold run exactly.
        assert warm.findings == cold.findings
        assert [f.fingerprint() for f in warm.findings] == [
            f.fingerprint() for f in cold.findings
        ]
        assert [
            (f, s.line, s.rule_ids, s.reason) for f, s in warm.suppressed
        ] == [
            (f, s.line, s.rule_ids, s.reason) for f, s in cold.suppressed
        ]

    def test_edit_invalidates_exactly_the_dirty_module(self, tmp_path):
        tree = write_tree(tmp_path / "tree", dict(self.TREE))
        cache_path = tmp_path / "cache.json"
        cold_cache = AnalysisCache(cache_path)
        analyze([tree], package_root=tree, cache=cold_cache)
        cold_cache.write()

        (tree / "strategies" / "rogue.py").write_text(
            "import time\nNOW = time.time()\nLATER = NOW + 1\n"
        )
        warm_cache = AnalysisCache(cache_path)
        warm = analyze([tree], package_root=tree, cache=warm_cache)
        assert warm.parsed_modules == 1 and warm.cached_modules == 2
        warm_cache.write()
        # The refreshed cache is warm again for the whole tree.
        third_cache = AnalysisCache(cache_path)
        third = analyze([tree], package_root=tree, cache=third_cache)
        assert third.parsed_modules == 0 and third.cached_modules == 3

    def test_analyzer_change_invalidates_the_signature(self, tmp_path):
        tree = write_tree(tmp_path / "tree", dict(self.TREE))
        cache_path = tmp_path / "cache.json"
        cold_cache = AnalysisCache(cache_path)
        analyze([tree], package_root=tree, cache=cold_cache)
        cold_cache.write()

        payload = json.loads(cache_path.read_text())
        payload["signature"] = "0" * 40  # as if the analyzer's sources changed
        cache_path.write_text(json.dumps(payload))
        stale = AnalysisCache(cache_path)
        assert not stale.valid
        result = analyze([tree], package_root=tree, cache=stale)
        assert result.parsed_modules == 3 and result.cached_modules == 0

    def test_rule_subset_runs_bypass_the_cache(self, tmp_path):
        tree = write_tree(tmp_path / "tree", dict(self.TREE))
        cache_path = tmp_path / "cache.json"
        cold_cache = AnalysisCache(cache_path)
        analyze([tree], package_root=tree, cache=cold_cache)
        cold_cache.write()
        warm_cache = AnalysisCache(cache_path)
        subset = analyze(
            [tree], rule_ids=["D1"], package_root=tree, cache=warm_cache
        )
        # Findings cached under all-rules must not leak into a subset run.
        assert subset.parsed_modules == 3
        assert [f.rule for f in subset.findings] == ["D1"]


class TestCliIncrement:
    def test_update_baseline_prunes_and_adds(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "old.py").write_text("import time\nA = time.time()\n")
        baseline = tmp_path / "baseline.json"
        assert main([str(tree), "--baseline", str(baseline), "--write-baseline"]) == 0
        # The old finding disappears; a new one appears.
        (tree / "old.py").write_text("x = 1\n")
        (tree / "new.py").write_text("import random\nB = random.random()\n")
        assert main([str(tree), "--baseline", str(baseline), "--update-baseline"]) == 0
        out = capsys.readouterr().out
        assert "0 kept, 1 added, 1 removed" in out
        # The refreshed baseline masks exactly the new finding.
        assert main([str(tree), "--baseline", str(baseline)]) == 0

    def test_cache_flag_round_trip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "clean.py").write_text("x = 1\n")
        cache = tmp_path / "cache.json"
        assert main([str(tree), "--cache", str(cache)]) == 0
        assert cache.exists()
        capsys.readouterr()
        assert main([str(tree), "--cache", str(cache), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["incremental"]["parsed"] == 0
        assert report["incremental"]["cached"] == 1

    def test_cache_with_rules_subset_warns_and_ignores(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "clean.py").write_text("x = 1\n")
        cache = tmp_path / "cache.json"
        assert main([str(tmp_path), "--cache", str(cache), "--rules", "D1"]) == 0
        assert not cache.exists()
        assert "ignored" in capsys.readouterr().err


class TestRealTreeWholeProgram:
    def test_default_roots_are_clean(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        paths = [p for p in ("src", "benchmarks", "tools", "examples") if Path(p).exists()]
        result = analyze(paths)
        assert result.ok, "\n".join(f.render() for f in result.findings)
