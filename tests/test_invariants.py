"""Tree-wide invariants, checked over one ``ast`` parse of the repository.

PFetch, LzEval and Hybrid change *when* a match is detected, never *what*, as long as
every run is seeded, virtual-time and independent of hash order, and the runtime is
wired in one place.  Every ``*.py`` under ``src``, ``benchmarks``, ``tools`` and
``examples`` is parsed once per process and checked against :data:`IMPORTS` (A1, R3),
:data:`CONFINEMENTS` (A2, A5-A7), :data:`BANNED` (D1, D2), :data:`WALKS` (A8) and two
tree walks (D3-D5 and M1; M2); the rule catalogue is ``docs/static_analysis.md``.  There is no waiver.
Every rule keeps a seeded violation and a clean snippet in :data:`CASES`, written into
a scratch tree laid out as the ``repro`` package: a ``# !<rule>`` mark names each line
a rule must flag, and no other line may be flagged.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import Iterator, NamedTuple

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
ROOTS = ("src", "benchmarks", "tools", "examples")


class Module(NamedTuple):
    rel: str                     # path from the scan root
    where: str                   # path inside the package, else ``rel``
    packaged: bool
    tree: ast.Module
    imports: list[tuple[str, int]]
    bindings: dict[str, str]     # local name -> dotted origin
    calls: list[tuple[str, int]]  # call targets resolved through bindings
    constructed: list[tuple[str, int]]  # bare name of every C(...) / m.C(...)


def dotted(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None for other expressions."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def parse(path: Path, rel: str, pkg: str | None) -> Module:
    tree = ast.parse(path.read_text(), filename=str(path))
    imports, bindings = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports.append((alias.name, node.lineno))
                top = alias.name.split(".")[0]
                bindings[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            imports.append((node.module, node.lineno))
            for alias in node.names:
                bindings[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    calls, constructed = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            chain = dotted(node.func)
            if chain is not None and chain[0] in bindings:
                calls.append((".".join([bindings[chain[0]], *chain[1:]]), node.lineno))
            constructed.append((chain[-1] if chain else node.func.attr, node.lineno))
    return Module(rel, pkg or rel, pkg is not None, tree, imports, bindings, calls,
                  constructed)


@functools.cache
def real_tree() -> tuple[Module, ...]:
    return tuple(
        parse(path, path.relative_to(REPO).as_posix(),
              path.relative_to(PACKAGE).as_posix() if path.is_relative_to(PACKAGE) else None)
        for root in ROOTS for path in sorted((REPO / root).rglob("*.py")))


def matches(name: str, patterns: tuple[str, ...]) -> bool:
    """``name`` is a pattern or lies under one; ``p.*`` means strictly under."""
    return any(name.startswith(p[:-1]) if p.endswith("*")
               else name == p or name.startswith(p + ".") for p in patterns)


def within(where: str, paths: tuple[str, ...]) -> bool:
    """``where`` is one of ``paths``; a path ending in ``/`` is a directory."""
    return any(where.startswith(p) if p.endswith("/") else where == p for p in paths)


# -- the tables ---------------------------------------------------------------

#: The in-tree consumers of the public API, at the top of the repository.
CONSUMERS = ("examples/", "benchmarks/")
#: rule -> (modules in scope, what they never import, unless it lies under these).
IMPORTS = {
    # The evaluation core sits below the strategy and assembly layers.
    "A1": (("engine/", "nfa/"), ("repro.strategies", "repro.core", "repro.runtime"), ()),
    # In-tree consumers import ``repro`` itself and the public subpackages.
    "R3": (CONSUMERS, ("repro.*",), ("repro.workloads", "repro.bench", "repro.metrics.reporting")),
}
#: rule -> (constructors, the only package paths that may call them, the
#: modules defining each, whether code outside ``repro`` is exempt).
CONFINEMENTS = {
    "A2": (("Transport", "LRUCache", "CostBasedCache"), ("runtime/",), {
        "Transport": ("remote/transport.py",), "LRUCache": ("cache/lru.py",),
        "CostBasedCache": ("cache/cost_based.py",)}, True),
    "A5": (("LoadShedder", "OverloadDetector", "make_shedding_policy"),
           ("runtime/", "shedding/"), {}, True),
    "A6": (("Engine",), ("runtime/",), {"Engine": ("engine/engine.py",)}, False),
    "A7": (("Fleet", "TokenBucket"), ("serving/",), {}, False),
}
RNG_ROOT = "sim/rng.py"
#: rule -> (banned call targets, banned imports, the package paths exempt).
BANNED = {
    # All time is virtual: sim/ implements it, the bench harness measures hosts.
    "D1": (("time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
            "time.monotonic", "time.monotonic_ns", "time.process_time",
            "time.process_time_ns", "time.sleep", "datetime.datetime.now",
            "datetime.datetime.utcnow", "datetime.datetime.today", "datetime.date.today"),
           (), ("sim/", "bench/harness.py")),
    # Every draw comes from the seeded RNG tree.
    "D2": (("random", "numpy.random"), ("numpy.random",), (RNG_ROOT,)),
}
#: Decision code, where set order would break ties (D3).
ORDER_SENSITIVE = ("strategies/", "cache/", "runtime/", "shedding/")
#: The Eq. 5 / Eq. 7 / Eq. 8 modules, and the calls that return their floats (D4).
FLOAT_GATE_MODULES = ("utility/model.py", "utility/rates.py", "strategies/prefetch.py",
                      "strategies/lazy.py", "strategies/fetch_plane.py", "cache/cost_based.py")
FLOAT_VALUED_CALLS = frozenset({
    "value", "terms", "urgent_utility", "future_utility", "min_utility", "estimate",
    "estimate_source", "effective_estimate", "extension_rate", "expected_gap", "class_count"})
#: The only modules that write a clock's ``now``, a plain slot nothing else guards (D5).
CLOCK_WRITERS = ("sim/clock.py", "engine/engine.py")
#: The interpretive walks that shadow a generated evaluator, each with the only
#: ``module::function`` sites outside :data:`WALK_HOMES` that may call it: its
#: fallback, for the error's wording or the failure mode (A8).
WALKS = {
    "interpret_guard": (),
    "_evaluate_with": ("strategies/obligations.py::resolve_predicate",
                       "strategies/obligations.py::resolve_obligation_predicate"),
    "remote_keys": ("strategies/obligations.py::resolve_predicate",),
    "concrete_key": ("utility/model.py::required_keys",),
    "required_keys": ("utility/model.py::on_runs_created",),
}
#: Where the walks live and the reference matcher that is built on them (A8).
WALK_HOMES = ("query/", "engine/reference.py")
#: The trace and metric registries themselves may use raw names (M1, M2).
OBS_REGISTRIES = ("obs/trace.py", "obs/registry.py")
CATEGORY = "repro.obs.trace.CAT_"


# -- the checks: each yields (rule, line, message) ------------------------------

def check_tables(module: Module) -> Iterator[tuple[str, int, str]]:
    where = module.where
    for rule, (scope, never, unless) in IMPORTS.items():
        if within(where, scope):
            for name, line in module.imports:
                if matches(name, never) and not matches(name, unless):
                    yield rule, line, f"imports {name}"
    for rule, (constructors, allowed, defining, package_only) in CONFINEMENTS.items():
        if not (package_only and not module.packaged) and not within(where, allowed):
            for name, line in module.constructed:
                if name in constructors and where not in defining.get(name, ()):
                    yield rule, line, f"constructs {name} outside {', '.join(allowed)}"
    for rule, (calls, imports, exempt) in BANNED.items():
        if not within(where, exempt):
            for name, line in module.imports:
                if matches(name, imports):
                    yield rule, line, f"imports {name}"
            for target, line in module.calls:
                if matches(target, calls):
                    yield rule, line, f"calls {target}()"


def floatish(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, float)
    if isinstance(expr, ast.UnaryOp):
        return floatish(expr.operand)
    if isinstance(expr, ast.BinOp):
        return floatish(expr.left) or floatish(expr.right)
    chain = dotted(expr.func) if isinstance(expr, ast.Call) else None
    return chain is not None and chain[-1] in FLOAT_VALUED_CALLS


def check_nodes(module: Module) -> Iterator[tuple[str, int, str]]:
    """D3, D4, D5 and M1, over one walk of the module."""
    ordered = within(module.where, ORDER_SENSITIVE)
    gate = module.where in FLOAT_GATE_MODULES
    registry = module.where in OBS_REGISTRIES
    clock_writer = module.where in CLOCK_WRITERS
    for node in ast.walk(module.tree):
        if not clock_writer and (
            (isinstance(node, ast.Attribute) and node.attr == "now"
             and isinstance(node.ctx, (ast.Store, ast.Del)))
            or (isinstance(node, ast.Call) and dotted(node.func) == ["setattr"]
                and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "now")):
            yield "D5", node.lineno, "writes a clock's now outside sim/clock.py and the engine"
        if ordered:
            iters = [node.iter] if isinstance(node, (ast.For, ast.AsyncFor)) else [
                gen.iter for gen in getattr(node, "generators", ())]
            for expr in iters:
                called = dotted(expr.func) if isinstance(expr, ast.Call) else None
                if isinstance(expr, (ast.Set, ast.SetComp)) or called in (["set"], ["frozenset"]):
                    yield "D3", expr.lineno, "iterates a set in hash order; wrap it in sorted()"
        if gate and isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and any(
                map(floatish, [node.left, *node.comparators])):
            yield "D4", node.lineno, "float ==/!= on a utility or gate expression"
        if registry or not isinstance(node, ast.Call):
            continue
        if (dotted(node.func) or [""])[-1] == "CounterGroup":
            keys = [*node.args[1:2], *(kw.value for kw in node.keywords if kw.arg == "keys")]
            if keys and isinstance(keys[0], (ast.Tuple, ast.List)):
                yield "M1", keys[0].lineno, "CounterGroup keys inline, not a *_KEYS table"
        if not (isinstance(node.func, ast.Attribute) and node.args):
            continue
        arg, attr = node.args[0], node.func.attr
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if attr in ("emit", "gauge", "histogram"):
                yield "M1", arg.lineno, f"{attr}() given the literal name {arg.value!r}"
        elif attr == "emit" and (chain := dotted(arg)) is not None:
            origin = module.bindings.get(chain[0])
            if origin is None or not ".".join([origin, *chain[1:]]).startswith(CATEGORY):
                yield "M1", arg.lineno, f"category {'.'.join(chain)} is not a registered CAT_*"


def check_walks(module: Module) -> Iterator[tuple[str, int, str]]:
    """A8: an interpretive walk is called only from its named fallback sites."""

    def walk(node: ast.AST, function: str) -> Iterator[tuple[str, int, str]]:
        if isinstance(node, ast.Call):
            chain = dotted(node.func)
            name = node.func.attr if isinstance(node.func, ast.Attribute) else (chain or [""])[-1]
            if name in WALKS and f"{module.where}::{function}" not in WALKS[name]:
                yield "A8", node.lineno, f"calls {name}() outside its fallback sites"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)

    if module.packaged and not within(module.where, WALK_HOMES):
        yield from walk(module.tree, "")


def check_guarded_emit(module: Module) -> Iterator[tuple[str, int, str]]:
    """M2: every ``.emit(...)`` sits lexically under an ``if ...enabled``."""

    def reads_enabled(test: ast.expr) -> bool:
        return any(getattr(node, "attr", getattr(node, "id", None)) == "enabled"
                   for node in ast.walk(test))

    def walk(node: ast.AST, guarded: bool) -> Iterator[tuple[str, int, str]]:
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit" and not guarded):
            yield "M2", node.lineno, "emit() outside an `if tracer.enabled:` guard"
        if isinstance(node, ast.If):
            for child in node.body:
                yield from walk(child, guarded or reads_enabled(node.test))
            for child in [*node.orelse, node.test]:
                yield from walk(child, guarded)
            return
        # A nested callable runs later: its body starts unguarded.
        inner = not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            yield from walk(child, guarded and inner)

    if module.where not in OBS_REGISTRIES:
        yield from walk(module.tree, False)


RULES = {*IMPORTS, *CONFINEMENTS, *BANNED, "D3", "D4", "D5", "M1", "M2", "A8"}


def findings(module: Module) -> list[tuple[str, int, str]]:
    return sorted([*check_tables(module), *check_nodes(module), *check_guarded_emit(module),
                   *check_walks(module)])


# -- the real tree --------------------------------------------------------------

# The whole tree; the shipped package and the benchmarked code; the wiring tables alone.
@pytest.mark.parametrize("roots, rules", [(ROOTS, RULES), (("src", "benchmarks"), RULES),
                                          (ROOTS, {*IMPORTS, *CONFINEMENTS})],
                         ids=["all_roots", "src_and_benchmarks", "architecture_tables"])
def test_real_tree_holds(roots, rules):
    assert [(module.rel, *found) for module in real_tree() if module.rel.split("/")[0] in roots
            for found in findings(module) if found[0] in rules] == []


def test_real_tree_scan_is_not_empty():
    # 117 modules when this floor was set: a lost root fails here.
    assert len(real_tree()) >= 110


def test_every_path_a_table_names_exists():
    # A renamed package must fail here, not turn its rule into a no-op.
    paths = {*ORDER_SENSITIVE, *FLOAT_GATE_MODULES, *OBS_REGISTRIES, *CLOCK_WRITERS, RNG_ROOT,
             *WALK_HOMES, *(site.split("::")[0] for sites in WALKS.values() for site in sites)}
    paths.update(*(scope for scope, _, _ in IMPORTS.values()))
    for _, allowed, defining, _ in CONFINEMENTS.values():
        paths.update(allowed, *defining.values())
    paths.update(*(exempt for _, _, exempt in BANNED.values()))
    assert sorted(p for p in paths - set(CONSUMERS) if not (PACKAGE / p).exists()) == []
    assert [p for p in CONSUMERS if not (REPO / p).is_dir()] == []
    names = {name for _, never, unless in IMPORTS.values() for name in (*never, *unless)}
    assert sorted(name for name in names - {"repro.*"} if not any(
        (PACKAGE.parent / name.replace(".", "/")).with_suffix(suffix).exists()
        for suffix in ("", ".py"))) == []


# -- seeded violations and clean snippets ---------------------------------------

CASES = {
    "A1_bad": ("engine/rogue.py", "from repro.strategies.base import FetchStrategy  # !A1\n"),
    "A1_bad_core": ("engine/rogue.py", "from repro.core.config import EiresConfig  # !A1\n"),
    # CI's seeded copy: the engine module itself importing the strategy layer.
    "A1_bad_engine": ("engine/engine.py",
                      "from repro.strategies.base import FetchStrategy  # !A1\n"),
    "A1_bad_runtime": ("nfa/rogue.py", "import repro.runtime.builder  # !A1\n"),
    "A1_good": ("engine/clean.py", "from repro.nfa.run import Run  # sideways\n"),
    "A2_bad": ("core/rogue.py",
               "from repro.cache.lru import LRUCache\ncache = LRUCache(100)  # !A2\n"),
    "A2_bad_cache": ("core/rogue.py", "cache = lru.LRUCache(100)  # !A2\n"),
    "A2_bad_transport": ("bench/rogue.py", "transport = Transport(store, latency)  # !A2\n"),
    # A tracer is built anywhere; the transport beside it is A2's finding.
    "A2_bad_two_groups": ("cli_rogue.py", "tracer = Tracer()\ntransport = Transport()  # !A2\n"),
    "A2_good": ("runtime/extra_builder.py", "cache = LRUCache(9)\ntransport = Transport(store)\n"),
    "A2_good_composition_root": ("runtime/builder2.py", "transport = Transport(store)\n"
                                 "cache = LRUCache(9)\ntracer = Tracer(sink)\n"),
    "A2_good_tracer": ("cli2.py", "tracer = Tracer(sink, track='Hybrid')\n"),
    "A2_good_defining": ("cache/lru.py", "DEFAULT = LRUCache(1)\n"),
    "A5_bad": ("core/rogue_shedder.py", """
detector = OverloadDetector(latency_bound=100.0)  # !A5
policy = make_shedding_policy("runs", automaton=session.automaton)  # !A5
session.shedder = LoadShedder(detector, policy, clock)  # !A5
"""),
    "A5_good": ("core/uses_builder.py", "config = EiresConfig(shed_policy='runs')\n"),
    "A6_bad": ("strategies/rogue_engine.py", "engine = Engine(automaton, clock)  # !A6\n"),
    "A6_good": ("runtime/assembles_engine.py", "engine = Engine(automaton, clock)\n"),
    "A7_bad": ("core/rogue_fleet.py", "bucket = TokenBucket(rate=100.0)  # !A7\n"
                                      "fleet = Fleet(runtime, buckets=[bucket])  # !A7\n"),
    "A7_good": ("core/uses_fleet_builder.py",
                "FleetBuilder(store, latency).add_tenant(TenantSpec(name, query))\n"),
    "D1_bad": ("strategies/rogue_clock.py", "import time\nlag = time.time() - now  # !D1\n"),
    "D1_good": ("sim/stopwatch.py", "import time\nelapsed = time.perf_counter() - start\n"),
    # CI's seeded pair: wall clock and ambient RNG, each its own rule's finding.
    "D1_D2_bad": ("strategies/rogue.py", "import time\nimport random\n"
                  "NOW = time.time()  # !D1\nX = random.random()  # !D2\n"),
    "D2_bad": ("strategies/rogue_rng.py", "import random\nimport numpy.random  # !D2\n"
               "jitter = random.random()  # !D2\ngenerator = random.Random(seed)  # !D2\n"),
    "D2_bad_aliases": ("strategies/rogue_alias.py", """
import numpy as np
from numpy import random as npr
from time import perf_counter as pc
jitter = np.random.rand(3) * npr.rand() * pc()  # !D1 !D2 !D2
"""),
    "D2_good": ("strategies/clean_rng.py", "import random\n"
                "def jitter(base, rng: random.Random):\n    return base * rng.random()\n"),
    "D3_bad": ("cache/rogue_iter.py", """
victims = [key for key in set(resident)]  # !D3
for key in {key for key, utility in utilities.items() if utility <= 0}:  # !D3
    victims.append(key)
"""),
    "D3_good": ("cache/clean_iter.py", """
victims = [key for key in sorted(set(resident))]
for key, utility in utilities.items():  # dict views keep insertion order
    victims.append(key)
"""),
    "D4_bad": ("strategies/prefetch.py",
               "tie = candidate == cache.min_utility()  # !D4\nzero = candidate != 0.0  # !D4\n"),
    "D4_good": ("strategies/prefetch.py",
                "tie = abs(candidate - cache.min_utility()) <= 1e-9\nbetter = candidate > 0.0\n"),
    # The clock is a plain slot: any other writer could rewind virtual time.
    "D5_bad": ("strategies/rogue_rewind.py", """
ctx.clock.now = deadline  # !D5
clock.now += stall  # !D5
setattr(clock, "now", 0.0)  # !D5
for clock.now in arrivals:  # !D5
    pass
"""),
    "D5_good": ("engine/engine.py", """
now = clock.now
if now > clock.now:
    clock.now = now
self.clock.now += self.cost_model.base_event_cost
"""),
    "D5_good_clock": ("sim/clock.py", "self.now = float(start)\n"),
    "D5_good_reader": ("strategies/clean_reader.py", """
now = ctx.clock.now
utility.tick(ctx.clock.now, counts)
self._now = now  # another attribute
"""),
    "M1_bad": ("strategies/rogue_trace.py", """
CAT_BOGUS = "bogus"
if tracer.enabled:
    tracer.emit("fetch", "issue", now)  # !M1
    tracer.emit(CAT_BOGUS, "issue", now)  # !M1
registry.gauge("fetch.retries").set(1.0)  # !M1
"""),
    "M1_bad_counter_group": ("strategies/rogue_counters.py",
                             'CounterGroup("fetch", ("retries", "stalls"), registry)  # !M1\n'),
    "M1_bad_minted": ("obs/rogue_category.py", 'CAT_ROGUE = "rogue"\nif tracer.enabled:\n'
                      '    tracer.emit(CAT_ROGUE, {})  # !M1\n'),
    "M1_good": ("strategies/clean_trace.py", """
from repro.obs import trace
from repro.obs.trace import CAT_FETCH
if tracer.enabled:
    tracer.emit(CAT_FETCH, "issue", now)
    tracer.emit(trace.CAT_FETCH, "issue", now)
registry.gauge(f"fetch.{key}")
CounterGroup("fetch", STRATEGY_COUNTER_KEYS, registry)
"""),
    "M1_good_registry": ("obs/registry.py", 'GROUP = CounterGroup("g", ("a", "b"))\n'),
    "M2_bad": ("strategies/rogue_guard.py", """
from repro.obs.trace import CAT_FETCH
tracer.emit(CAT_FETCH, "issue", now)  # !M2
if tracer.enabled:
    def later():
        tracer.emit(CAT_FETCH, "issue", now)  # !M2
else:
    tracer.emit(CAT_FETCH, "issue", now)  # !M2
"""),
    "M2_good": ("strategies/clean_guard.py", "from repro.obs.trace import CAT_FETCH\n"
                "if tracer.enabled and now > 0:\n    tracer.emit(CAT_FETCH, 'issue', now)\n"),
    # One evaluator per job: the walk is the generated code's fallback only.
    "A8_bad": ("strategies/obligations.py", """
class ObligationResolution:
    def prepare_blocking(self, run):
        for obligation in run.obligations:
            for predicate in obligation.predicates:
                for key in predicate.remote_keys(obligation.env):  # !A8
                    missing.append(key)

    def resolve_obligation_predicate(self, predicate, env, blocking):
        keys = predicate.remote_keys(env)  # !A8
        return _evaluate_with(predicate, env, values, self.ctx.failure_mode)
"""),
    "A8_bad_anywhere": ("strategies/prefetch.py", """
from repro.query.guards import interpret_guard
from repro.utility.model import required_keys
key = site.ref.concrete_key(run.env)  # !A8
keys = required_keys(run)  # !A8
passed = interpret_guard(predicates, binding, env, event, now)  # !A8
"""),
    "A8_good": ("strategies/obligations.py", """
class ObligationResolution:
    def resolve_predicate(self, transition, predicate, run, env):
        try:
            keys = keys_of(env)
        except Exception:
            keys = predicate.remote_keys(env)
        return _evaluate_with(predicate, env, values, self.ctx.failure_mode)

    def prepare_blocking(self, run):
        keys_of, _ = self._remote[predicate]
        run.required_keys = keys_of(obligation.env)
"""),
    "A8_good_homes": ("engine/reference.py",
                      "keys = predicate.remote_keys(env)\npassed = interpret_guard(p, b, env, e, 0.0)\n"),
    "R3_bad": ("examples/rogue_internal_import.py",
               "from repro.core.config import EiresConfig  # !R3\n"
               "from repro.runtime.builder import RuntimeBuilder  # !R3\n"),
    "R3_good": ("examples/public_surface_demo.py", """
import repro
from repro import EIRES, EiresConfig
from repro.metrics.reporting import format_table
from repro.workloads import synthetic
"""),
}
_MARK = re.compile(r"!([ADMR]\d)")


@pytest.mark.parametrize("case", sorted(CASES))
def test_case(case, tmp_path):
    place, source = CASES[case]
    path = tmp_path / place
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    expected = sorted((rule, number) for number, text in enumerate(source.splitlines(), 1)
                      for rule in _MARK.findall(text.partition("#")[2]))
    assert [(rule, line) for rule, line, _ in findings(parse(path, place, place))] == expected


def test_every_rule_has_a_seeded_violation_and_a_clean_snippet():
    assert {case[:2] for case in CASES if "_bad" in case} == RULES
    assert {case[:2] for case in CASES if "_good" in case} == RULES


def test_every_bad_case_marks_a_seeded_line():
    # A bad case with no mark of its own rule would pass as a clean snippet.
    assert [case for case, (_, source) in CASES.items()
            if "_bad" in case and case[:2] not in _MARK.findall(source)] == []
