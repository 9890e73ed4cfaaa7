"""Determinism rules: wall clock (D1), RNG (D2), iteration order (D3),
float equality (D4).

The reproduction's guarantees — seed-identical results, tracing-on/off
byte-identical runs, replayable Eq. 7/Eq. 8 decision provenance — hold only
while no code path reads the wall clock, draws from unseeded randomness, or
lets collection-iteration order leak into decisions.  These rules make the
invariants structural instead of test-enforced.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule, register
from repro.analysis.index import Module, ModuleIndex, dotted_chain

__all__ = ["WallClockRule", "RngRule", "UnorderedIterationRule", "FloatEqualityRule"]

# -- D1 ---------------------------------------------------------------------

#: Call targets that read the host's wall clock (or block on real time).
WALL_CLOCK_TARGETS = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.sleep",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: Package paths allowed to touch real time: the virtual-time substrate
#: itself, and the bench harness (wall-clock measurement of real runtimes).
WALL_CLOCK_ALLOWED_PREFIXES = ("sim/",)
WALL_CLOCK_ALLOWED_FILES = ("bench/harness.py",)


@register
class WallClockRule(Rule):
    id = "D1"
    title = "no wall clock outside sim/ and the bench harness"
    explain = """\
All time in the reproduction is virtual: the VirtualClock advances with the
event stream, transmission latencies are model draws, and every duration
metric is in virtual microseconds.  A single wall-clock read (time.time,
time.perf_counter, datetime.now/utcnow/today, ...) makes a run depend on
host speed and breaks seed-identical replay and trace diffing.

Allowed locations: the sim/ package (it *implements* the time substrate)
and bench/harness.py (measuring real runtimes is the bench harness's job).
Anywhere else, take `now` from the VirtualClock, or justify the read with
`# eires: allow[D1] reason`."""

    def check(self, module: Module, index: ModuleIndex) -> Iterator[Finding]:
        pkg = module.pkg
        if pkg is not None:
            if pkg.startswith(WALL_CLOCK_ALLOWED_PREFIXES) or pkg in WALL_CLOCK_ALLOWED_FILES:
                return
        for target, line in module.calls:
            if target in WALL_CLOCK_TARGETS:
                yield self.finding(
                    module, line,
                    f"wall-clock call {target}() outside sim/ — use the "
                    f"VirtualClock (virtual time) instead",
                )


# -- D2 ---------------------------------------------------------------------

#: The only module allowed to construct generators from the stdlib: the
#: root of the seeded RNG tree.
RNG_ROOT = "sim/rng.py"


@register
class RngRule(Rule):
    id = "D2"
    title = "no random/numpy.random outside sim/rng.py"
    explain = """\
Every stochastic draw flows through the seeded RNG tree rooted in
repro.sim.rng: make_rng(seed) creates the root and spawn(parent, label)
derives decorrelated child streams.  Calling the global `random` module
(random.random(), random.seed(), random.Random(...)) or anything under
numpy.random creates randomness outside the tree, so a single seed no
longer reproduces the run.

Annotating parameters as `random.Random` is fine — the rule flags *calls*
resolving into the random module and any import of numpy.random.  Fix by
accepting an rng parameter or constructing via repro.sim.rng.make_rng /
spawn; justify true exceptions with `# eires: allow[D2] reason`."""

    def check(self, module: Module, index: ModuleIndex) -> Iterator[Finding]:
        if module.pkg == RNG_ROOT:
            return
        for name, line in module.imports:
            if name == "numpy.random" or name.startswith("numpy.random."):
                yield self.finding(
                    module, line,
                    "numpy.random imported — all draws must come from the "
                    "seeded RNG tree (repro.sim.rng)",
                )
        for target, line in module.calls:
            if target == "random" or target.startswith("random."):
                yield self.finding(
                    module, line,
                    f"{target}() draws outside the seeded RNG tree — use "
                    f"repro.sim.rng.make_rng/spawn or an injected rng",
                )
            elif target.startswith("numpy.random."):
                yield self.finding(
                    module, line,
                    f"{target}() draws outside the seeded RNG tree",
                )


# -- D3 ---------------------------------------------------------------------

#: Decision-code packages where iteration order can leak into behaviour.
ORDER_SENSITIVE_PREFIXES = ("strategies/", "cache/", "runtime/", "shedding/")

_SET_BUILTINS = frozenset({"set", "frozenset"})


@register
class UnorderedIterationRule(Rule):
    id = "D3"
    title = "no unsorted set iteration in decision code"
    explain = """\
Inside strategies/, cache/, runtime/, and shedding/ — the code that decides
what to fetch, postpone, cache, evict, and shed — iteration order is
behaviour: ties in utility, victim sampling, and obligation resolution are
broken by whichever element comes first.  Sets iterate in hash order,
which is salted per process for str and bytes (PYTHONHASHSEED).

The rule flags `for ... in` (and comprehensions) over set literals, set
comprehensions and set()/frozenset() calls unless the iterable is wrapped
in sorted(...).  Dict views are not flagged: they iterate in insertion
order, which is a function of the seeded run and is pinned by the whole-run
digests of tests/test_pinned_runs.py.  A set that reaches a loop through a
variable or a return value is invisible here; the pinned suite replayed
under two hash seeds is what catches it on any path a scenario executes."""

    def check(self, module: Module, index: ModuleIndex) -> Iterator[Finding]:
        pkg = module.pkg
        if pkg is None or not pkg.startswith(ORDER_SENSITIVE_PREFIXES):
            return
        if module.tree is None:
            return
        for node in ast.walk(module.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for expr in iters:
                reason = self._unordered(expr)
                if reason is not None:
                    yield self.finding(
                        module, expr.lineno,
                        f"iterates over {reason} — wrap in sorted(...) so "
                        f"decision order cannot depend on hash order",
                    )

    @staticmethod
    def _unordered(expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Set):
            return "a set literal"
        if isinstance(expr, ast.SetComp):
            return "a set comprehension"
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in _SET_BUILTINS:
                return f"{func.id}(...)"
        return None


# -- D4 ---------------------------------------------------------------------

#: The Eq. 5 / Eq. 7 / Eq. 8 modules: utility values and gate thresholds.
FLOAT_GATE_MODULES = (
    "utility/model.py",
    "utility/rates.py",
    "strategies/prefetch.py",
    "strategies/lazy.py",
    "strategies/fetch_plane.py",
    "cache/cost_based.py",
)

#: Calls whose results are float-valued utility/gate quantities.
FLOAT_VALUED_CALLS = frozenset({
    "value",                 # UtilityModel.value — Eq. 5
    "terms",                 # (Eq. 3, Eq. 4 / Eq. 6) in one pass
    "urgent_utility",        # Eq. 3
    "future_utility",        # Eq. 4 / Eq. 6
    "min_utility",           # Eq. 7 threshold
    "estimate",              # monitored latency l-hat
    "estimate_source",
    "effective_estimate",    # fault-adjusted l-hat (Eq. 8 input)
    "extension_rate",        # lambda_i
    "expected_gap",          # 1 / lambda
    "class_count",           # #P_j(k)
})


@register
class FloatEqualityRule(Rule):
    id = "D4"
    title = "no ==/!= on float utility/gate expressions"
    explain = """\
The Eq. 5 utility (omega*UU + (1-omega)*FU), the Eq. 7 admission gate
(candidate utility vs. cache minimum), and the Eq. 8 postponement gate
(delta- vs. delta+) are float computations; exact ==/!= on them encodes a
decision in the last ulp of a rounding pattern, which is exactly the kind
of accidental behaviour a reordered reduction or refactored expression
flips.  Compare with an explicit tolerance (abs(a - b) <= eps,
math.isclose) or an ordering (<, <=), or justify an intentional exact
comparison (e.g. against a sentinel 0.0 that is assigned, never computed)
with `# eires: allow[D4] reason`."""

    def check(self, module: Module, index: ModuleIndex) -> Iterator[Finding]:
        if module.pkg not in FLOAT_GATE_MODULES or module.tree is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._floatish(operand) for operand in operands):
                yield self.finding(
                    module, node.lineno,
                    "float equality on a utility/gate expression — use an "
                    "explicit tolerance or ordering comparison",
                )

    @classmethod
    def _floatish(cls, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Constant):
            return isinstance(expr.value, float)
        if isinstance(expr, ast.UnaryOp):
            return cls._floatish(expr.operand)
        if isinstance(expr, ast.BinOp):
            return cls._floatish(expr.left) or cls._floatish(expr.right)
        if isinstance(expr, ast.Call):
            chain = dotted_chain(expr.func)
            return chain is not None and chain[-1] in FLOAT_VALUED_CALLS
        return False
