"""M1: metric names and trace categories come from the registered tables.

The observability layer's whole value is that traces and metric snapshots
are diffable across runs and joinable with the declared key tables
(``TRANSPORT_COUNTER_KEYS``, ``STRATEGY_COUNTER_KEYS``,
``CACHE_COUNTER_KEYS``, the ``CAT_*`` trace categories).  A stray string
literal at an emission site is a category the validator has never heard of
and a metric column no table declares — it silently falls out of every
report join.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule, register
from repro.analysis.index import Module, ModuleIndex, dotted_chain

__all__ = ["RegisteredNamesRule"]

#: Modules that define the trace/metric machinery may use raw strings —
#: they are the registry, not clients of it.
DEFINING_MODULES = ("obs/trace.py", "obs/registry.py")

_METRIC_FACTORIES = frozenset({"gauge", "histogram"})

#: Canonical prefix of every registered trace-category constant.
_CATEGORY = "repro.obs.trace.CAT_"


@register
class RegisteredNamesRule(Rule):
    id = "M1"
    title = "trace categories and metric names must be registered constants"
    explain = """\
Trace emission sites must pass one of the CAT_* category constants from
repro.obs.trace as the category argument, and metric cells must be created
through names derived from the registered key tables — never inline string
literals.  The rule flags:

* `tracer.emit("fetch", ...)` — a literal category; pass CAT_FETCH.  A
  category name must be imported (possibly through re-export aliases)
  from repro.obs.trace: a locally minted `CAT_BOGUS = "bogus"` is
  invisible to the trace validator and every docs table.
* `registry.gauge("fetch.retries")` — a stray metric literal; derive the
  name from a key-table constant or declare a named *_METRIC constant next
  to the tables.
* `CounterGroup("fetch", ("retries", "stalls"))` — an inline key list; a
  component's counters are declared by a *_KEYS table, the single source
  of report-column order.

Dynamic names (f-strings over the key tables, scoped-registry prefixes)
are accepted; the defining modules repro.obs.trace and repro.obs.registry
are exempt."""

    def check(self, module: Module, index: ModuleIndex) -> Iterator[Finding]:
        if module.pkg in DEFINING_MODULES or module.tree is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_chain(node.func)
            if chain is not None and chain[-1] == "CounterGroup":
                yield from self._check_group_keys(module, node)
            if not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            if attr == "emit" and node.args:
                yield from self._check_category(module, node.args[0])
            elif attr in _METRIC_FACTORIES and node.args:
                yield from self._check_metric_name(module, attr, node.args[0])

    def _check_category(self, module: Module, arg: ast.expr) -> Iterator[Finding]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            yield self.finding(
                module, arg.lineno,
                f"trace category passed as string literal {arg.value!r} — "
                f"use the CAT_* constants from repro.obs.trace",
            )
            return
        chain = dotted_chain(arg)
        if chain is None:
            return  # computed expression; not statically checkable
        origin = module.bindings.get(chain[0])
        if origin is not None and ".".join([origin, *chain[1:]]).startswith(_CATEGORY):
            return
        yield self.finding(
            module, arg.lineno,
            f"trace category {'.'.join(chain)!r} does not resolve to a "
            f"registered CAT_* constant",
        )

    def _check_metric_name(
        self, module: Module, factory: str, arg: ast.expr
    ) -> Iterator[Finding]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            yield self.finding(
                module, arg.lineno,
                f"metric name passed to {factory}() as stray string literal "
                f"{arg.value!r} — derive it from a registered key-table "
                f"constant (e.g. STRATEGY_COUNTER_KEYS, TRANSPORT_COUNTER_KEYS)",
            )

    def _check_group_keys(self, module: Module, call: ast.Call) -> Iterator[Finding]:
        args = [*call.args[1:2], *(kw.value for kw in call.keywords if kw.arg == "keys")]
        if args and isinstance(args[0], (ast.Tuple, ast.List)):
            yield self.finding(
                module, args[0].lineno,
                "CounterGroup(...) keys passed as an inline literal — declare "
                "them as a *_KEYS table (e.g. STRATEGY_COUNTER_KEYS)",
            )


@register
class GuardedEmissionRule(Rule):
    id = "M2"
    title = "trace emission sites are guarded by `if tracer.enabled`"
    explain = """\
The trace bus's contract (repro.obs.trace) is that the disabled path costs
one attribute read and one branch: instrumented code MUST guard every
`tracer.emit(...)` with `if tracer.enabled:` so untraced runs never build
record dicts, format keys, or walk match events.  An unguarded emit is
silently correct (emit() re-checks the flag) but puts allocation and
formatting work on the hot path of every untraced run — and the guard is
also what keeps tracing-on/off runs byte-identical in cost profiles.

The rule flags `.emit(` calls that are not lexically inside an `if` whose
test reads an `.enabled` attribute.  Helper methods that centralise
emission can justify themselves with `# eires: allow[M2] reason`."""

    def check(self, module: Module, index: ModuleIndex) -> Iterator[Finding]:
        if module.pkg in DEFINING_MODULES or module.tree is None:
            return
        for call in _unguarded_emits(module.tree):
            yield self.finding(
                module, call.lineno,
                "tracer.emit(...) outside an `if tracer.enabled:` guard — "
                "the disabled path must not build trace records",
            )


def _test_reads_enabled(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr == "enabled":
            return True
        if isinstance(node, ast.Name) and node.id == "enabled":
            return True
    return False


def _unguarded_emits(tree: ast.Module) -> list[ast.Call]:
    """Every ``.emit(...)`` call not lexically under an enabled-guard."""
    found: list[ast.Call] = []

    def walk(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "emit" and not guarded:
                found.append(node)
        if isinstance(node, ast.If):
            branch_guarded = guarded or _test_reads_enabled(node.test)
            for child in node.body:
                walk(child, branch_guarded)
            for child in node.orelse:
                walk(child, guarded)
            walk(node.test, guarded)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested callable runs later: its body starts unguarded.
            for child in ast.iter_child_nodes(node):
                walk(child, False)
            return
        for child in ast.iter_child_nodes(node):
            walk(child, guarded)

    walk(tree, False)
    return found
