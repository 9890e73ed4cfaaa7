"""The shared module index: one parse per file, reused by every rule.

A :class:`ModuleIndex` walks the requested paths once, parses every
``*.py`` file with :mod:`ast`, and precomputes the facts the rule plugins
need:

* **import records** — every imported module path with its line number;
* **name bindings** — a per-module symbol table mapping local names to the
  dotted origin they were imported from (``import numpy as np`` binds
  ``np -> numpy``; ``from repro.obs.trace import CAT_FETCH`` binds
  ``CAT_FETCH -> repro.obs.trace.CAT_FETCH``), so rules can resolve
  attribute chains like ``np.random.rand`` without re-walking imports;
* **call records** — every call site whose target resolves through the
  bindings to a dotted name, plus the bare class-name constructor calls the
  architecture rules consume;
* **string-tuple constants** — simple module-level assignments of strings
  and tuples of strings (the registered counter-key tables), exposed so
  rules can reason about the declared constant tables;
* **function facts** — per-function dataflow skeletons (parameters, call
  sites with argument taint atoms, sink records, return atoms, effect
  records, ``self``-attribute stores) consumed by the whole-program
  call-graph, taint, and effect analyses in :mod:`repro.analysis.callgraph`,
  :mod:`repro.analysis.taint`, and :mod:`repro.analysis.effects`;
* **contract facts** — trace-emission categories and metric-name
  constants, consumed by :mod:`repro.analysis.contracts`.

Two resolution passes close the gaps a single-module view cannot see:

* **re-export canonicalisation** — ``from repro import EiresConfig``
  resolves through the package ``__init__`` re-export chain to
  ``repro.core.config.EiresConfig``, so aliased imports cannot evade a
  rule or drop a call-graph edge;
* **``self``-method resolution** — ``self.helper(...)`` inside a class
  resolves to the defining method's dotted name, so intraclass call
  chains participate in the interprocedural analyses.

Package-relative paths drive rule scoping (``sim/``-only wall clock,
``strategies/``-only iteration discipline): a module's ``pkg`` is its path
relative to the ``repro`` package root.  The root is either passed
explicitly (``package_root`` — the architecture tests scan scratch trees
laid out *as* a package) or auto-detected from a ``repro`` directory
component in the file's path.  Files outside any package (``benchmarks/``)
carry ``pkg=None`` and are still scanned by the unscoped rules.

Every fact is JSON-serialisable (:meth:`Module.facts` /
:meth:`Module.from_facts`): the incremental cache
(:mod:`repro.analysis.cache`) persists them per content hash so warm runs
re-parse only modules whose source actually changed.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = [
    "Module",
    "ModuleIndex",
    "resolve_call_target",
    "dotted_chain",
    "ATOM_KIND",
    "ATOM_PARAM",
    "ATOM_CALL",
    "ATOM_SELF_ATTR",
    "ATOM_STRIP_ORDER",
    "KIND_WALLCLOCK",
    "KIND_RNG",
    "KIND_ORDER",
]

FACTS_VERSION = 1

# -- taint atoms --------------------------------------------------------------
#
# The per-function dataflow skeleton describes values as *atom sets*.  An
# atom is a tuple whose first element names its sort:
#
#   ("k", kind, line)   a taint source of ``kind`` introduced at ``line``
#   ("p", i)            the function's i-th positional parameter
#   ("c", i)            the return value of the function's i-th call site
#   ("sa", name)        a read of ``self.<name>``
#   ("so", (atoms...))  an order-sanitised wrapper (``sorted(...)`` et al.)
#
# Atoms are mechanism, not policy: the taint engine decides which kinds a
# module may generate (sanitizers, allowed files, suppressions).

ATOM_KIND = "k"
ATOM_PARAM = "p"
ATOM_CALL = "c"
ATOM_SELF_ATTR = "sa"
ATOM_STRIP_ORDER = "so"

KIND_WALLCLOCK = "wallclock"
KIND_RNG = "rng"
KIND_ORDER = "order"

#: Call targets that read the host's wall clock (shared with rule D1).
WALL_CLOCK_SOURCES = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: Builtins whose result preserves argument taint (thin wrappers).
_PASSTHROUGH_BUILTINS = frozenset({
    "list", "tuple", "dict", "str", "repr", "float", "int", "abs", "round",
    "sum", "reversed", "next", "iter", "zip", "enumerate", "map", "filter",
})

#: Builtins whose result is order-insensitive even over unordered input.
_ORDER_NEUTRAL_BUILTINS = frozenset({"sorted", "len", "min", "max", "any", "all"})

#: Constructors producing fresh (function-local) containers: mutating them
#: is not an observable side effect.
_FRESH_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "tuple", "frozenset", "deque", "defaultdict",
    "Counter", "OrderedDict", "bytearray",
})

#: Dotted call targets returning freshly allocated containers/arrays.
_FRESH_DOTTED = frozenset({
    "numpy.zeros", "numpy.ones", "numpy.empty", "numpy.full",
    "numpy.array", "numpy.arange", "numpy.zeros_like", "numpy.ones_like",
    "numpy.empty_like", "numpy.full_like",
    "collections.deque", "collections.defaultdict", "collections.Counter",
    "collections.OrderedDict",
})

#: Method names that mutate their receiver.
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "add", "update", "pop",
    "popleft", "popitem", "remove", "discard", "clear", "setdefault", "sort",
    "reverse", "write", "writelines", "inc", "set", "observe", "emit",
    "advance", "push", "record",
})

#: Sink families for the interprocedural taint rules (T1–T3): trace
#: emission, metric updates, and the Eq. 5/7/8 utility / shed / batch
#: scoring surface.  A sink only matters when a tainted value reaches it.
_SINK_EMIT = frozenset({"emit"})
_SINK_METRIC = frozenset({"inc", "set", "observe"})
_SINK_UTILITY = frozenset({
    "value", "terms", "urgent_utility", "future_utility", "min_utility", "estimate",
    "effective_estimate", "extension_rate", "expected_gap", "class_count",
    "partial_match_utility", "event_utility", "shed_lowest", "submit",
})

_DICT_VIEW_METHODS = frozenset({"keys", "values", "items"})
_SET_BUILTINS = frozenset({"set", "frozenset"})

_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})


def dotted_chain(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


def resolve_call_target(node: ast.AST, bindings: dict[str, str]) -> str | None:
    """The dotted origin of a call target, resolved through the bindings.

    ``perf_counter()`` with ``from time import perf_counter`` resolves to
    ``time.perf_counter``; ``np.random.rand(...)`` with ``import numpy as
    np`` resolves to ``numpy.random.rand``.  Calls on local objects
    (``rng.random()``) resolve to None — their base name is not an import.
    """
    parts = dotted_chain(node)
    if parts is None:
        return None
    origin = bindings.get(parts[0])
    if origin is None:
        return None
    return ".".join([origin, *parts[1:]]) if len(parts) > 1 else origin


def _string_tuple(node: ast.AST, constants: dict[str, Any] | None = None):
    """The value of a str / tuple-of-str literal expression, else None.

    Tuple elements may also be *names of previously assigned string
    constants* (``CATEGORIES = (CAT_EVENT, CAT_RUN, ...)``) — the declared
    registry tables are built exactly that way.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Tuple):
        items = []
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                items.append(element.value)
            elif (
                constants is not None
                and isinstance(element, ast.Name)
                and isinstance(constants.get(element.id), str)
            ):
                items.append(constants[element.id])
            else:
                return None
        return tuple(items)
    return None


def _dict_key_tuple(node: ast.AST, constants: dict[str, Any]):
    """The string keys of a dict literal (``SHED_POLICIES``-style registries)."""
    if not isinstance(node, ast.Dict):
        return None
    keys = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append(key.value)
        elif isinstance(key, ast.Name) and isinstance(constants.get(key.id), str):
            keys.append(constants[key.id])
        else:
            return None
    return tuple(keys)


def _atoms_to_json(atoms) -> list:
    out = []
    for atom in sorted(atoms, key=repr):
        if atom[0] == ATOM_STRIP_ORDER:
            out.append([ATOM_STRIP_ORDER, _atoms_to_json(atom[1])])
        else:
            out.append(list(atom))
    return out


def _atoms_from_json(data) -> frozenset:
    atoms = set()
    for item in data:
        if item[0] == ATOM_STRIP_ORDER:
            atoms.add((ATOM_STRIP_ORDER, _atoms_from_json(item[1])))
        else:
            atoms.add(tuple(item))
    return frozenset(atoms)


class _FunctionScanner:
    """Flow-insensitive intra-function dataflow over one function body.

    Two passes: the first seeds the local-name environment (so loops and
    use-before-def inside a body converge), the second records call, sink,
    effect, and store facts.  The result is a serialisable fact dict.
    """

    def __init__(self, module: "Module", qual: str, cls: str | None,
                 node: ast.AST, params: list[str], lineno: int) -> None:
        self.module = module
        self.qual = qual
        self.cls = cls
        self.node = node
        self.params = params
        self.lineno = lineno
        self.env: dict[str, set] = {}
        # name -> ("fresh",) | ("attr", name) | ("param", name)
        self.origins: dict[str, tuple] = {}
        self.calls: list[dict] = []
        self.sinks: list[dict] = []
        self.effects: list[tuple] = []
        self.stores: list[tuple] = []
        self.ret: set = set()
        self.record = False

    def run(self) -> dict:
        body = getattr(self.node, "body", [])
        if isinstance(body, ast.expr):  # lambda
            body = [ast.Return(value=body)]
        for final in (False, True):
            self.record = final
            self.calls, self.sinks, self.effects, self.stores = [], [], [], []
            self.ret = set()
            for stmt in body:
                self._stmt(stmt)
        return {
            "qual": self.qual,
            "cls": self.cls,
            "line": self.lineno,
            "params": self.params,
            "calls": self.calls,
            "sinks": self.sinks,
            "ret": _atoms_to_json(self.ret),
            "effects": [list(effect) for effect in self.effects],
            "stores": [[attr, _atoms_to_json(atoms)] for attr, atoms in self.stores],
        }

    # -- statements -----------------------------------------------------------

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions are scanned as their own functions
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._assign(node)
        elif isinstance(node, ast.Return) and node.value is not None:
            self.ret |= self._expr(node.value)
        elif isinstance(node, ast.Expr):
            value = node.value
            atoms = self._expr(value)
            if isinstance(value, (ast.Yield, ast.YieldFrom)):
                self.ret |= atoms
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            atoms = self._expr(node.iter)
            self._bind_target(node.target, atoms)
            for child in node.body + node.orelse:
                self._stmt(child)
        elif isinstance(node, (ast.While, ast.If)):
            self._expr(node.test)
            for child in node.body + node.orelse:
                self._stmt(child)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                atoms = self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, atoms)
            for child in node.body:
                self._stmt(child)
        elif isinstance(node, ast.Try):
            for child in node.body + node.orelse + node.finalbody:
                self._stmt(child)
            for handler in node.handlers:
                for child in handler.body:
                    self._stmt(child)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            if self.record:
                for name in node.names:
                    self.effects.append(("global", name, node.lineno))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    self._store_effect(target, node.lineno)
        elif isinstance(node, ast.Raise):
            if node.exc is not None:
                self._expr(node.exc)
        elif isinstance(node, ast.Assert):
            self._expr(node.test)
        elif isinstance(node, (ast.Import, ast.ImportFrom, ast.Pass,
                               ast.Break, ast.Continue)):
            pass
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expr(child)
                elif isinstance(child, ast.stmt):
                    self._stmt(child)

    def _assign(self, node) -> None:
        value = node.value
        if value is None:
            return
        atoms = self._expr(value)
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(node, ast.AugAssign) and isinstance(target, ast.Name):
                self.env[target.id] = self.env.get(target.id, set()) | atoms
                continue
            self._bind_target(target, atoms, value)

    def _bind_target(self, target: ast.expr, atoms: set,
                     value: ast.expr | None = None) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = self.env.get(target.id, set()) | atoms
            if value is not None and target.id not in self.params:
                origin = self._value_origin(value)
                if origin is not None:
                    self.origins.setdefault(target.id, origin)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, atoms)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, atoms)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._store_effect(target, target.lineno)
            chain = dotted_chain(target if isinstance(target, ast.Attribute) else None)
            if chain and chain[0] == "self" and len(chain) == 2 and self.record:
                self.stores.append((chain[1], frozenset(atoms)))

    def _value_origin(self, value: ast.expr) -> tuple | None:
        """Classify what a local name aliases: fresh container or self attr."""
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.Tuple,
                              ast.ListComp, ast.DictComp, ast.SetComp)):
            return ("fresh",)
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
                and value.func.id in _FRESH_CONSTRUCTORS:
            return ("fresh",)
        if isinstance(value, ast.Call):
            dotted = resolve_call_target(value.func, self.module.bindings)
            if dotted is not None and dotted in _FRESH_DOTTED:
                return ("fresh",)
            if isinstance(value.func, ast.Attribute) and value.func.attr == "copy":
                return ("fresh",)
        if isinstance(value, ast.BinOp):
            left = self._value_origin(value.left)
            right = self._value_origin(value.right)
            return left or right
        chain = dotted_chain(value)
        if chain and chain[0] == "self" and len(chain) == 2:
            return ("attr", chain[1])
        return None

    def _base_effect(self, base: ast.expr, lineno: int) -> tuple | None:
        """The effect record for a store/mutation whose receiver is ``base``."""
        chain = dotted_chain(base)
        if chain is None:
            return ("obj", "<expr>", lineno)
        if chain[0] == "self":
            return ("attr", chain[1] if len(chain) > 1 else "self", lineno)
        name = chain[0]
        origin = self.origins.get(name)
        if origin is not None and origin[0] == "fresh":
            return None  # mutating a function-local container is pure
        if origin is not None and origin[0] == "attr":
            return ("attr", origin[1], lineno)
        if name in self.params:
            return ("param", name, lineno)
        if name in self.env or name in self.origins:
            return ("obj", name, lineno)
        return ("global", name, lineno)

    def _store_effect(self, target: ast.expr, lineno: int) -> None:
        if not self.record:
            return
        base = target.value if isinstance(target, (ast.Attribute, ast.Subscript)) else target
        while isinstance(base, ast.Subscript):
            base = base.value
        effect = self._base_effect(base, lineno)
        if effect is not None:
            self.effects.append(effect)

    # -- expressions ----------------------------------------------------------

    def _expr(self, node: ast.expr) -> set:
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Name):
            atoms = set(self.env.get(node.id, ()))
            if node.id in self.params:
                atoms.add((ATOM_PARAM, self.params.index(node.id)))
            return atoms
        if isinstance(node, ast.Attribute):
            atoms = self._expr(node.value)
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                atoms = atoms | {(ATOM_SELF_ATTR, node.attr)}
            return atoms
        if isinstance(node, (ast.Set,)):
            atoms = set().union(*(self._expr(e) for e in node.elts)) if node.elts else set()
            return atoms | {(ATOM_KIND, KIND_ORDER, node.lineno)}
        if isinstance(node, ast.SetComp):
            atoms = self._comprehension(node.generators, node.elt)
            return atoms | {(ATOM_KIND, KIND_ORDER, node.lineno)}
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._comprehension(node.generators, node.elt)
        if isinstance(node, ast.DictComp):
            atoms = self._comprehension(node.generators, node.key)
            return atoms | self._expr(node.value)
        if isinstance(node, (ast.List, ast.Tuple)):
            return set().union(*(self._expr(e) for e in node.elts)) if node.elts else set()
        if isinstance(node, ast.Dict):
            atoms: set = set()
            for key in node.keys:
                if key is not None:
                    atoms |= self._expr(key)
            for value in node.values:
                atoms |= self._expr(value)
            return atoms
        if isinstance(node, ast.BoolOp):
            return set().union(*(self._expr(v) for v in node.values))
        if isinstance(node, ast.BinOp):
            return self._expr(node.left) | self._expr(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._expr(node.operand)
        if isinstance(node, ast.Compare):
            return set().union(self._expr(node.left),
                               *(self._expr(c) for c in node.comparators))
        if isinstance(node, ast.IfExp):
            return self._expr(node.test) | self._expr(node.body) | self._expr(node.orelse)
        if isinstance(node, ast.Subscript):
            return self._expr(node.value) | self._expr(node.slice)
        if isinstance(node, ast.Slice):
            atoms = set()
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    atoms |= self._expr(part)
            return atoms
        if isinstance(node, ast.JoinedStr):
            atoms = set()
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    atoms |= self._expr(value.value)
            return atoms
        if isinstance(node, ast.FormattedValue):
            return self._expr(node.value)
        if isinstance(node, (ast.Await, ast.Yield, ast.YieldFrom)):
            return self._expr(node.value) if node.value is not None else set()
        if isinstance(node, ast.NamedExpr):
            atoms = self._expr(node.value)
            self._bind_target(node.target, atoms, node.value)
            return atoms
        if isinstance(node, ast.Starred):
            return self._expr(node.value)
        if isinstance(node, ast.Lambda):
            return set()
        return set()

    def _comprehension(self, generators, element: ast.expr) -> set:
        atoms: set = set()
        for gen in generators:
            iter_atoms = self._expr(gen.iter)
            atoms |= iter_atoms
            self._bind_target(gen.target, iter_atoms)
            for condition in gen.ifs:
                self._expr(condition)
        return atoms | self._expr(element)

    def _call(self, node: ast.Call) -> set:
        func = node.func
        arg_sets = [self._expr(arg) for arg in node.args]
        kw_sets = [self._expr(kw.value) for kw in node.keywords]
        carry: set = set().union(*arg_sets, *kw_sets) if (arg_sets or kw_sets) else set()
        chain = dotted_chain(func)
        terminal = chain[-1] if chain else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if chain is None and isinstance(func, ast.Attribute):
            self._expr(func.value)  # chained receiver: record its own facts
        dotted = resolve_call_target(func, self.module.bindings)

        # Builtin special cases: sanitisers, order sources, passthroughs.
        if isinstance(func, ast.Name) and func.id not in self.module.bindings:
            name = func.id
            if name in _ORDER_NEUTRAL_BUILTINS:
                return {(ATOM_STRIP_ORDER, frozenset(carry))} if carry else set()
            if name in _SET_BUILTINS:
                return carry | {(ATOM_KIND, KIND_ORDER, node.lineno)}
            if name in _PASSTHROUGH_BUILTINS:
                return carry

        if dotted is not None:
            if dotted in WALL_CLOCK_SOURCES:
                return carry | {(ATOM_KIND, KIND_WALLCLOCK, node.lineno)}
            if dotted == "random" or dotted.startswith("random.") \
                    or dotted.startswith("numpy.random."):
                return carry | {(ATOM_KIND, KIND_RNG, node.lineno)}

        # Unsorted dict-view reads: .keys()/.values()/.items() with no args.
        if isinstance(func, ast.Attribute) and func.attr in _DICT_VIEW_METHODS \
                and not node.args and not node.keywords:
            return self._expr(func.value) | {(ATOM_KIND, KIND_ORDER, node.lineno)}

        if not self.record:
            return carry

        # Mutator-method effects (purity facts).
        if isinstance(func, ast.Attribute) and func.attr in _MUTATOR_METHODS:
            effect = self._base_effect(func.value, node.lineno)
            if effect is not None:
                self.effects.append((effect[0], effect[1], node.lineno))

        # Sink records (taint facts).
        if terminal is not None:
            sink_kind = None
            if terminal in _SINK_EMIT:
                sink_kind = "emit"
            elif terminal in _SINK_METRIC and isinstance(func, ast.Attribute):
                sink_kind = "metric"
            elif terminal in _SINK_UTILITY:
                sink_kind = "utility"
            if sink_kind is not None and carry:
                self.sinks.append({
                    "kind": sink_kind,
                    "name": terminal,
                    "line": node.lineno,
                    "atoms": _atoms_to_json(carry),
                })

        # Call facts (call-graph edges + interprocedural flow).
        ref = None
        if dotted is not None:
            ref = ["dotted", dotted]
        elif chain and chain[0] == "self" and len(chain) == 2 and self.cls:
            ref = ["self", f"{self.cls}.{chain[1]}"]
        elif isinstance(func, ast.Name):
            ref = ["local", func.id]
        else:
            ref = ["unknown", terminal or ""]
        index = len(self.calls)
        self.calls.append({
            "ref": ref,
            "line": node.lineno,
            "args": [_atoms_to_json(a) for a in arg_sets + kw_sets],
        })
        return {(ATOM_CALL, index)}


class Module:
    """One parsed source file plus the precomputed facts rules consume."""

    __slots__ = (
        "path", "rel", "pkg", "source", "lines", "tree", "syntax_error",
        "imports", "bindings", "calls", "constructed", "constants",
        "constant_lines", "functions", "emits", "metric_calls",
        "content_hash", "from_cache",
    )

    def __init__(self, path: Path, rel: str, pkg: str | None,
                 source: str | None = None) -> None:
        self.path = path
        self.rel = rel
        self.pkg = pkg
        self.source = path.read_text() if source is None else source
        self.lines = self.source.splitlines()
        self.content_hash = hashlib.sha1(self.source.encode("utf-8")).hexdigest()
        self.from_cache = False
        self.syntax_error: str | None = None
        # (module path, line) for every import statement.
        self.imports: list[tuple[str, int]] = []
        # local name -> dotted origin.
        self.bindings: dict[str, str] = {}
        # (resolved dotted target, line) for calls whose base is an import
        # or a ``self``-method (resolved to its defining class).
        self.calls: list[tuple[str, int]] = []
        # (bare class-ish name, line) for C(...) and m.C(...) calls.
        self.constructed: list[tuple[str, int]] = []
        # module-level NAME = "str" | ("str", ...) assignments (plus dict
        # registries captured by their string keys).
        self.constants: dict[str, str | tuple[str, ...]] = {}
        self.constant_lines: dict[str, int] = {}
        # per-function dataflow facts (see module docstring).
        self.functions: list[dict] = []
        # contract facts: tracer.emit category args, metric-name constants.
        self.emits: list[dict] = []
        self.metric_calls: list[dict] = []
        try:
            self.tree: ast.Module | None = ast.parse(self.source, filename=str(path))
        except SyntaxError as error:
            self.tree = None
            self.syntax_error = f"{error.lineno}: {error.msg}"
            return
        self._scan()

    # -- scanning -------------------------------------------------------------

    def _scan(self) -> None:
        assert self.tree is not None
        # Imports first: bindings drive every later resolution.
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports.append((alias.name, node.lineno))
                    if alias.asname is not None:
                        self.bindings[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds ``a``; chains resolve onward.
                        self.bindings[alias.name.split(".")[0]] = alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                self.imports.append((node.module, node.lineno))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname if alias.asname is not None else alias.name
                    self.bindings[local] = f"{node.module}.{alias.name}"
        # Module-level constant tables.
        for node in self.tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if isinstance(target, ast.Name):
                    literal = _string_tuple(value, self.constants)
                    if literal is None:
                        literal = _dict_key_tuple(value, self.constants)
                    if literal is not None:
                        self.constants[target.id] = literal
                        self.constant_lines[target.id] = node.lineno
        # Legacy flat call records (D1/D2/A-rules) + contract facts.
        class_stack = self._class_membership()
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_call_target(node.func, self.bindings)
            if resolved is not None:
                self.calls.append((resolved, node.lineno))
            else:
                chain = dotted_chain(node.func)
                if chain and chain[0] == "self" and len(chain) == 2:
                    owner = class_stack.get(id(node))
                    if owner is not None:
                        dotted = self.dotted_name()
                        if dotted is not None:
                            self.calls.append(
                                (f"{dotted}.{owner}.{chain[1]}", node.lineno)
                            )
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name is not None:
                self.constructed.append((name, node.lineno))
            self._contract_facts(node, name)
        # Per-function dataflow facts.
        self._scan_functions()

    def _class_membership(self) -> dict[int, str]:
        """Map every AST node id to its enclosing class name (if any)."""
        owners: dict[int, str] = {}

        def walk(node: ast.AST, cls: str | None) -> None:
            if isinstance(node, ast.ClassDef):
                cls = node.name
            owners[id(node)] = cls  # type: ignore[assignment]
            for child in ast.iter_child_nodes(node):
                walk(child, cls)

        assert self.tree is not None
        walk(self.tree, None)
        return {k: v for k, v in owners.items() if v is not None}

    def _contract_facts(self, node: ast.Call, name: str | None) -> None:
        if name == "emit" and isinstance(node.func, ast.Attribute) and node.args:
            arg = node.args[0]
            fact: dict = {"line": arg.lineno, "literal": None, "chain": None,
                          "origin": None}
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                fact["literal"] = arg.value
            else:
                chain = dotted_chain(arg)
                if chain is not None:
                    fact["chain"] = chain
                    fact["origin"] = self.bindings.get(chain[0])
            self.emits.append(fact)
        elif name in _METRIC_FACTORIES and isinstance(node.func, ast.Attribute) \
                and node.args:
            arg = node.args[0]
            if isinstance(arg, (ast.Constant, ast.JoinedStr)):
                return  # literals are M1's job; f-strings are accepted dynamics
            chain = dotted_chain(arg)
            if chain is None:
                return
            self.metric_calls.append({
                "factory": name,
                "chain": chain,
                "origin": self.bindings.get(chain[0]),
                "line": arg.lineno,
            })

    def _scan_functions(self) -> None:
        assert self.tree is not None

        def params_of(node) -> list[str]:
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args]
            names += [a.arg for a in args.kwonlyargs]
            return names

        def visit(body, prefix: str, cls: str | None) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{node.name}"
                    scanner = _FunctionScanner(
                        self, qual, cls, node, params_of(node), node.lineno
                    )
                    self.functions.append(scanner.run())
                    visit(node.body, f"{qual}.", cls)
                elif isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.", node.name)

        visit(self.tree.body, "", None)
        # Module-level statements form a synthetic "<module>" function so
        # top-level sources and sinks participate in the analyses.
        top_level = [
            stmt for stmt in self.tree.body
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef, ast.Import, ast.ImportFrom))
        ]
        holder = ast.Module(body=top_level, type_ignores=[])
        scanner = _FunctionScanner(self, "<module>", None, holder, [], 1)
        self.functions.append(scanner.run())

    # -- serialisation (the incremental cache) --------------------------------

    def facts(self) -> dict:
        """Every parse-derived fact as one JSON-serialisable dict."""
        return {
            "version": FACTS_VERSION,
            "syntax_error": self.syntax_error,
            "imports": [list(item) for item in self.imports],
            "bindings": dict(self.bindings),
            "calls": [list(item) for item in self.calls],
            "constructed": [list(item) for item in self.constructed],
            "constants": {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in self.constants.items()
            },
            "constant_tuples": sorted(
                key for key, value in self.constants.items()
                if isinstance(value, tuple)
            ),
            "constant_lines": dict(self.constant_lines),
            "functions": self.functions,
            "emits": self.emits,
            "metric_calls": self.metric_calls,
        }

    @classmethod
    def from_facts(cls, path: Path, rel: str, pkg: str | None, source: str,
                   facts: dict) -> "Module":
        """Rebuild a module from cached facts without re-parsing."""
        module = object.__new__(cls)
        module.path = path
        module.rel = rel
        module.pkg = pkg
        module.source = source
        module.lines = source.splitlines()
        module.content_hash = hashlib.sha1(source.encode("utf-8")).hexdigest()
        module.from_cache = True
        module.tree = None
        module.syntax_error = facts.get("syntax_error")
        module.imports = [tuple(item) for item in facts.get("imports", [])]
        module.bindings = dict(facts.get("bindings", {}))
        module.calls = [tuple(item) for item in facts.get("calls", [])]
        module.constructed = [tuple(item) for item in facts.get("constructed", [])]
        tuples = set(facts.get("constant_tuples", []))
        module.constants = {
            key: tuple(value) if key in tuples else value
            for key, value in facts.get("constants", {}).items()
        }
        module.constant_lines = dict(facts.get("constant_lines", {}))
        module.functions = facts.get("functions", [])
        module.emits = facts.get("emits", [])
        module.metric_calls = facts.get("metric_calls", [])
        return module

    # -- derived --------------------------------------------------------------

    @property
    def pkg_top(self) -> str | None:
        """The top-level package directory (``"engine"`` for engine/engine.py)."""
        if self.pkg is None or "/" not in self.pkg:
            return None
        return self.pkg.split("/", 1)[0]

    def dotted_name(self) -> str | None:
        """The module's dotted import name (``repro.obs.trace``), if packaged."""
        if self.pkg is None:
            return None
        stem = self.pkg[:-3] if self.pkg.endswith(".py") else self.pkg
        if stem == "__init__":
            return "repro"
        if stem.endswith("/__init__"):
            stem = stem[: -len("/__init__")]
        return "repro." + stem.replace("/", ".")


def _package_path(path: Path, package_root: Path | None) -> str | None:
    if package_root is not None:
        try:
            return path.resolve().relative_to(package_root.resolve()).as_posix()
        except ValueError:
            return None
    parts = path.resolve().parts
    if "repro" not in parts:
        return None
    anchor = len(parts) - 1 - parts[::-1].index("repro")
    inner = parts[anchor + 1:]
    return "/".join(inner) if inner else None


def discover(paths: Iterable[Path]) -> Iterator[tuple[Path, str]]:
    """All ``*.py`` files under ``paths`` with scan-root-relative names."""
    for root in paths:
        root = Path(root)
        if root.is_file():
            yield root, root.name
            continue
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            yield path, path.relative_to(root).as_posix()


class ModuleIndex:
    """Every scanned module, parsed once, in deterministic (sorted) order.

    ``cache`` is an optional object with a ``lookup(rel, content_hash)``
    method returning cached facts (see :mod:`repro.analysis.cache`); when a
    file's content hash matches, its module is rebuilt from facts instead
    of re-parsed.  ``docs_root`` points the contract rules at the rendered
    documentation tables (default: ``./docs`` when present).
    """

    def __init__(
        self,
        paths: Iterable[Path | str],
        package_root: Path | str | None = None,
        cache: Any = None,
        docs_root: Path | str | None = None,
    ) -> None:
        self.package_root = Path(package_root) if package_root is not None else None
        self.docs_root = Path(docs_root) if docs_root is not None else Path("docs")
        self.modules: list[Module] = []
        #: scratch space for whole-program analyses memoised per index.
        self.scratch: dict[str, Any] = {}
        seen: set[Path] = set()
        for path, rel in discover(Path(p) for p in paths):
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            pkg = _package_path(path, self.package_root)
            source = path.read_text()
            module: Module | None = None
            if cache is not None:
                digest = hashlib.sha1(source.encode("utf-8")).hexdigest()
                facts = cache.lookup(rel, digest)
                if facts is not None:
                    module = Module.from_facts(path, rel, pkg, source, facts)
            if module is None:
                module = Module(path, rel, pkg, source=source)
            self.modules.append(module)
        self.modules.sort(key=lambda module: module.rel)
        self._canonicalize()

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)

    # -- re-export canonicalisation -------------------------------------------

    def _canonicalize(self) -> None:
        """Resolve names through package ``__init__`` re-export chains.

        ``from repro import EiresConfig`` binds ``EiresConfig ->
        repro.EiresConfig``; ``repro/__init__.py`` re-exports it from
        ``repro.core.config``, so the canonical origin is
        ``repro.core.config.EiresConfig``.  Without this pass those aliases
        resolve to a name no rule or call-graph node matches, silently
        dropping the edge.
        """
        exports: dict[str, str] = {}
        for module in self.modules:
            if module.pkg is None or not module.pkg.endswith("__init__.py"):
                continue
            dotted = module.dotted_name()
            if dotted is None:
                continue
            for local, origin in module.bindings.items():
                exports[f"{dotted}.{local}"] = origin
        if not exports:
            return
        self._exports = exports
        for module in self.modules:
            module.bindings = {
                local: self.canonical_name(origin)
                for local, origin in module.bindings.items()
            }
            module.calls = [
                (self.canonical_name(target), line) for target, line in module.calls
            ]
            for fact in module.emits + module.metric_calls:
                if fact.get("origin"):
                    fact["origin"] = self.canonical_name(fact["origin"])
            for fn in module.functions:
                for call in fn["calls"]:
                    if call["ref"][0] == "dotted":
                        call["ref"][1] = self.canonical_name(call["ref"][1])

    def canonical_name(self, name: str) -> str:
        """Follow re-export aliases to the defining module's dotted name."""
        exports = getattr(self, "_exports", None)
        if not exports:
            return name
        for _ in range(16):
            parts = name.split(".")
            replaced = False
            for cut in range(len(parts), 0, -1):
                prefix = ".".join(parts[:cut])
                target = exports.get(prefix)
                if target is not None and target != prefix:
                    name = ".".join([target, *parts[cut:]])
                    replaced = True
                    break
            if not replaced:
                return name
        return name

    # -- derived tables -------------------------------------------------------

    def import_graph(self) -> dict[str, list[str]]:
        """Scanned module -> the ``repro.*`` modules it imports (sorted)."""
        graph: dict[str, list[str]] = {}
        for module in self.modules:
            repro_imports = sorted(
                {name for name, _ in module.imports
                 if name == "repro" or name.startswith("repro.")}
            )
            graph[module.rel] = repro_imports
        return graph

    def constant_table(self, name: str) -> tuple[str, ...] | None:
        """A registered string-tuple constant, looked up across the index."""
        for module in self.modules:
            value = module.constants.get(name)
            if isinstance(value, tuple):
                return value
        return None

    def module_by_pkg(self, pkg: str) -> Module | None:
        for module in self.modules:
            if module.pkg == pkg:
                return module
        return None
