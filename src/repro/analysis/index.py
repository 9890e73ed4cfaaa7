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
  architecture rules consume.

One resolution pass closes the gap a single-module view cannot see:
**re-export canonicalisation** — ``from repro import EiresConfig`` resolves
through the package ``__init__`` re-export chain to
``repro.core.config.EiresConfig``, so aliased imports cannot evade a rule.

Package-relative paths drive rule scoping (``sim/``-only wall clock,
``strategies/``-only iteration discipline): a module's ``pkg`` is its path
relative to the ``repro`` package root.  The root is either passed
explicitly (``package_root`` — the architecture tests scan scratch trees
laid out *as* a package) or auto-detected from a ``repro`` directory
component in the file's path.  Files outside any package (``benchmarks/``)
carry ``pkg=None`` and are still scanned by the unscoped rules.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

__all__ = ["Module", "ModuleIndex", "resolve_call_target", "dotted_chain"]


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


class Module:
    """One parsed source file plus the precomputed facts rules consume."""

    __slots__ = (
        "path", "rel", "pkg", "source", "lines", "tree", "syntax_error",
        "imports", "bindings", "calls", "constructed",
    )

    def __init__(self, path: Path, rel: str, pkg: str | None) -> None:
        self.path = path
        self.rel = rel
        self.pkg = pkg
        self.source = path.read_text()
        self.lines = self.source.splitlines()
        self.syntax_error: str | None = None
        # (module path, line) for every import statement.
        self.imports: list[tuple[str, int]] = []
        # local name -> dotted origin.
        self.bindings: dict[str, str] = {}
        # (resolved dotted target, line) for calls whose base is an import.
        self.calls: list[tuple[str, int]] = []
        # (bare class-ish name, line) for C(...) and m.C(...) calls.
        self.constructed: list[tuple[str, int]] = []
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
        # Flat call records (D1/D2/A-rules).
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_call_target(node.func, self.bindings)
            if resolved is not None:
                self.calls.append((resolved, node.lineno))
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name is not None:
                self.constructed.append((name, node.lineno))

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
    """Every scanned module, parsed once, in deterministic (sorted) order."""

    def __init__(
        self,
        paths: Iterable[Path | str],
        package_root: Path | str | None = None,
    ) -> None:
        self.package_root = Path(package_root) if package_root is not None else None
        self.modules: list[Module] = []
        seen: set[Path] = set()
        for path, rel in discover(Path(p) for p in paths):
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            self.modules.append(
                Module(path, rel, _package_path(path, self.package_root))
            )
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
        resolve to a name no rule matches.
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
