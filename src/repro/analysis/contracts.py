"""Contract-drift detection: code vs. registries vs. documentation.

Three registries anchor the observability and extension contracts:

* **trace categories** — the ``CAT_*`` constants in ``obs/trace.py``; the
  validator, the replay tooling, and the docs tables all key on them;
* **metric names** — the ``*_METRIC`` string constants passed to the
  registry factories (``counter``/``gauge``/``histogram``);
* **shedding policies** — the ``SHED_POLICIES`` table in
  ``shedding/policy.py``.

Rule **R1** checks the *code* level: every ``tracer.emit`` category
constant must canonicalise to the defining trace module (a locally minted
``CAT_BOGUS = "bogus"`` satisfies M1's naming check but is invisible to
the validator — exactly the drift R1 exists to catch), and every
non-literal metric-name argument must resolve to a registered ``*_METRIC``
constant.

Rule **R2** checks the *docs* level: every shedding policy must appear in
``docs/shedding.md`` and every trace category in
``docs/observability.md``.  When the docs tree is absent (fixture runs,
scratch trees), R2 is inert — drift against documentation only exists
where documentation does.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.index import Module, ModuleIndex

__all__ = ["ContractAnalysis", "contract_analysis"]

TRACE_MODULE = "obs/trace.py"
TRACE_DOTTED = "repro.obs.trace"
POLICY_MODULE = "shedding/policy.py"

#: Defining modules are exempt from R1's own checks: they *are* the registry.
DEFINING_MODULES = ("obs/trace.py", "obs/registry.py")

#: docs file -> what it must document.
DOCS_SHEDDING = "shedding.md"
DOCS_OBSERVABILITY = "observability.md"


class ContractAnalysis:
    """Cross-module registry tables, built once per index."""

    def __init__(self, index: ModuleIndex) -> None:
        self.index = index
        trace = index.module_by_pkg(TRACE_MODULE)
        #: CAT_* constant name -> category string (None when not indexed).
        self.categories: dict[str, str] | None = None
        if trace is not None:
            self.categories = {
                name: value for name, value in trace.constants.items()
                if name.startswith("CAT_") and isinstance(value, str)
            }
        #: every *_METRIC constant defined anywhere in the index.
        self.metric_constants: dict[str, tuple[str, str, int]] = {}
        for module in index:
            for name, value in module.constants.items():
                if name.endswith("_METRIC") and isinstance(value, str):
                    self.metric_constants[name] = (
                        module.rel, value, module.constant_lines.get(name, 1)
                    )
        #: shedding policy names from the SHED_POLICIES table.
        policy = index.module_by_pkg(POLICY_MODULE)
        self.policies: tuple[str, ...] | None = None
        if policy is not None:
            table = policy.constants.get("SHED_POLICIES")
            if isinstance(table, tuple):
                self.policies = table
        self._docs: dict[str, str | None] = {}

    # -- R1: code-level drift -------------------------------------------------

    def rogue_emit_categories(self, module: Module) -> list[tuple[int, str]]:
        """Emit sites whose category does not trace back to the registry."""
        if module.pkg in DEFINING_MODULES:
            return []
        out = []
        for fact in module.emits:
            chain = fact.get("chain")
            if chain is None:
                continue  # literals are M1's finding, not drift
            origin = fact.get("origin")
            full = ".".join([origin, *chain[1:]]) if origin else None
            terminal = (full or ".".join(chain)).rsplit(".", 1)[-1]
            if not terminal.startswith("CAT_"):
                continue  # M1 owns the naming complaint
            from_registry = full is not None and full.startswith(TRACE_DOTTED + ".")
            if not from_registry:
                out.append((fact["line"], terminal))
            elif self.categories is not None and terminal not in self.categories:
                out.append((fact["line"], terminal))
        return out

    def rogue_metric_names(self, module: Module) -> list[tuple[int, str]]:
        """Metric-factory name args that resolve to no *_METRIC constant."""
        if module.pkg in DEFINING_MODULES:
            return []
        out = []
        for fact in module.metric_calls:
            terminal = fact["chain"][-1]
            if not terminal.endswith("_METRIC"):
                continue  # scoped-registry prefixes etc. — not a constant ref
            local = module.constants.get(terminal)
            if isinstance(local, str):
                continue
            if terminal in self.metric_constants:
                continue
            out.append((fact["line"], terminal))
        return out

    # -- R2: docs-level drift -------------------------------------------------

    def _doc_text(self, name: str) -> str | None:
        if name not in self._docs:
            path = Path(self.index.docs_root) / name
            try:
                self._docs[name] = path.read_text()
            except OSError:
                self._docs[name] = None
        return self._docs[name]

    @staticmethod
    def _documented(text: str, value: str) -> bool:
        return f"`{value}`" in text

    def undocumented_policies(self) -> list[tuple[Module, int, str]]:
        text = self._doc_text(DOCS_SHEDDING)
        policy = self.index.module_by_pkg(POLICY_MODULE)
        if text is None or self.policies is None or policy is None:
            return []
        line = policy.constant_lines.get("SHED_POLICIES", 1)
        return [
            (policy, line, name) for name in self.policies
            if not self._documented(text, name)
        ]

    def undocumented_categories(self) -> list[tuple[Module, int, str]]:
        text = self._doc_text(DOCS_OBSERVABILITY)
        trace = self.index.module_by_pkg(TRACE_MODULE)
        if text is None or self.categories is None or trace is None:
            return []
        out = []
        for name, value in sorted(self.categories.items()):
            if not self._documented(text, value):
                out.append((trace, trace.constant_lines.get(name, 1), value))
        return out


def contract_analysis(index: ModuleIndex) -> ContractAnalysis:
    """The memoised contract engine for an index."""
    engine = index.scratch.get("contracts")
    if engine is None:
        engine = ContractAnalysis(index)
        index.scratch["contracts"] = engine
    return engine
