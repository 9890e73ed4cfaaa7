"""Findings, the rule-plugin registry, and the analysis driver.

A *rule* is a plugin with a stable ID (``D1`` … ``R3``), a one-line title,
and a longer ``explain`` text served by ``--explain``.  Rules receive each
parsed :class:`~repro.analysis.index.Module` together with the shared
:class:`~repro.analysis.index.ModuleIndex` and yield :class:`Finding`
records; the driver applies inline suppressions and returns an
:class:`AnalysisResult`.

Registration is import-driven: defining a ``Rule`` subclass with
``@register`` adds one instance to the registry, and
:mod:`repro.analysis.rules` imports every rule module on package import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.index import Module, ModuleIndex
from repro.analysis.suppress import Suppression, parse_suppressions

__all__ = [
    "Finding",
    "Rule",
    "AnalysisResult",
    "register",
    "all_rules",
    "get_rule",
    "analyze",
    "analyze_index",
    "FRAMEWORK_RULE",
]

# Findings the framework itself emits (syntax errors, malformed
# suppressions, suppressions naming no registered rule).  Not a plugin,
# never suppressible.
FRAMEWORK_RULE = "E0"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str           # display path (as the file was reached from the CLI)
    rel: str            # path relative to its scan root
    pkg: str | None     # path relative to the repro package root, if any
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


class Rule:
    """Base class for rule plugins."""

    id: str = ""
    title: str = ""
    explain: str = ""

    def check(self, module: Module, index: ModuleIndex) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: Module, line: int, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=str(module.path),
            rel=module.rel,
            pkg=module.pkg,
            line=line,
            message=message,
        )


_REGISTRY: dict[str, Rule] = {}


def register(cls):
    """Register a rule by its ID: a class (decorator form, instantiated
    without arguments) or an already-built instance (table-driven rules)."""
    rule = cls() if isinstance(cls, type) else cls
    if not rule.id:
        raise ValueError(f"rule {type(rule).__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> list[Rule]:
    _load_plugins()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule | None:
    _load_plugins()
    return _REGISTRY.get(rule_id)


def _load_plugins() -> None:
    # Import-driven registration; idempotent.
    import repro.analysis.rules  # noqa: F401


@dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, Suppression]] = field(default_factory=list)
    module_count: int = 0
    rule_ids: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def _select_rules(rule_ids: Iterable[str] | None) -> list[Rule]:
    rules = all_rules()
    if rule_ids is None:
        return rules
    wanted = list(rule_ids)
    known = {rule.id for rule in rules}
    unknown = [rule_id for rule_id in wanted if rule_id not in known]
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
    return [rule for rule in rules if rule.id in set(wanted)]


def analyze_index(
    index: ModuleIndex, rule_ids: Iterable[str] | None = None
) -> AnalysisResult:
    """Run the selected rules over an existing index."""
    rules = _select_rules(rule_ids)
    registered = {rule.id for rule in all_rules()}
    result = AnalysisResult(module_count=len(index), rule_ids=[rule.id for rule in rules])
    for module in index:
        if module.syntax_error is not None:
            line, _, message = module.syntax_error.partition(": ")
            result.findings.append(
                _framework_finding(module, int(line or 1), f"unparseable: {message}")
            )
            continue
        suppressions, malformed = parse_suppressions(module.lines)
        for line, message in malformed:
            result.findings.append(_framework_finding(module, line, message))
        for suppression in suppressions.values():
            unknown = sorted(suppression.rule_ids - registered)
            if unknown:
                result.findings.append(_framework_finding(
                    module, suppression.line,
                    f"suppression names unregistered rule id(s): {', '.join(unknown)}",
                ))
        for rule in rules:
            for finding in rule.check(module, index):
                suppression = suppressions.get(finding.line)
                if suppression is not None and finding.rule in suppression.rule_ids:
                    result.suppressed.append((finding, suppression))
                else:
                    result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.rel, f.line, f.rule, f.message))
    result.suppressed.sort(key=lambda pair: (pair[0].rel, pair[0].line, pair[0].rule))
    return result


def _framework_finding(module: Module, line: int, message: str) -> Finding:
    return Finding(
        rule=FRAMEWORK_RULE, path=str(module.path), rel=module.rel,
        pkg=module.pkg, line=line, message=message,
    )


def analyze(
    paths: Iterable[Path | str],
    rule_ids: Iterable[str] | None = None,
    package_root: Path | str | None = None,
) -> AnalysisResult:
    """Index ``paths`` and run the selected rules (all, by default)."""
    index = ModuleIndex(paths, package_root=package_root)
    return analyze_index(index, rule_ids)
