"""Findings, the rule-plugin registry, and the analysis driver.

A *rule* is a plugin with a stable ID (``D1`` … ``A3``), a one-line title,
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

import hashlib
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
# suppressions).  Not a plugin, never suppressible.
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

    def fingerprint(self) -> str:
        """Line-independent identity used by the baseline file."""
        basis = f"{self.rule}|{self.pkg or self.rel}|{self.message}"
        return hashlib.sha1(basis.encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


class Rule:
    """Base class for rule plugins.

    ``scope`` is ``"module"`` for rules whose findings depend only on one
    module's AST (cacheable per content hash) or ``"program"`` for rules
    whose findings depend on the whole index (taint, purity, contract
    drift) — program-scope rules re-run on every pass, cache or not, and
    must work from the extracted facts alone (cached modules carry no AST).
    """

    id: str = ""
    title: str = ""
    explain: str = ""
    scope: str = "module"

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
    #: modules actually parsed this run (the rest came from the cache).
    parsed_modules: int = 0
    #: modules rebuilt from cached facts without re-parsing.
    cached_modules: int = 0
    #: the --changed-since dirty region (rel paths), when one was computed.
    dirty_region: list[str] | None = None

    @property
    def ok(self) -> bool:
        return not self.findings

    def drop_baselined(self, fingerprints: set[str]) -> list[Finding]:
        """Remove (and return) findings recorded in the baseline."""
        baselined = [f for f in self.findings if f.fingerprint() in fingerprints]
        self.findings = [f for f in self.findings if f.fingerprint() not in fingerprints]
        return baselined


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


def _finding_to_json(finding: Finding) -> dict:
    return {
        "rule": finding.rule, "path": finding.path, "rel": finding.rel,
        "pkg": finding.pkg, "line": finding.line, "message": finding.message,
    }


def _finding_from_json(data: dict) -> Finding:
    return Finding(
        rule=data["rule"], path=data["path"], rel=data["rel"],
        pkg=data["pkg"], line=data["line"], message=data["message"],
    )


def analyze_index(
    index: ModuleIndex,
    rule_ids: Iterable[str] | None = None,
    cache=None,
) -> AnalysisResult:
    """Run the selected rules over an existing index.

    When ``cache`` (an :class:`~repro.analysis.cache.AnalysisCache`) is
    given, modules rebuilt from cached facts reuse their cached
    module-scope findings verbatim; program-scope rules always re-run.
    The cache is only meaningful for all-rules runs — the CLI enforces
    that pairing.
    """
    rules = _select_rules(rule_ids)
    module_rules = [rule for rule in rules if rule.scope == "module"]
    program_rules = [rule for rule in rules if rule.scope == "program"]
    result = AnalysisResult(module_count=len(index), rule_ids=[rule.id for rule in rules])
    for module in index:
        local_findings: list[Finding] = []
        local_suppressed: list[tuple[Finding, Suppression]] = []
        cached_entry = None
        if cache is not None and module.from_cache:
            cached_entry = cache.findings_for(module.rel, module.content_hash)
        if module.from_cache:
            result.cached_modules += 1
        else:
            result.parsed_modules += 1
        suppressions, malformed = parse_suppressions(module.lines)
        if cached_entry is not None:
            # Replay the cached module-scope pass byte-for-byte.
            local_findings = [
                _finding_from_json(f) for f in cached_entry["findings"]
            ]
            local_suppressed = [
                (
                    _finding_from_json(f),
                    Suppression(
                        line=s["line"],
                        rule_ids=frozenset(s["rule_ids"]),
                        reason=s["reason"],
                    ),
                )
                for f, s in cached_entry["suppressed"]
            ]
        else:
            if module.syntax_error is not None:
                local_findings.append(
                    Finding(
                        rule=FRAMEWORK_RULE,
                        path=str(module.path),
                        rel=module.rel,
                        pkg=module.pkg,
                        line=int(module.syntax_error.split(":", 1)[0] or 1),
                        message=f"unparseable: {module.syntax_error.split(': ', 1)[-1]}",
                    )
                )
            else:
                for line, message in malformed:
                    local_findings.append(
                        Finding(
                            rule=FRAMEWORK_RULE,
                            path=str(module.path),
                            rel=module.rel,
                            pkg=module.pkg,
                            line=line,
                            message=message,
                        )
                    )
                for rule in module_rules:
                    for finding in rule.check(module, index):
                        suppression = suppressions.get(finding.line)
                        if suppression is not None and finding.rule in suppression.rule_ids:
                            local_suppressed.append((finding, suppression))
                        else:
                            local_findings.append(finding)
            if cache is not None and rule_ids is None:
                cache.store(
                    module,
                    [_finding_to_json(f) for f in local_findings],
                    [
                        [
                            _finding_to_json(f),
                            {
                                "line": s.line,
                                "rule_ids": sorted(s.rule_ids),
                                "reason": s.reason,
                            },
                        ]
                        for f, s in local_suppressed
                    ],
                )
        result.findings.extend(local_findings)
        result.suppressed.extend(local_suppressed)
        if module.syntax_error is None:
            for rule in program_rules:
                for finding in rule.check(module, index):
                    suppression = suppressions.get(finding.line)
                    if suppression is not None and finding.rule in suppression.rule_ids:
                        result.suppressed.append((finding, suppression))
                    else:
                        result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.rel, f.line, f.rule, f.message))
    result.suppressed.sort(key=lambda pair: (pair[0].rel, pair[0].line, pair[0].rule))
    return result


def analyze(
    paths: Iterable[Path | str],
    rule_ids: Iterable[str] | None = None,
    package_root: Path | str | None = None,
    cache=None,
    docs_root: Path | str | None = None,
) -> AnalysisResult:
    """Index ``paths`` and run the selected rules (all, by default)."""
    # Cached facts are rule-independent, but cached *findings* were written
    # under an all-rules pass — a subset run must not consume or refresh them.
    index_cache = cache if rule_ids is None else None
    index = ModuleIndex(
        paths, package_root=package_root, cache=index_cache, docs_root=docs_root
    )
    return analyze_index(index, rule_ids, cache=index_cache)
