"""R1–R3: the registries, the code, the docs, and the consumers tell one story.

R1 guards the code↔registry edge: an emitted trace category must be a
constant *from* ``repro.obs.trace`` (a locally minted ``CAT_BOGUS``
passes M1's naming check but no validator knows it), and a non-literal
metric name must resolve to a declared ``*_METRIC`` constant.

R2 guards the code↔docs edge: every shedding policy and trace category
must appear (backticked) in its docs table — the tables operators and the
CLI help point at.

R3 guards the code↔consumer edge: ``examples/`` and ``benchmarks/`` are
the in-tree consumers of the *stable public API* — the curated
``repro/__init__.py`` ``__all__`` plus the declared public subpackages —
so an example reaching into ``repro.runtime.builder`` would silently
promote an internal module to load-bearing API.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.contracts import contract_analysis
from repro.analysis.core import Finding, Rule, register
from repro.analysis.index import Module, ModuleIndex

__all__ = ["RegistryDriftRule", "DocsDriftRule", "PublicSurfaceRule"]

# R3: directories holding in-tree consumers of the public API, and the
# subpackage surfaces documented as stable alongside the top-level
# ``repro`` exports (see README "Public API").
CONSUMER_DIRS = ("examples", "benchmarks")
PUBLIC_PACKAGES = ("repro.workloads", "repro.bench", "repro.metrics.reporting")


@register
class RegistryDriftRule(Rule):
    id = "R1"
    title = "emitted categories and metric names resolve to their registries"
    explain = """\
Cross-module check of emission sites against the defining
registries:

* every `tracer.emit(CAT_X, ...)` category must import (possibly through
  re-export aliases) from repro.obs.trace AND name a constant that module
  actually defines — a locally defined `CAT_BOGUS = "bogus"` satisfies
  M1's spelling check while being invisible to the trace validator and
  every docs table, which is exactly the drift this rule catches;
* every registry.counter/gauge/histogram name passed as a `*_METRIC`
  constant must resolve to a defined string constant somewhere in the
  indexed tree — a renamed constant with a stale call site dies here
  instead of at runtime.

Fix by importing the real constant (adding it to obs/trace.py if the
category is genuinely new) or repairing the stale reference."""

    def check(self, module: Module, index: ModuleIndex) -> Iterator[Finding]:
        engine = contract_analysis(index)
        for line, name in engine.rogue_emit_categories(module):
            yield self.finding(
                module, line,
                f"emitted trace category `{name}` does not resolve to a "
                f"constant defined in repro.obs.trace — the validator and "
                f"docs tables will never see it",
            )
        for line, name in engine.rogue_metric_names(module):
            yield self.finding(
                module, line,
                f"metric name constant `{name}` resolves to no *_METRIC "
                f"string constant in the indexed tree",
            )


@register
class DocsDriftRule(Rule):
    id = "R2"
    title = "registered policies and categories are documented"
    explain = """\
Cross-module check of the extension registries against the docs
tables operators read:

* every shedding policy key in SHED_POLICIES must appear in
  docs/shedding.md;
* every CAT_* category value in repro.obs.trace must appear in
  docs/observability.md.

Findings anchor at the constant-definition line.  When the docs tree is
absent (fixture runs, scratch trees) the rule is inert.  Fix by
documenting the new name in its table — or deleting an entry that should
not exist."""

    def check(self, module: Module, index: ModuleIndex) -> Iterator[Finding]:
        engine = contract_analysis(index)
        checks = (
            (engine.undocumented_policies(), "shedding policy", "docs/shedding.md"),
            (engine.undocumented_categories(), "trace category", "docs/observability.md"),
        )
        for entries, noun, doc in checks:
            for owner, line, name in entries:
                if owner.rel != module.rel:
                    continue
                yield self.finding(
                    module, line,
                    f"registered {noun} `{name}` is not documented in {doc}",
                )


@register
class PublicSurfaceRule(Rule):
    id = "R3"
    title = "examples and benchmarks import only the public repro surface"
    explain = """\
examples/ and benchmarks/ are the in-tree consumers of the stable public
API: they may import the `repro` package itself (whose curated __all__ is
the documented surface) and the declared public subpackages —
repro.workloads, repro.bench, and repro.metrics.reporting.  Importing any
other repro.* module from a consumer silently promotes an internal module
to load-bearing API: refactors inside src/ would break examples users
copy-paste, and the curated surface would stop meaning anything.  Fix by
importing the name from `repro` (exporting it there if it genuinely
belongs to the stable surface) or from one of the public subpackages."""

    def check(self, module: Module, index: ModuleIndex) -> Iterator[Finding]:
        parts = module.path.parts
        if not any(consumer in parts for consumer in CONSUMER_DIRS):
            return
        for name, line in module.imports:
            if name == "repro" or not name.startswith("repro."):
                continue
            if name in PUBLIC_PACKAGES or name.startswith(
                tuple(pkg + "." for pkg in PUBLIC_PACKAGES)
            ):
                continue
            yield self.finding(
                module, line,
                f"imports internal module {name}; consumers use the public "
                "surface — `repro` itself or "
                f"{', '.join(PUBLIC_PACKAGES)}",
            )
