"""P1: the promised-pure surface stays side-effect-free.

The Eq. 5/7/8 scoring functions are consulted speculatively (shedding
ranks, batching scores, strategies compare) and must be consequence-free to
call.

The contract table lives in :data:`repro.analysis.effects.PURE_CONTRACTS`;
the effect engine closes each function's effects over the call graph, so a
mutation buried in a helper two calls down still surfaces here.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.core import Finding, Rule, register
from repro.analysis.effects import effect_analysis
from repro.analysis.index import Module, ModuleIndex

__all__ = ["PurityRule"]


@register
class PurityRule(Rule):
    id = "P1"
    scope = "program"
    title = "promised-pure functions (Eq. 5/7/8 scoring) stay effect-free"
    explain = """\
Functions listed in repro.analysis.effects.PURE_CONTRACTS carry a purity
promise: the Eq. 5/7/8 utility / rate / shedding scoring functions, allowed
to touch nothing.

The effect engine infers each function's observable side effects —
attribute stores, global writes, mutations of non-fresh objects — and
closes them transitively over resolved call edges.  Mutating a container
the function itself builds is fine; mutating anything that outlives the
call is a finding, including effects inherited from helpers.

A finding here means either the function gained a real side effect (fix
it: return the value instead of storing it) or the contract table needs a
deliberate, reviewed widening in effects.py."""

    def check(self, module: Module, index: ModuleIndex) -> Iterator[Finding]:
        engine = effect_analysis(index)
        for qual, allowed, effect in engine.violations(module):
            where = f"{effect.rel}:{effect.line}"
            via = f" via {effect.via}()" if effect.via else ""
            allowance = (
                f" (allowed: {', '.join(allowed)})" if allowed else ""
            )
            yield self.finding(
                module, self._anchor_line(module, qual, effect),
                f"promised-pure `{qual}` has a {effect.kind} side effect on "
                f"`{effect.name}` at {where}{via}{allowance}",
            )

    @staticmethod
    def _anchor_line(module: Module, qual: str, effect) -> int:
        if effect.rel == module.rel:
            return effect.line
        for fn in module.functions:
            if fn["qual"] == qual:
                return fn["line"]
        return 1
