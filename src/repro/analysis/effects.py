"""Purity / effect inference over the call graph.

Each function's *direct* effects come from the per-function facts the
index extracted:

* ``("attr", name, line)``   — a store into / mutation of ``self.<name>``;
* ``("param", name, line)``  — a mutation of a caller-supplied argument;
* ``("global", name, line)`` — a store into module / global state;
* ``("obj", name, line)``    — a mutation of some other non-fresh object.

Mutating a container the function itself created (``out = []; out.append``)
is *not* an effect — the facts layer tracks fresh locals and drops those.

Effects close transitively over resolved call edges: a caller inherits the
``attr`` / ``global`` / ``obj`` effects of everything it calls.  ``param``
effects stay local — the callee mutates *its* argument; whether that is
observable depends on what the caller passed, and the contracted functions
below only pass freshly built containers.

The purity *contracts* — which functions the reproduction promises are
effect-free, and which effect allowances they carry — live in
``PURE_CONTRACTS``.  A contract may whitelist attributes the function
legitimately writes (a memo, an instrumentation counter); any effect
beyond that whitelist is what rule P1 reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.index import Module, ModuleIndex

__all__ = ["EffectAnalysis", "Effect", "PURE_CONTRACTS", "effect_analysis"]

#: (pkg, qualname) -> attribute names the function may legitimately touch.
#: Everything listed is a promised-pure function: the Eq. 5/7/8 scoring
#: surface.  An empty tuple means strictly effect-free.
PURE_CONTRACTS: dict[tuple[str, str], tuple[str, ...]] = {
    # Eq. 5/7/8 utility scoring (strategies consume these every decision).
    ("utility/model.py", "required_keys"): (),
    ("utility/model.py", "UtilityModel.terms"): (),
    ("utility/model.py", "UtilityModel.urgent_utility"): (),
    ("utility/model.py", "UtilityModel.future_utility"): (),
    ("utility/model.py", "UtilityModel.value"): (),
    ("utility/model.py", "UtilityModel.class_count"): (),
    ("utility/rates.py", "RateEstimator.event_rate"): (),
    ("utility/rates.py", "RateEstimator.type_rate"): (),
    ("utility/rates.py", "RateEstimator.extension_rate"): (),
    ("utility/rates.py", "RateEstimator.expected_gap"): (),
    # Shedding utility scoring (eSPICE-style drop ordering).
    ("shedding/policy.py", "partial_match_utility"): (),
    ("shedding/policy.py", "event_utility"): (),
}


@dataclass(frozen=True)
class Effect:
    """One observable side effect, with the call chain that reaches it."""

    kind: str       # attr | global | obj
    name: str       # attribute / global / object name
    rel: str        # module where the effect happens
    line: int
    via: str        # "" for direct effects, else the callee qualname chain


class EffectAnalysis:
    """Transitive effect sets per call-graph node."""

    def __init__(self, index: ModuleIndex) -> None:
        self.index = index
        self.graph: CallGraph = build_call_graph(index)
        #: node key -> frozenset[Effect]
        self.effects: dict[str, frozenset] = {}
        self._compute()

    def _direct(self, module: Module, fn: dict) -> set:
        effects = set()
        for kind, name, line in fn.get("effects", ()):
            if kind == "param":
                continue  # local to the callee; see module docstring
            effects.add(Effect(kind=kind, name=name, rel=module.rel,
                               line=line, via=""))
        return effects

    def _compute(self) -> None:
        # Jacobi fixpoint: inherit callee effects until stable.  The call
        # graph is small enough that a handful of rounds converges.
        direct: dict[str, set] = {}
        for key, (module, fn) in self.graph.functions.items():
            direct[key] = self._direct(module, fn)
        current = {key: set(value) for key, value in direct.items()}
        for _ in range(50):
            changed = False
            for key, (module, fn) in self.graph.functions.items():
                mine = current[key]
                before = len(mine)
                for _, callee in self.graph.edges[key]:
                    if callee is None or callee == key:
                        continue
                    callee_fn = self.graph.functions[callee][1]
                    for effect in current[callee]:
                        inherited = Effect(
                            kind=effect.kind, name=effect.name,
                            rel=effect.rel, line=effect.line,
                            via=effect.via or callee_fn["qual"],
                        )
                        mine.add(inherited)
                if len(mine) != before:
                    changed = True
            if not changed:
                break
        self.effects = {key: frozenset(value) for key, value in current.items()}

    def effects_of(self, module: Module, qual: str) -> frozenset:
        from repro.analysis.callgraph import node_key
        return self.effects.get(node_key(module, qual), frozenset())

    def violations(self, module: Module) -> list[tuple[str, tuple[str, ...], Effect]]:
        """Contract breaches in one module: (qualname, allowed, effect)."""
        if module.pkg is None:
            return []
        out = []
        for fn in module.functions:
            contract = PURE_CONTRACTS.get((module.pkg, fn["qual"]))
            if contract is None:
                continue
            allowed = set(contract)
            for effect in sorted(self.effects_of(module, fn["qual"]),
                                 key=lambda e: (e.rel, e.line, e.kind, e.name)):
                if effect.kind == "attr" and effect.name in allowed:
                    continue
                out.append((fn["qual"], contract, effect))
        return out


def effect_analysis(index: ModuleIndex) -> EffectAnalysis:
    """The memoised effect engine for an index."""
    engine = index.scratch.get("effects")
    if engine is None:
        engine = EffectAnalysis(index)
        index.scratch["effects"] = engine
    return engine
