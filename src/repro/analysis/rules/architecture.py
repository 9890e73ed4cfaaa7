"""A1–A7: the architecture rules (A1–A3 are the legacy R1–R3).

The A1–A3 finding messages deliberately keep the legacy
``R1``/``R2``/``R3`` wording, which CI logs and the architecture test
suite key on.

A1–A3 only apply to modules *inside* the repro package (or a scratch tree
scanned with an explicit package root): benchmarks and scripts live above
the architecture and receive their runtime through the facades.

A2, A5, A6 and A7 all say "these constructors are called only under these
packages"; they are rows of :data:`CONFINEMENTS`, checked by the one
:class:`ConfinementRule`.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple

from repro.analysis.core import Finding, Rule, register
from repro.analysis.index import Module, ModuleIndex

__all__ = [
    "EngineLayeringRule",
    "ShadowAssemblyRule",
    "ConfinementRule",
]

# A1 (R1): packages of the evaluation core, and the prefixes they must not
# import.
CORE_PACKAGES = ("engine", "nfa")
FORBIDDEN_FOR_CORE = ("repro.strategies", "repro.core", "repro.runtime")

# A3 (R3): substrate constructors, by group.
SUBSTRATE_GROUPS = {
    "Transport": "transport",
    "LRUCache": "cache",
    "CostBasedCache": "cache",
    "Tracer": "tracer",
}
DEFINING_MODULES = {
    "Transport": ("remote/transport.py",),
    "LRUCache": ("cache/lru.py",),
    "CostBasedCache": ("cache/cost_based.py",),
    "Tracer": ("obs/trace.py",),
}
COMPOSITION_ROOT = "runtime/"


@register
class EngineLayeringRule(Rule):
    id = "A1"
    title = "engine layering: the evaluation core imports nothing above it"
    explain = """\
(Legacy R1.)  The evaluation core — repro.engine and repro.nfa — sits below
the strategy and assembly layers: it may not import repro.strategies,
repro.core, or repro.runtime.  Strategies see engines through the
FetchDecision callback interface, never the other way round; an upward
import would let evaluation semantics depend on which strategy or facade is
loaded."""

    def check(self, module: Module, index: ModuleIndex) -> Iterator[Finding]:
        if module.pkg is None or module.pkg_top not in CORE_PACKAGES:
            return
        for name, line in module.imports:
            if any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN_FOR_CORE):
                yield self.finding(
                    module, line, f"R1 layering: core package imports {name}"
                )


@register
class ShadowAssemblyRule(Rule):
    id = "A3"
    title = "no shadow assembly: one module wires at most one substrate group"
    explain = """\
(Legacy R3.)  Outside repro.runtime, no module may construct classes from
two or more substrate groups (transport / cache / tracer) in one place:
wiring them together is the composition root's job.  Constructing a Tracer
alone is fine — callers build tracers and hand them INTO the builder."""

    def check(self, module: Module, index: ModuleIndex) -> Iterator[Finding]:
        pkg = module.pkg
        if pkg is None or pkg.startswith(COMPOSITION_ROOT):
            return
        groups: dict[str, tuple[str, int]] = {}
        for name, line in module.constructed:
            if name not in SUBSTRATE_GROUPS or pkg in DEFINING_MODULES.get(name, ()):
                continue
            groups.setdefault(SUBSTRATE_GROUPS[name], (name, line))
        if len(groups) >= 2:
            built = ", ".join(sorted(name for name, _ in groups.values()))
            line = min(line for _, line in groups.values())
            yield self.finding(
                module, line,
                f"R3 shadow assembly: constructs {built} together outside repro.runtime",
            )


class Confinement(NamedTuple):
    """One "constructed only under these packages" rule."""

    id: str
    title: str
    constructors: tuple[str, ...]
    #: package-path prefixes whose modules may call the constructors.
    allowed: tuple[str, ...]
    #: finding text; ``{name}`` is the constructor called.
    message: str
    explain: str
    #: constructor -> modules that define it (and may therefore call it).
    defining: Mapping[str, tuple[str, ...]] = {}
    #: whether modules outside the repro package (benchmarks, scripts) are
    #: exempt — the legacy R2 reading — or checked like everything else.
    package_only: bool = False


CONFINEMENTS = (
    Confinement(
        id="A2",
        title="composition root: substrate classes built only in repro.runtime",
        constructors=("Transport", "LRUCache", "CostBasedCache"),
        allowed=(COMPOSITION_ROOT,),
        defining=DEFINING_MODULES,
        package_only=True,
        message="R2 composition root: constructs {name} outside repro.runtime",
        explain="""\
(Legacy R2.)  Only repro.runtime (and the defining modules themselves) may
construct the shared substrate classes Transport, LRUCache, and
CostBasedCache.  Everything else — facades, CLI, benchmarks — receives an
assembled runtime from RuntimeBuilder, so fault tolerance, tracing, and
metrics wiring cannot silently diverge between entry points.""",
    ),
    Confinement(
        id="A5",
        title="shedding plane constructed only by the composition root",
        constructors=("LoadShedder", "OverloadDetector", "make_shedding_policy"),
        allowed=(COMPOSITION_ROOT, "shedding/"),
        package_only=True,
        message=(
            "shedding composition: constructs {name} outside repro.runtime; "
            "sessions get their LoadShedder from RuntimeBuilder"
        ),
        explain="""\
Load shedding silently trades recall for latency, so whether it is active
must be decided in exactly one place.  Only repro.runtime (the composition
root) and repro.shedding itself may construct the plane's entry points —
LoadShedder, OverloadDetector, and the make_shedding_policy factory.
Everything else receives an assembled session from RuntimeBuilder; a
strategy, facade, or benchmark wiring its own shedder could drop events or
runs without the config, counters, and trace records that make every drop
accountable (and would break the guarantee that shed_policy='none' is
byte-identical to a build without the plane).""",
    ),
    Confinement(
        id="A6",
        title="the engine is built only by the composition root",
        constructors=("Engine",),
        allowed=(COMPOSITION_ROOT,),
        defining={"Engine": ("engine/engine.py",)},
        message=(
            "engine composition: constructs {name} outside repro.runtime; "
            "register the query and let RuntimeBuilder build its engine"
        ),
        explain="""\
An engine is wired to the shared clock, the config's cost model and
selection policy, and a bound strategy; RuntimeBuilder._build_session is
the one place that does it.  Only repro.runtime (the composition root) may
construct Engine.  Everything else, benchmarks included, registers a query
and receives an assembled session, so no run is evaluated by an engine the
config did not describe.""",
    ),
    Confinement(
        id="A7",
        title="fleets composed only via FleetBuilder",
        constructors=("Fleet", "TokenBucket"),
        allowed=("serving/",),
        message=(
            "serving composition: constructs {name} outside repro.serving; "
            "declare TenantSpecs and compose the fleet via FleetBuilder"
        ),
        explain="""\
The serving plane's placement, rate limiting, metric scoping, and trace
records all hang off FleetBuilder.build(): it validates tenant specs, labels
each tenant with a shard, adds every tenant's queries to one RuntimeBuilder
— a fleet is a single Runtime, with one clock, one remote-data plane, and
fleet-wide priority order — and wires per-tenant token buckets and quotas
into the shedding plane.  Constructing the plane's internals — Fleet or
TokenBucket — anywhere outside repro.serving would bypass that validation
and produce fleets whose admission decisions carry no provenance, so only
the serving package itself may build them.  Everything else declares
TenantSpecs and calls FleetBuilder.""",
    ),
)


class ConfinementRule(Rule):
    """Checks one :class:`Confinement` row."""

    def __init__(self, row: Confinement) -> None:
        self.row = row
        self.id = row.id
        self.title = row.title
        self.explain = row.explain

    def check(self, module: Module, index: ModuleIndex) -> Iterator[Finding]:
        row = self.row
        pkg = module.pkg
        if pkg is None:
            if row.package_only:
                return
        elif pkg.startswith(row.allowed):
            return
        for name, line in module.constructed:
            if name in row.constructors and pkg not in row.defining.get(name, ()):
                yield self.finding(module, line, row.message.format(name=name))


for _row in CONFINEMENTS:
    register(ConfinementRule(_row))
