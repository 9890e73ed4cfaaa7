"""A1, A2, A5–A7 and R3: the architecture rules.

The A1–A2 finding messages deliberately keep the legacy ``R1``/``R2``
wording, which CI logs and the architecture test suite key on.

A1–A2 only apply to modules *inside* the repro package (or a scratch tree
scanned with an explicit package root): benchmarks and scripts live above
the architecture and receive their runtime through the facades.  R3 is the
opposite edge: it checks only those consumers.

A2, A5, A6 and A7 all say "these constructors are called only under these
packages"; they are rows of :data:`CONFINEMENTS`, checked by the one
:class:`ConfinementRule`.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple

from repro.analysis.core import Finding, Rule, register
from repro.analysis.index import Module, ModuleIndex

__all__ = ["EngineLayeringRule", "ConfinementRule", "PublicSurfaceRule"]

# A1 (R1): packages of the evaluation core, and the prefixes they must not
# import.
CORE_PACKAGES = ("engine", "nfa")
FORBIDDEN_FOR_CORE = ("repro.strategies", "repro.core", "repro.runtime")

# A2 (R2): substrate constructors and the modules that define them.
DEFINING_MODULES = {
    "Transport": ("remote/transport.py",),
    "LRUCache": ("cache/lru.py",),
    "CostBasedCache": ("cache/cost_based.py",),
}
COMPOSITION_ROOT = "runtime/"

# R3: directories holding in-tree consumers of the public API, and the
# subpackage surfaces documented as stable alongside the top-level
# ``repro`` exports (see README "Public API").
CONSUMER_DIRS = ("examples", "benchmarks")
PUBLIC_PACKAGES = ("repro.workloads", "repro.bench", "repro.metrics.reporting")


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
The serving plane's rate limiting, metric scoping, and trace records all
hang off FleetBuilder.build(): it validates tenant specs, adds every
tenant's queries to one RuntimeBuilder — a fleet is a single Runtime, with
one clock, one remote-data plane, and fleet-wide priority order — and wires
per-tenant token buckets and quotas into the shedding plane.  Constructing the plane's internals — Fleet or
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
