"""The evaluation-backend registry: pluggable engines behind one interface.

Kolchinsky & Schuster (arXiv 1801.09413) argue that CEP query *semantics*
should be independent of the evaluation *mechanism*, so mechanisms can be
swapped and compared under one cost model.  This module is that separation
for the reproduction: an :class:`EvalBackend` is any engine that can play
the ``f_Q`` role in the dispatch loop — consume one input event, advance the
virtual clock by the declared costs, and produce
:class:`~repro.engine.interface.MatchRecord` objects — and the registry maps
backend names to implementations the composition root
(:class:`~repro.runtime.builder.RuntimeBuilder`) instantiates.

The registry mirrors the shedding-policy registry
(:mod:`repro.shedding.policy`): implementations self-register under a
canonical name (plus optional aliases) via :func:`register_backend`, lookups
go through :func:`get_backend` / :func:`make_backend`, and unknown names
fail with the full catalogue.  Unlike shedding policies, backends differ in
*capability*: the tree engine implements only the greedy selection policy
and exposes no shedding surface.  Those limits are declared as
:class:`BackendCapabilities` flags, and the builder checks them generically
through :meth:`EvalBackend.require` — one error-message format for every
policy/shedding/obligation mismatch, instead of scattered ``ValueError``\\ s.

Only :mod:`repro.runtime` (the composition root) and this package may call
:func:`get_backend` / :func:`make_backend` — analysis rule A6 enforces it —
so which engine evaluates a query is decided in exactly one place.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.engine.engine import GREEDY
from repro.engine.interface import CostModel, MatchRecord, StrategyProtocol

if TYPE_CHECKING:
    from repro.events.event import Event
    from repro.nfa.automaton import Automaton
    from repro.sim.clock import VirtualClock

__all__ = [
    "BackendCapabilities",
    "BackendCapabilityError",
    "BackendListing",
    "EvalBackend",
    "backend_names",
    "get_backend",
    "list_backends",
    "make_backend",
    "register_backend",
    "resolve_backend",
]


class BackendCapabilityError(ValueError):
    """The configuration asks a backend for something it does not support."""


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do; the builder checks these declaratively.

    ``policies``
        The selection policies (§2.1) the backend implements.
    ``shedding``
        Whether the backend exposes the load-shedding surface —
        ``extendable_runs`` / ``shed_lowest`` / ``iter_runs`` — required by
        any shedding policy and by the ``max_partial_matches`` run cap.
    ``obligations``
        Whether the backend keeps per-run :class:`~repro.nfa.run.Obligation`
        records; the run-shedding utility score reads them.
    ``exact_replay``
        Whether the backend promises *byte-identical* results to the
        ``reference`` backend — same match signatures, same
        :class:`~repro.engine.interface.EngineStats` counters, same virtual
        clock advances, same trace stream.  The conformance suite holds
        exact-replay backends to full equality and the others (``tree``) to
        match-set equivalence only.
    """

    policies: tuple[str, ...]
    shedding: bool
    obligations: bool
    exact_replay: bool

    def require(
        self,
        backend: str,
        *,
        policy: str | None = None,
        shedding: bool = False,
        obligations: bool = False,
    ) -> None:
        """Raise :class:`BackendCapabilityError` unless every need is met.

        All mismatches are reported in one message so a config asking for
        several unsupported things fails with the complete list.
        """
        missing: list[str] = []
        if policy is not None and policy not in self.policies:
            supported = ", ".join(self.policies)
            missing.append(f"selection policy {policy!r} (supported: {supported})")
        if shedding and not self.shedding:
            missing.append(
                "load shedding (no extendable_runs/shed_lowest surface)"
            )
        if obligations and not self.obligations:
            missing.append("run obligations (no per-run obligation records)")
        if missing:
            raise BackendCapabilityError(
                f"backend {backend!r} does not support " + "; nor ".join(missing)
            )


class EvalBackend(abc.ABC):
    """The narrow interface every evaluation backend implements.

    The dispatch loop (:func:`repro.runtime.dispatch.dispatch`) drives a
    backend exclusively through this surface:

    * :meth:`process_event` — one ``f_Q`` step, charging the cost model
      against the shared virtual clock and returning finished matches;
    * :meth:`flush` — drop remaining partial state at end of stream;
    * :attr:`stats` — an :class:`~repro.engine.interface.EngineStats`;
    * :attr:`active_runs` / :meth:`runs_per_state` — the live-partial-match
      surface the strategies' utility ticks read.

    Backends declaring ``capabilities.shedding`` additionally provide
    ``extendable_runs(event)``, ``shed_lowest(count, score, strategy,
    reason)``, and ``iter_runs()`` (see :class:`~repro.engine.engine.Engine`
    for the reference signatures) — the builder refuses shedding configs on
    backends without the flag, so the dispatch loop never probes for them.

    Concrete backends subclass an engine implementation *first* and this
    interface second (``class TreeBackend(TreeEngine, EvalBackend)``) so the
    engine's concrete methods win the MRO, then register with
    :func:`register_backend`, which fills the class-level metadata.
    """

    #: Canonical registry name; set by :func:`register_backend`.
    name: ClassVar[str] = ""
    #: Alternate names accepted by :func:`resolve_backend`.
    aliases: ClassVar[tuple[str, ...]] = ()
    #: Declared capability flags the builder checks.
    capabilities: ClassVar[BackendCapabilities]
    #: One-line description shown by ``list_backends()``.
    description: ClassVar[str] = ""

    @classmethod
    @abc.abstractmethod
    def build(
        cls,
        automaton: "Automaton",
        clock: "VirtualClock",
        *,
        cost_model: CostModel | None = None,
        policy: str = GREEDY,
        max_partial_matches: int | None = None,
    ) -> "EvalBackend":
        """Construct an instance from the uniform factory signature.

        Backends ignore arguments their capabilities exclude (the tree
        backend takes no policy), but the builder has already refused any
        config that *relies* on an ignored argument via :meth:`require`.
        """

    @abc.abstractmethod
    def process_event(self, event: "Event", strategy: StrategyProtocol) -> list[MatchRecord]:
        """Advance the evaluation by one input event (the ``f_Q`` step)."""

    @abc.abstractmethod
    def flush(self, strategy: StrategyProtocol) -> None:
        """Drop all remaining partial matches (end of stream)."""

    @property
    @abc.abstractmethod
    def active_runs(self) -> int:
        """Current number of live partial matches."""

    @abc.abstractmethod
    def runs_per_state(self) -> dict[int, int]:
        """Live partial matches per class (for #P_j monitoring)."""

    @classmethod
    def require(
        cls,
        *,
        policy: str | None = None,
        shedding: bool = False,
        obligations: bool = False,
    ) -> None:
        """Capability check under this backend's name (builder entry point)."""
        cls.capabilities.require(
            cls.name, policy=policy, shedding=shedding, obligations=obligations
        )


@dataclass(frozen=True)
class BackendListing:
    """One row of :func:`list_backends` — registry metadata, no classes."""

    name: str
    aliases: tuple[str, ...]
    capabilities: BackendCapabilities
    description: str


_BACKENDS: dict[str, type[EvalBackend]] = {}
_ALIASES: dict[str, str] = {}


def _claim_names(name: str, aliases: tuple[str, ...]) -> None:
    for label in (name, *aliases):
        if label in _BACKENDS or label in _ALIASES:
            raise ValueError(f"backend {label!r} is already registered")
    for alias in aliases:
        _ALIASES[alias] = name


def register_backend(
    name: str,
    *,
    aliases: tuple[str, ...] = (),
    capabilities: BackendCapabilities,
    description: str = "",
):
    """Class decorator: register an :class:`EvalBackend` implementation.

    Usage mirrors the rule registry of :mod:`repro.analysis`::

        @register_backend("tree", capabilities=BackendCapabilities(...))
        class TreeBackend(TreeEngine, EvalBackend): ...

    Duplicate names (canonical or alias, against any earlier registration)
    raise ``ValueError``.
    """

    def decorate(cls: type[EvalBackend]) -> type[EvalBackend]:
        if not issubclass(cls, EvalBackend):
            raise TypeError(f"{cls.__name__} does not implement EvalBackend")
        _claim_names(name, aliases)
        cls.name = name
        cls.aliases = tuple(aliases)
        cls.capabilities = capabilities
        cls.description = description
        _BACKENDS[name] = cls
        return cls

    return decorate


def backend_names() -> list[str]:
    """Canonical backend names, sorted."""
    return sorted(_BACKENDS)


def resolve_backend(name: str) -> str:
    """The canonical name for ``name`` (aliases resolved).

    Raises ``ValueError`` (``unknown backend ...``) for names never
    registered.
    """
    canonical = _ALIASES.get(name, name)
    if canonical in _BACKENDS:
        return canonical
    catalogue = ", ".join(backend_names())
    raise ValueError(f"unknown backend {name!r}; registered backends: {catalogue}")


def get_backend(name: str) -> type[EvalBackend]:
    """The backend class for ``name`` (composition-root entry point, A6)."""
    return _BACKENDS[resolve_backend(name)]


def make_backend(
    name: str,
    automaton: "Automaton",
    clock: "VirtualClock",
    *,
    cost_model: CostModel | None = None,
    policy: str = GREEDY,
    max_partial_matches: int | None = None,
) -> EvalBackend:
    """Construct the named backend (composition-root entry point, A6)."""
    return get_backend(name).build(
        automaton,
        clock,
        cost_model=cost_model,
        policy=policy,
        max_partial_matches=max_partial_matches,
    )


def list_backends() -> list[BackendListing]:
    """Every registered backend as a metadata row, sorted by name."""
    return [
        BackendListing(
            name=name,
            aliases=cls.aliases,
            capabilities=cls.capabilities,
            description=cls.description,
        )
        for name, cls in sorted(_BACKENDS.items())
    ]
