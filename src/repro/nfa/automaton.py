"""The automata-based evaluation model (Fig. 2 of the paper).

A query compiles into a prefix tree of *states* (the paper's classes of
partial matches): the root is the empty match, each non-root state binds one
more event atom, and the leaves of complete paths are final states.  OR
branches diverge after their shared prefix, exactly as ``q1`` fans out in
Fig. 2.  The tree shape gives the partial order over classes (``j < m`` iff
``j`` is an ancestor of ``m``) that PFetch's lookahead timing (Alg. 3) walks.

*Remote sites* are the unit the fetching strategies reason about: one site
per (transition, remote predicate, remote reference), annotated with the
state at which the reference's lookup key becomes known.  A site whose key
is bound strictly before the evaluating transition admits prefetching; a
site keyed by the current input event can only be handled by blocking or
lazy evaluation.
"""

from __future__ import annotations

from typing import Iterator

from repro.query.ast import EventAtom, Window
from repro.query.guards import BucketLoop, Guard
from repro.query.predicates import Predicate, RemoteRef

__all__ = ["State", "Transition", "RemoteSite", "Automaton"]


class State:
    """One class of partial matches."""

    __slots__ = (
        "index",
        "parent",
        "depth",
        "entry_binding",
        "path_bindings",
        "is_final",
        "transitions",
        "_final_reachable",
    )

    def __init__(
        self,
        index: int,
        parent: "State | None",
        entry_binding: str | None,
    ) -> None:
        self.index = index
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.entry_binding = entry_binding
        if parent is None:
            self.path_bindings: tuple[str, ...] = ()
        else:
            self.path_bindings = parent.path_bindings + (entry_binding,)
        self.is_final = False
        self.transitions: list[Transition] = []
        self._final_reachable = False

    @property
    def name(self) -> str:
        return f"q{self.index}"

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def ancestors(self) -> Iterator["State"]:
        """This state and all states above it, nearest first (reflexive)."""
        node: State | None = self
        while node is not None:
            yield node
            node = node.parent

    def precedes(self, other: "State") -> bool:
        """Partial order over classes: ``self < other`` (strict ancestor)."""
        return self is not other and any(node is self for node in other.ancestors())

    def __repr__(self) -> str:
        suffix = " final" if self.is_final else ""
        return f"State({self.name}, path={'/'.join(self.path_bindings) or '<root>'}{suffix})"


class Transition:
    """A guarded edge ``source -> target`` binding one event atom.

    The guard is split into *local* predicates (payload, correlation,
    implicit type check) and *remote* predicates; the window constraint is
    enforced by the engine, not stored here.  ``guard`` is the local
    predicates compiled into one function (:mod:`repro.query.guards`) — what
    the engine calls per run; ``bucket_loop`` is the same guard compiled into
    a loop over a whole bucket of runs, ``None`` when the transition has
    remote predicates (the strategy decides those run by run) or leaves the
    root (no run is ever filed at the root, so no bucket there is stepped).
    """

    __slots__ = (
        "index",
        "source",
        "target",
        "atom",
        "event_type",
        "binding",
        "local_predicates",
        "remote_predicates",
        "guard",
        "bucket_loop",
        "sites",
    )

    def __init__(
        self,
        index: int,
        source: State,
        target: State,
        atom: EventAtom,
        local_predicates: tuple[Predicate, ...],
        remote_predicates: tuple[Predicate, ...],
        guard: Guard,
        bucket_loop: BucketLoop | None,
    ) -> None:
        self.index = index
        self.source = source
        self.target = target
        self.atom = atom
        self.event_type = atom.event_type
        self.binding = atom.binding
        self.local_predicates = local_predicates
        self.remote_predicates = remote_predicates
        self.guard = guard
        self.bucket_loop = bucket_loop
        self.sites: tuple[RemoteSite, ...] = ()

    @property
    def guard_source(self) -> str:
        """Python source of the generated :attr:`guard`."""
        return self.guard.source

    def __repr__(self) -> str:
        return (
            f"Transition({self.source.name}->{self.target.name}, "
            f"{self.event_type} {self.binding}, {len(self.local_predicates)} local, "
            f"{len(self.remote_predicates)} remote)"
        )


class RemoteSite:
    """One remote reference inside one transition guard.

    ``bound_at`` is the state on the path at which the reference's key
    binding is available, or ``None`` when the key comes from the current
    input event (no prefetching possible).  ``lookahead_states`` enumerates
    the prefetch trigger candidates — entering any of them makes the key
    known — ordered from closest-to-the-need (the transition's source) back
    to ``bound_at``, which is the order Alg. 3 walks.
    """

    __slots__ = ("site_id", "transition", "predicate", "ref", "bound_at", "lookahead_states")

    def __init__(
        self,
        site_id: int,
        transition: Transition,
        predicate: Predicate,
        ref: RemoteRef,
        bound_at: State | None,
    ) -> None:
        self.site_id = site_id
        self.transition = transition
        self.predicate = predicate
        self.ref = ref
        self.bound_at = bound_at
        if bound_at is None:
            self.lookahead_states: tuple[State, ...] = ()
        else:
            states = []
            for state in transition.source.ancestors():
                states.append(state)
                if state is bound_at:
                    break
            self.lookahead_states = tuple(states)

    @property
    def prefetchable(self) -> bool:
        """Whether the key is derivable from a partial match before the need."""
        return self.bound_at is not None

    @property
    def source(self) -> str:
        return self.ref.source

    def __repr__(self) -> str:
        bound = self.bound_at.name if self.bound_at is not None else "<input event>"
        return f"RemoteSite(#{self.site_id}, {self.ref!r} at {self.transition!r}, key bound at {bound})"


class Automaton:
    """The compiled evaluation model of one query."""

    def __init__(
        self,
        states: list[State],
        window: Window,
        name: str = "query",
        partition_attr: str | None = None,
    ) -> None:
        if not states or not states[0].is_root:
            raise ValueError("automaton needs a root state at index 0")
        self.states = states
        self.root = states[0]
        self.window = window
        self.name = name
        # A SAME[attr] correlation lets the engine index partial matches by
        # that attribute's value: an input event can only ever extend runs
        # whose partition matches, so dispatch skips all others.
        self.partition_attr = partition_attr
        self.transitions: list[Transition] = [
            transition for state in states for transition in state.transitions
        ]
        self.final_states = [state for state in states if state.is_final]
        if not self.final_states:
            raise ValueError("automaton has no final state; the query can never match")
        self.sites: list[RemoteSite] = [
            site for transition in self.transitions for site in transition.sites
        ]
        # State in which a binding's event gets bound, for key-availability tests.
        self.binding_state: dict[str, State] = {}
        for transition in self.transitions:
            self.binding_state[transition.binding] = transition.target

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state(self, index: int) -> State:
        return self.states[index]

    def describe(self) -> str:
        """Human-readable summary of states, transitions, and remote sites."""
        lines = [f"Automaton {self.name!r}: {len(self.states)} states, window {self.window!r}"]
        for transition in self.transitions:
            lines.append(f"  {transition!r}")
        for site in self.sites:
            lines.append(f"  {site!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Automaton({self.name!r}, {len(self.states)} states, "
            f"{len(self.transitions)} transitions, {len(self.sites)} remote sites)"
        )
