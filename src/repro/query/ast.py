"""Abstract syntax for the SASE-style pattern language (§2.1, Listing 1/2).

A query is a *pattern* (nested SEQ / OR structure over typed event atoms),
a conjunction of WHERE conditions, and a window.  The compiler
(:mod:`repro.query.compiler`) lowers this into the evaluation automaton.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Sequence, Union

from repro.query.errors import CompileError
from repro.query.predicates import Predicate, SameAttribute

__all__ = ["Pattern", "EventAtom", "SeqPattern", "OrPattern", "Window", "Query"]

Condition = Union[Predicate, SameAttribute]


class Pattern(ABC):
    """A pattern tree node."""

    @abstractmethod
    def atoms(self) -> Iterator["EventAtom"]:
        """All event atoms in the pattern, left to right."""

    @abstractmethod
    def binding_sequences(self) -> list[tuple["EventAtom", ...]]:
        """Every alternative linearisation of the pattern.

        SEQ concatenates, OR unions; the result enumerates the automaton
        paths the compiler will build (e.g. Fig. 2's two branches).
        """


class EventAtom(Pattern):
    """A single typed event to select, bound to a name: ``T t1``."""

    __slots__ = ("event_type", "binding")

    def __init__(self, event_type: str, binding: str) -> None:
        if not binding:
            raise CompileError("event atoms need a binding name")
        self.event_type = event_type
        self.binding = binding

    def atoms(self) -> Iterator["EventAtom"]:
        yield self

    def binding_sequences(self) -> list[tuple["EventAtom", ...]]:
        return [(self,)]

    def __repr__(self) -> str:
        return f"{self.event_type} {self.binding}"


class SeqPattern(Pattern):
    """``SEQ(p1, ..., pn)`` — the parts occur in order."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Pattern]) -> None:
        if not parts:
            raise CompileError("SEQ requires at least one part")
        self.parts = tuple(parts)

    def atoms(self) -> Iterator[EventAtom]:
        for part in self.parts:
            yield from part.atoms()

    def binding_sequences(self) -> list[tuple[EventAtom, ...]]:
        sequences: list[tuple[EventAtom, ...]] = [()]
        for part in self.parts:
            sequences = [
                prefix + suffix
                for prefix in sequences
                for suffix in part.binding_sequences()
            ]
        return sequences

    def __repr__(self) -> str:
        inner = ", ".join(repr(part) for part in self.parts)
        return f"SEQ({inner})"


class OrPattern(Pattern):
    """``p1 OR p2 OR ...`` — any one alternative occurs."""

    __slots__ = ("alternatives",)

    def __init__(self, alternatives: Sequence[Pattern]) -> None:
        if len(alternatives) < 2:
            raise CompileError("OR requires at least two alternatives")
        self.alternatives = tuple(alternatives)

    def atoms(self) -> Iterator[EventAtom]:
        for alternative in self.alternatives:
            yield from alternative.atoms()

    def binding_sequences(self) -> list[tuple[EventAtom, ...]]:
        sequences: list[tuple[EventAtom, ...]] = []
        for alternative in self.alternatives:
            sequences.extend(alternative.binding_sequences())
        return sequences

    def __repr__(self) -> str:
        return " OR ".join(repr(alternative) for alternative in self.alternatives)


class Window:
    """A ``WITHIN`` constraint: time span in virtual us, or an event count.

    The paper's Q2 uses ``WITHIN 50K`` — a count-based window over stream
    positions — while the other queries use time windows; both are supported.
    """

    __slots__ = ("kind", "value")

    TIME = "time"
    COUNT = "count"

    def __init__(self, kind: str, value: float) -> None:
        if kind not in (self.TIME, self.COUNT):
            raise CompileError(f"unknown window kind {kind!r}")
        if value <= 0:
            raise CompileError(f"window must be positive: {value}")
        if kind == self.COUNT and value != int(value):
            raise CompileError(f"count window must be integral: {value}")
        self.kind = kind
        self.value = value

    @classmethod
    def time(cls, microseconds: float) -> "Window":
        return cls(cls.TIME, microseconds)

    @classmethod
    def count(cls, events: int) -> "Window":
        return cls(cls.COUNT, events)

    def admits(self, first_t: float, first_seq: int, event_t: float, event_seq: int) -> bool:
        """Whether an event at (t, seq) still falls in the window opened by
        the match's first event."""
        if self.kind == self.TIME:
            return event_t - first_t <= self.value
        return event_seq - first_seq <= self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Window) and (self.kind, self.value) == (other.kind, other.value)

    def __repr__(self) -> str:
        if self.kind == self.TIME:
            return f"WITHIN {self.value}us"
        return f"WITHIN {int(self.value)} EVENTS"


class Query:
    """A full CEP query: pattern, WHERE conjunction, window, and a name."""

    __slots__ = ("pattern", "conditions", "window", "name")

    def __init__(
        self,
        pattern: Pattern,
        conditions: Sequence[Condition],
        window: Window,
        name: str = "query",
    ) -> None:
        self.pattern = pattern
        self.conditions = tuple(conditions)
        self.window = window
        self.name = name
        self._validate()

    def _validate(self) -> None:
        # A binding may recur across OR alternatives (shared prefixes reuse
        # it), but must be unique within any single alternative.
        for sequence in self.pattern.binding_sequences():
            names = [atom.binding for atom in sequence]
            if len(set(names)) != len(names):
                raise CompileError(
                    f"duplicate binding names within one alternative: {names}"
                )
        known = {atom.binding for atom in self.pattern.atoms()}
        for condition in self.conditions:
            if isinstance(condition, SameAttribute):
                continue
            unknown = condition.bindings() - known
            if unknown:
                raise CompileError(
                    f"condition {condition!r} references unknown bindings {sorted(unknown)}"
                )

    @property
    def bindings(self) -> tuple[str, ...]:
        return tuple(atom.binding for atom in self.pattern.atoms())

    def remote_sources(self) -> set[str]:
        """All remote sources referenced by the query's predicates."""
        sources: set[str] = set()
        for condition in self.conditions:
            if isinstance(condition, SameAttribute):
                continue
            for ref in condition.remote_refs():
                sources.add(ref.source)
        return sources

    def structure(self) -> tuple:
        """Everything that decides what and when the query matches, its name
        erased: two queries with equal structures evaluate identically."""
        return _structure((self.pattern, self.conditions, self.window))

    def __repr__(self) -> str:
        return f"Query({self.name!r}, {self.pattern!r}, {len(self.conditions)} conditions, {self.window!r})"


def _structure(node) -> tuple | int:
    """``node`` as nested tuples, compared with ``==``.

    Nodes of the slotted classes of this module and of
    :mod:`repro.query.predicates` unfold slot by slot (private slots are
    derived state); leaves keep their exact type, so ``1``, ``1.0`` and
    ``True`` stay apart; a function — a ``FunctionPredicate``'s ``fn`` — is
    its identity, and a node of any other class compares by its own ``==``
    (identity, unless the class defines one).
    """
    if isinstance(node, (tuple, list)):
        return tuple(_structure(item) for item in node)
    kind = type(node)
    slots = kind.__dict__.get("__slots__") if kind.__module__ in _AST_MODULES else None
    if slots is not None:
        return (kind, *(_structure(getattr(node, slot)) for slot in slots
                        if not slot.startswith("_")))
    if callable(node):
        return id(node)
    return (kind, node)


_AST_MODULES = (__name__, Predicate.__module__)
