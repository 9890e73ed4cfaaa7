"""Predicate expression trees for CEP queries.

Predicates guard the transitions of the evaluation automaton (Fig. 2 of the
paper).  They fall into two groups the engine treats differently:

* *local* predicates read only the payload of events already bound in a
  partial match (plus the current input event);
* *remote* predicates additionally reference data elements from remote
  sources via :class:`RemoteRef` — these are the predicates EIRES is about.

Evaluation receives an *environment* (mapping of binding name to
:class:`~repro.events.event.Event`) and a *resolver* (callable mapping a
``(source, key)`` pair to a value).  A resolver that cannot supply a value
raises :class:`~repro.query.errors.RemoteDataUnavailable`; purely local
predicates never invoke the resolver.

Every predicate carries an ``eval_cost`` (virtual microseconds charged per
evaluation).  The case-study queries of §7.4 are dominated by
compute-intensive predicates (e.g. spatial overlap of geographic areas), and
this knob is how the workloads express that.

The engine does not walk these trees on its hot path: each expression also
*renders* itself as Python source, and :mod:`repro.query.guards` assembles
one straight-line function per transition guard from its local predicates,
and a ``keys`` / ``decide`` pair per remote predicate.  ``evaluate`` stays
the reference semantics — what the generated code falls back to when it
raises, and what it is tested against.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.events.event import Event
from repro.query.errors import RemoteDataUnavailable

if TYPE_CHECKING:
    from repro.query.guards import GuardScope

__all__ = [
    "Expr",
    "Attr",
    "Const",
    "RemoteRef",
    "Predicate",
    "Comparison",
    "Membership",
    "FunctionPredicate",
    "SameAttribute",
    "Resolver",
    "DEFAULT_PREDICATE_COST",
]

Resolver = Callable[[tuple], Any]
Env = Mapping[str, Event]

DEFAULT_PREDICATE_COST = 0.02  # virtual us per evaluation of a plain predicate

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Query-language operators whose Python spelling differs.
_PYTHON_OPERATORS = {"=": "==", "<>": "!="}


class Expr(ABC):
    """A value-producing expression over bound events and remote data."""

    @abstractmethod
    def bindings(self) -> frozenset[str]:
        """Names of event bindings the expression reads."""

    @abstractmethod
    def remote_refs(self) -> tuple["RemoteRef", ...]:
        """All remote references appearing in the expression."""

    @abstractmethod
    def evaluate(self, env: Env, resolver: Resolver) -> Any:
        """Compute the expression's value."""

    @abstractmethod
    def render(self, scope: GuardScope) -> str:
        """Python source computing the same value inside a generated guard."""


class Attr(Expr):
    """``binding.attr`` — an attribute of a bound event."""

    __slots__ = ("binding", "attr")

    def __init__(self, binding: str, attr: str) -> None:
        self.binding = binding
        self.attr = attr

    def bindings(self) -> frozenset[str]:
        return frozenset((self.binding,))

    def remote_refs(self) -> tuple["RemoteRef", ...]:
        return ()

    def evaluate(self, env: Env, resolver: Resolver) -> Any:
        try:
            event = env[self.binding]
        except KeyError:
            raise KeyError(
                f"binding {self.binding!r} not bound; environment has {sorted(env)}"
            ) from None
        return event[self.attr]

    def render(self, scope: GuardScope) -> str:
        if self.binding == scope.input_binding:
            return scope.input_attr(self.attr)
        return f"env[{self.binding!r}].attrs[{self.attr!r}]"

    def __repr__(self) -> str:
        return f"{self.binding}.{self.attr}"


class Const(Expr):
    """A literal constant."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def bindings(self) -> frozenset[str]:
        return frozenset()

    def remote_refs(self) -> tuple["RemoteRef", ...]:
        return ()

    def evaluate(self, env: Env, resolver: Resolver) -> Any:
        return self.value

    def render(self, scope: GuardScope) -> str:
        return scope.literal(self.value)

    def __repr__(self) -> str:
        return repr(self.value)


class RemoteRef(Expr):
    """``REMOTE<source>[binding.attr]`` — a remote data element lookup.

    The *source* names the logical remote table; the concrete lookup key is
    the value of ``binding.attr`` in the current environment.  The pair of
    them forms the :data:`~repro.remote.element.DataKey` handed to the
    resolver.
    """

    __slots__ = ("source", "key_expr")

    def __init__(self, source: str, key_expr: Attr) -> None:
        if not isinstance(key_expr, Attr):
            raise TypeError("a remote reference key must be a binding.attr expression")
        self.source = source
        self.key_expr = key_expr

    @property
    def key_binding(self) -> str:
        """The event binding whose payload provides the lookup key."""
        return self.key_expr.binding

    def concrete_key(self, env: Env) -> tuple:
        """The ``(source, key)`` pair this reference addresses under ``env``."""
        return (self.source, self.key_expr.evaluate(env, _NO_RESOLVER))

    def bindings(self) -> frozenset[str]:
        return self.key_expr.bindings()

    def remote_refs(self) -> tuple["RemoteRef", ...]:
        return (self,)

    def evaluate(self, env: Env, resolver: Resolver) -> Any:
        return resolver(self.concrete_key(env))

    def render(self, scope: GuardScope) -> str:
        if not scope.remote:
            raise TypeError(
                f"{self!r} cannot appear in a generated guard: only local "
                "predicates are compiled; the compiler must have misclassified one"
            )
        return f"values[({self.source!r}, {self.key_expr.render(scope)})]"

    def __repr__(self) -> str:
        return f"REMOTE<{self.source}>[{self.key_expr!r}]"


def _NO_RESOLVER(key: tuple) -> Any:
    raise RemoteDataUnavailable(key)


class Predicate(ABC):
    """A boolean condition over an environment and remote data."""

    eval_cost: float = DEFAULT_PREDICATE_COST
    #: True when the rendered condition calls no captured function: its
    #: truth value is a function of its operands alone, so a bucket loop may
    #: compute it once per bucket when every operand comes from the input.
    pure: bool = False

    @abstractmethod
    def bindings(self) -> frozenset[str]:
        """Bindings that must be bound before the predicate can be checked."""

    @abstractmethod
    def remote_refs(self) -> tuple[RemoteRef, ...]:
        """Remote references, empty for local predicates."""

    @abstractmethod
    def evaluate(self, env: Env, resolver: Resolver) -> bool:
        """Check the predicate; may raise ``RemoteDataUnavailable``."""

    @abstractmethod
    def render(self, scope: GuardScope) -> str:
        """Python source of an expression with the same truth value."""

    @property
    def is_remote(self) -> bool:
        return bool(self.remote_refs())

    def remote_keys(self, env: Env) -> tuple[tuple, ...]:
        """Concrete ``(source, key)`` pairs the predicate needs under ``env``."""
        return tuple(ref.concrete_key(env) for ref in self.remote_refs())


class Comparison(Predicate):
    """``left OP right`` for OP in ``= <> < <= > >=``."""

    __slots__ = ("op", "left", "right", "eval_cost", "_fn")
    pure = True

    def __init__(self, op: str, left: Expr, right: Expr, eval_cost: float = DEFAULT_PREDICATE_COST):
        if op not in _COMPARATORS:
            raise ValueError(f"unsupported comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self.eval_cost = eval_cost
        self._fn = _COMPARATORS[op]

    def bindings(self) -> frozenset[str]:
        return self.left.bindings() | self.right.bindings()

    def remote_refs(self) -> tuple[RemoteRef, ...]:
        return self.left.remote_refs() + self.right.remote_refs()

    def evaluate(self, env: Env, resolver: Resolver) -> bool:
        return bool(self._fn(self.left.evaluate(env, resolver), self.right.evaluate(env, resolver)))

    def render(self, scope: GuardScope) -> str:
        op = _PYTHON_OPERATORS.get(self.op, self.op)
        return f"({self.left.render(scope)} {op} {self.right.render(scope)})"

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Membership(Predicate):
    """``item [NOT] IN collection`` — the collection is usually a RemoteRef."""

    __slots__ = ("item", "collection", "negated", "eval_cost")
    pure = True

    def __init__(
        self,
        item: Expr,
        collection: Expr,
        negated: bool = False,
        eval_cost: float = DEFAULT_PREDICATE_COST,
    ) -> None:
        self.item = item
        self.collection = collection
        self.negated = negated
        self.eval_cost = eval_cost

    def bindings(self) -> frozenset[str]:
        return self.item.bindings() | self.collection.bindings()

    def remote_refs(self) -> tuple[RemoteRef, ...]:
        return self.item.remote_refs() + self.collection.remote_refs()

    def evaluate(self, env: Env, resolver: Resolver) -> bool:
        value = self.item.evaluate(env, resolver)
        collection = self.collection.evaluate(env, resolver)
        contained = value in collection
        return not contained if self.negated else contained

    def render(self, scope: GuardScope) -> str:
        word = "not in" if self.negated else "in"
        return f"({self.item.render(scope)} {word} {self.collection.render(scope)})"

    def __repr__(self) -> str:
        word = "NOT IN" if self.negated else "IN"
        return f"({self.item!r} {word} {self.collection!r})"


class FunctionPredicate(Predicate):
    """An arbitrary boolean function over expression values.

    This is the escape hatch the case-study workloads use for predicates the
    textual language cannot express (e.g. spatial overlap of geo cells); the
    declared ``eval_cost`` models their compute intensity.
    """

    __slots__ = ("fn", "args", "name", "eval_cost")

    def __init__(
        self,
        fn: Callable[..., bool],
        args: Iterable[Expr],
        name: str = "fn",
        eval_cost: float = DEFAULT_PREDICATE_COST,
    ) -> None:
        self.fn = fn
        self.args = tuple(args)
        self.name = name
        self.eval_cost = eval_cost

    def bindings(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for arg in self.args:
            result |= arg.bindings()
        return result

    def remote_refs(self) -> tuple[RemoteRef, ...]:
        refs: tuple[RemoteRef, ...] = ()
        for arg in self.args:
            refs += arg.remote_refs()
        return refs

    def evaluate(self, env: Env, resolver: Resolver) -> bool:
        return bool(self.fn(*(arg.evaluate(env, resolver) for arg in self.args)))

    def render(self, scope: GuardScope) -> str:
        args = ", ".join(arg.render(scope) for arg in self.args)
        return f"{scope.capture(self.fn)}({args})"

    def __repr__(self) -> str:
        inner = ", ".join(repr(arg) for arg in self.args)
        return f"{self.name}({inner})"


class SameAttribute:
    """``SAME[attr]`` — all selected events agree on ``attr``.

    This is not itself a :class:`Predicate`: the compiler expands it into a
    chain of pairwise equality comparisons (each new binding equals the
    previous one), which is equivalent by transitivity and keeps guards
    binary.
    """

    __slots__ = ("attr",)

    def __init__(self, attr: str) -> None:
        self.attr = attr

    def __repr__(self) -> str:
        return f"SAME[{self.attr}]"
