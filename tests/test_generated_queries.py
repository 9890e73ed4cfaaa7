"""Generated queries: every strategy detects what the query text says, nothing else.

PAPER.md §5: PFetch, LzEval and Hybrid change *when* a match is detected,
never *what*.  Hypothesis writes the queries — SEQ / OR patterns of 2–6
atoms, nested and with final states that keep matching a longer alternative,
``SAME[id]`` or not, local and ``REMOTE`` conditions on any binding (the
first atom's and the last transition's included), a COUNT or a TIME window —
renders each to text and parses it back, so the parser is on the path too.
Each parsed query then runs under all six strategies and both selection
policies on a healthy plane without batching, and its match signatures must
equal two oracles:

* ``engine/reference.py``, which walks the compiled automaton with the
  remote data at hand (both policies);
* :func:`_text_matches`, which reads the ``Query`` AST alone (greedy only):
  it imports nothing from ``nfa/``, so a condition the compiler drops or
  misplaces — one the automaton oracle would faithfully share — shows here.

The example budget is the active hypothesis profile's (``tests/conftest.py``).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import ALL_STRATEGIES
from repro.engine.reference import reference_match_signatures
from repro.events.event import Event
from repro.events.stream import Stream
from repro.nfa.compiler import compile_query
from repro.query.ast import EventAtom, OrPattern, Query, SeqPattern, Window
from repro.query.parser import parse_query
from repro.query.predicates import (
    _COMPARATORS,
    Attr,
    Comparison,
    Const,
    Membership,
    RemoteRef,
    SameAttribute,
)
from repro.remote.store import RemoteStore

from tests.helpers import run_eires

_ATTRS = st.sampled_from(["v", "w"])
_VALUES = st.integers(min_value=0, max_value=3)


def _store() -> RemoteStore:
    """``m``: a set of two values per key (membership); ``r``: one value (comparison)."""
    store = RemoteStore()
    store.register_source("m", lambda key: frozenset((key, (key + 1) % 4)))
    store.register_source("r", lambda key: (2 * key + 1) % 4)
    return store


@st.composite
def _patterns(draw, atoms, depth=0):
    """A pattern over ``atoms`` in order: SEQ, OR, or ``(P OR SEQ(P, ...))``,
    whose first alternative ends on a final state with successors."""
    if len(atoms) == 1:
        return atoms[0]
    cuts = sorted(draw(st.sets(st.integers(1, len(atoms) - 1), min_size=1, max_size=2)))
    bounds = [0, *cuts, len(atoms)]
    parts = [draw(_patterns(atoms[i:j], depth + 1)) for i, j in zip(bounds, bounds[1:])]
    shape = draw(st.sampled_from(["SEQ", "OR", "PREFIX"] if depth < 2 else ["SEQ"]))
    if shape == "SEQ":
        return SeqPattern(parts)
    if shape == "OR":
        return OrPattern(parts)
    return OrPattern([parts[0], SeqPattern(parts)])


@st.composite
def _conditions(draw, sequences):
    """A local or remote condition over one or two bindings of one alternative."""
    sequence = draw(st.sampled_from(sequences))
    item = Attr(draw(st.sampled_from(sequence)).binding, draw(_ATTRS))
    other = Attr(draw(st.sampled_from(sequence)).binding, draw(_ATTRS))
    op = st.sampled_from(sorted(_COMPARATORS))
    kind = draw(st.sampled_from(["local", "constant", "member", "remote"]))
    if kind == "local":
        return Comparison(draw(op), item, other)
    if kind == "constant":
        return Comparison(draw(op), item, Const(draw(_VALUES)))
    if kind == "member":
        return Membership(item, RemoteRef("m", other), negated=draw(st.booleans()))
    return Comparison(draw(op), item, RemoteRef("r", other))


@st.composite
def _queries(draw):
    atoms = [
        EventAtom(draw(st.sampled_from("ABC")), f"e{index}")
        for index in range(draw(st.integers(2, 6)))
    ]
    pattern = draw(_patterns(atoms))
    sequences = pattern.binding_sequences()
    conditions = draw(st.lists(_conditions(sequences), max_size=4))
    if draw(st.booleans()):
        conditions.insert(draw(st.integers(0, len(conditions))), SameAttribute("id"))
    window = draw(st.one_of(
        st.integers(2, 8).map(Window.count),
        st.integers(2, 8).map(lambda n: Window.time(10.0 * n)),
    ))
    return Query(pattern, conditions, window, name="generated")


def _render(query: Query) -> str:
    """``query`` in the query language."""

    def pattern(node):
        if isinstance(node, EventAtom):
            return f"{node.event_type} {node.binding}"
        if isinstance(node, SeqPattern):
            return f"SEQ({', '.join(map(pattern, node.parts))})"
        return f"({' OR '.join(map(pattern, node.alternatives))})"

    def expr(node):
        if isinstance(node, Const):
            return str(node.value)
        if isinstance(node, RemoteRef):
            return f"REMOTE<{node.source}>[{expr(node.key_expr)}]"
        return f"{node.binding}.{node.attr}"

    def condition(node):
        if isinstance(node, SameAttribute):
            return f"SAME[{node.attr}]"
        if isinstance(node, Membership):
            return f"{expr(node.item)} {'NOT IN' if node.negated else 'IN'} {expr(node.collection)}"
        return f"{expr(node.left)} {node.op} {expr(node.right)}"

    where = " AND ".join(map(condition, query.conditions))
    window = query.window
    unit = "EVENTS" if window.kind == Window.COUNT else "us"
    return (f"{pattern(query.pattern)}{' WHERE ' + where if where else ''}"
            f" WITHIN {int(window.value)} {unit}")


def _text_matches(query: Query, stream: Stream, store: RemoteStore) -> set[tuple]:
    """Greedy (skip-till-any-match) signatures of ``query``, read off its AST.

    The union, over the pattern's alternatives, of every order-preserving
    tuple of events of the atoms' types that fits in the window measured
    from its first event, agrees on every ``SAME`` attribute pairwise, and
    satisfies every other condition whose bindings the alternative binds.
    """
    events = list(stream)
    same = [c.attr for c in query.conditions if isinstance(c, SameAttribute)]
    others = [c for c in query.conditions if not isinstance(c, SameAttribute)]
    admits = query.window.admits

    def resolve(key):
        return store.lookup(key).value

    matches: set[tuple] = set()
    for sequence in query.pattern.binding_sequences():
        bound = {atom.binding for atom in sequence}
        conditions = [c for c in others if c.bindings() <= bound]

        def extend(chosen: list[Event], start: int) -> None:
            if len(chosen) == len(sequence):
                env = {atom.binding: event for atom, event in zip(sequence, chosen)}
                if all(c.evaluate(env, resolve) for c in conditions):
                    matches.add(tuple(sorted((b, event.seq) for b, event in env.items())))
                return
            first = chosen[0] if chosen else None
            for index in range(start, len(events)):
                event = events[index]
                if first is not None and not admits(first.t, first.seq, event.t, event.seq):
                    break
                if event.event_type == sequence[len(chosen)].event_type and all(
                    event[attr] == earlier[attr] for attr in same for earlier in chosen
                ):
                    extend([*chosen, event], index + 1)

        extend([], 0)
    return matches


_streams = st.lists(
    st.tuples(st.sampled_from("ABC"), st.integers(0, 1), _VALUES, _VALUES),
    min_size=6,
    max_size=16,
).map(lambda rows: Stream([
    Event(10.0 * (index + 1), {"type": kind, "id": id_, "v": v, "w": w})
    for index, (kind, id_, v, w) in enumerate(rows)
]))


@given(generated=_queries(), stream=_streams)
@settings(deadline=None)
def test_every_strategy_detects_what_the_query_text_says(generated, stream):
    text = _render(generated)
    query = parse_query(text, name="generated")
    assert query.structure() == generated.structure(), text
    store = _store()
    automaton = compile_query(query)
    for policy in ("greedy", "non_greedy"):
        expected = reference_match_signatures(automaton, stream, store, policy)
        if policy == "greedy":
            assert _text_matches(query, stream, store) == expected, text
        for strategy in ALL_STRATEGIES:
            result = run_eires(query, store, stream, strategy=strategy, policy=policy)
            assert result.match_signatures() == expected, (text, strategy, policy)
