"""Compilation of query ASTs into evaluation automata.

The compiler enumerates the pattern's alternative binding sequences
(``SEQ`` concatenates, ``OR`` unions), folds them into a shared-prefix tree
of states, and attaches each WHERE condition to the earliest transition at
which all of its bindings are available — the standard placement that lets
the engine discard doomed partial matches as early as possible.

``SAME[attr]`` correlation expands into pairwise equality with the previous
binding on the path, which is equivalent to all-pairs equality by
transitivity and keeps every guard binary.  The engine indexes partial
matches by the first ``SAME`` attribute, so that attribute's equality is
also handed to the transition's bucket loop, which may skip comparing what
the index already guarantees.

Each transition's local predicates are also compiled, here and once, into
the single function the engine calls per guard and — for transitions without
remote predicates that leave a state runs are filed at, which the root never
is — the loop it calls per bucket (:mod:`repro.query.guards`).
"""

from __future__ import annotations

from repro.nfa.automaton import Automaton, RemoteSite, State, Transition
from repro.query.ast import EventAtom, Query
from repro.query.errors import CompileError
from repro.query.guards import compile_bucket_loop, compile_guard
from repro.query.predicates import Attr, Comparison, Predicate, SameAttribute

__all__ = ["compile_query"]


def compile_query(query: Query) -> Automaton:
    """Compile ``query`` into an :class:`~repro.nfa.automaton.Automaton`."""
    sequences = query.pattern.binding_sequences()
    if not sequences:
        raise CompileError("pattern has no alternatives")
    root = State(0, parent=None, entry_binding=None)
    states = [root]
    # The prefix tree: walk/extend one branch per alternative sequence.
    for sequence in sequences:
        _build_path(root, sequence, query, states)
    _index_breadth_first(states)
    _attach_sites(states)
    _check_all_conditions_attached(states, query)
    return Automaton(
        states, query.window, name=query.name, partition_attr=_partition_attr(query)
    )


def _partition_attr(query: Query) -> str | None:
    """The attribute the engine indexes partial matches by: the first SAME's."""
    return next((c.attr for c in query.conditions if isinstance(c, SameAttribute)), None)


def _check_all_conditions_attached(states: list[State], query: Query) -> None:
    """Every non-SAME condition must guard at least one transition.

    A condition that attaches nowhere (e.g. it mixes bindings from two OR
    branches that never co-occur) would be silently dropped — fail loudly
    instead.
    """
    attached: set[int] = set()
    for state in states:
        for transition in state.transitions:
            for predicate in transition.local_predicates + transition.remote_predicates:
                attached.add(id(predicate))
    for condition in query.conditions:
        if isinstance(condition, SameAttribute):
            continue
        if id(condition) not in attached:
            raise CompileError(
                f"condition {condition!r} references bindings that never co-occur "
                "on any pattern alternative"
            )


def _build_path(root: State, sequence: tuple[EventAtom, ...], query: Query, states: list[State]) -> None:
    current = root
    for atom in sequence:
        existing = _child_for(current, atom)
        if existing is not None:
            current = existing
            continue
        target = State(len(states), parent=current, entry_binding=atom.binding)
        states.append(target)
        local, remote, partition = _guard_for(current, atom, query)
        transition = Transition(
            index=-1,  # assigned after BFS indexing
            source=current,
            target=target,
            atom=atom,
            local_predicates=local,
            remote_predicates=remote,
            guard=compile_guard(local, atom.binding),
            bucket_loop=(
                None
                if remote or current.is_root
                else compile_bucket_loop(local, atom.binding, query.window.kind, partition)
            ),
        )
        current.transitions.append(transition)
        current = target
    current.is_final = True


def _child_for(state: State, atom: EventAtom) -> State | None:
    for transition in state.transitions:
        if transition.binding == atom.binding:
            if transition.event_type != atom.event_type:
                raise CompileError(
                    f"binding {atom.binding!r} used with conflicting types "
                    f"{transition.event_type!r} and {atom.event_type!r}"
                )
            return transition.target
    return None


def _guard_for(
    source: State, atom: EventAtom, query: Query
) -> tuple[tuple[Predicate, ...], tuple[Predicate, ...], Predicate | None]:
    """Predicates to attach to the transition ``source --atom--> target``.

    Returns ``(local, remote, partition)``: ``partition`` is the local
    equality the engine's partition index already guarantees — the
    partition attribute's ``SAME`` link to the previous binding — if any.
    """
    available_before = frozenset(source.path_bindings)
    available_after = available_before | {atom.binding}
    partition_attr = _partition_attr(query)
    # The atom's type check is enforced by the engine via transition.event_type
    # (cheap pre-filter), so guards carry only the WHERE conditions.
    local: list[Predicate] = []
    remote: list[Predicate] = []
    partition = None
    for condition in query.conditions:
        if isinstance(condition, SameAttribute):
            if source.entry_binding is not None:
                equality = Comparison(
                    "=",
                    Attr(atom.binding, condition.attr),
                    Attr(source.entry_binding, condition.attr),
                )
                if partition is None and condition.attr == partition_attr:
                    partition = equality
                local.append(equality)
            continue
        refs = condition.bindings()
        if not refs <= available_after:
            continue  # becomes checkable only deeper down this path
        if refs and refs <= available_before:
            continue  # already attached on an earlier transition of this path
        if not refs and not source.is_root:
            continue  # constant conditions go on the very first transition
        if condition.is_remote:
            remote.append(condition)
        else:
            local.append(condition)
    return tuple(local), tuple(remote), partition


def _index_breadth_first(states: list[State]) -> None:
    """Re-index states in BFS order so indices respect the partial order."""
    root = states[0]
    order: list[State] = [root]
    queue = [root]
    while queue:
        state = queue.pop(0)
        for transition in state.transitions:
            order.append(transition.target)
            queue.append(transition.target)
    if len(order) != len(states):
        raise CompileError("state graph is not a tree rooted at q0")
    states.clear()
    states.extend(order)
    for index, state in enumerate(states):
        state.index = index
    next_transition = 0
    for state in states:
        for transition in state.transitions:
            transition.index = next_transition
            next_transition += 1


def _attach_sites(states: list[State]) -> None:
    """Create one :class:`RemoteSite` per (transition, predicate, reference)."""
    site_id = 0
    for state in states:
        for transition in state.transitions:
            sites = []
            for predicate in transition.remote_predicates:
                for ref in predicate.remote_refs():
                    bound_at = _key_bound_state(transition, ref.key_binding)
                    sites.append(RemoteSite(site_id, transition, predicate, ref, bound_at))
                    site_id += 1
            transition.sites = tuple(sites)


def _key_bound_state(transition: Transition, key_binding: str) -> State | None:
    """State on the path at which ``key_binding`` is bound, or ``None``.

    ``None`` means the key comes from the current input event (the binding
    the transition itself establishes) — prefetching is impossible there.
    """
    if key_binding == transition.binding:
        return None
    for state in transition.source.ancestors():
        if state.entry_binding == key_binding:
            return state
    raise CompileError(
        f"remote reference key binding {key_binding!r} is not on the path to "
        f"transition {transition!r}"
    )
