"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cost_based import CostBasedCache
from repro.cache.lru import LRUCache
from repro.core.config import EiresConfig
from repro.core.framework import EIRES
from repro.engine.engine import Engine
from repro.engine.interface import CostModel
from repro.engine.reference import reference_match_signatures
from repro.events.event import Event
from repro.metrics.latency import percentile
from repro.nfa.compiler import compile_query
from repro.nfa.run import Run
from repro.query.guards import compile_bucket_loop, compile_guard, interpret_guard
from repro.query.parser import parse_query
from repro.query.predicates import (
    _COMPARATORS,
    Attr,
    Comparison,
    Const,
    FunctionPredicate,
    Membership,
)
from repro.remote.element import DataElement
from repro.remote.transport import FixedLatency
from repro.sim.clock import VirtualClock
from repro.sim.rng import stable_hash
from repro.sim.scheduler import FutureScheduler

from tests.helpers import RecordingStrategy, make_abc_scenario, random_stream, run_eires

# -- caches ---------------------------------------------------------------

cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "get"]),
        st.integers(min_value=0, max_value=30),  # key
        st.integers(min_value=1, max_value=4),  # size (put only)
        st.booleans(),  # certain (put only)
    ),
    max_size=120,
)


@given(capacity=st.integers(min_value=1, max_value=12), ops=cache_ops)
@settings(max_examples=150, deadline=None)
def test_lru_capacity_never_exceeded(capacity, ops):
    cache = LRUCache(capacity)
    for index, (op, key, size, _certain) in enumerate(ops):
        if op == "put":
            cache.put(DataElement(("s", key), key, size=size), float(index))
        else:
            cache.get(("s", key), float(index))
        assert cache.used <= capacity
        assert cache.used == sum(
            cache._entries[k].total_size() for k in cache.keys()
        )


@given(capacity=st.integers(min_value=1, max_value=12), ops=cache_ops)
@settings(max_examples=150, deadline=None)
def test_cost_cache_capacity_never_exceeded(capacity, ops):
    utilities = {}
    cache = CostBasedCache(capacity, utility_fn=lambda key: utilities.get(key, 0.0))
    for index, (op, key, size, certain) in enumerate(ops):
        utilities[("s", key)] = float((key * 7) % 13)
        if op == "put":
            cache.put(DataElement(("s", key), key, size=size), float(index), certain=certain)
        else:
            cache.get(("s", key), float(index))
        assert cache.used <= capacity


@given(ops=cache_ops)
@settings(max_examples=80, deadline=None)
def test_cache_get_returns_what_was_put(ops):
    cache = LRUCache(1000)  # big enough: no eviction
    stored = {}
    for index, (op, key, size, _certain) in enumerate(ops):
        if op == "put":
            element = DataElement(("s", key), f"value-{key}", size=size)
            cache.put(element, float(index))
            stored[("s", key)] = element
        else:
            hit = cache.get(("s", key), float(index))
            if ("s", key) in stored:
                assert hit is stored[("s", key)]
            else:
                assert hit is None


# -- scheduler -------------------------------------------------------------


@given(dues=st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=60))
@settings(max_examples=100, deadline=None)
def test_scheduler_pops_in_nondecreasing_due_order(dues):
    scheduler = FutureScheduler()
    for due in dues:
        scheduler.schedule(due, due)
    drained = list(scheduler.drain())
    assert drained == sorted(drained)


@given(
    dues=st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=40),
    horizon=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_scheduler_pop_due_boundary(dues, horizon):
    scheduler = FutureScheduler()
    for due in dues:
        scheduler.schedule(due, due)
    popped = list(scheduler.pop_due(horizon))
    assert all(value <= horizon for value in popped)
    assert len(popped) == sum(1 for due in dues if due <= horizon)


# -- percentiles -------------------------------------------------------------


@given(
    values=st.lists(st.floats(min_value=0.0, max_value=1e9, allow_nan=False), min_size=1, max_size=200),
    q=st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=200, deadline=None)
def test_percentile_bounded_and_monotone(values, q):
    ordered = sorted(values)
    result = percentile(ordered, q)
    assert ordered[0] <= result <= ordered[-1]
    if q >= 50:
        assert result >= percentile(ordered, q - 50)


# -- stable hashing -----------------------------------------------------------

hashable_parts = st.recursive(
    st.one_of(
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.text(max_size=12),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.tuples(children, children),
    max_leaves=6,
)


@given(part=hashable_parts)
@settings(max_examples=200, deadline=None)
def test_stable_hash_deterministic_and_bounded(part):
    first = stable_hash(part)
    second = stable_hash(part)
    assert first == second
    assert 0 <= first < 2**64


@given(a=st.integers(min_value=0, max_value=10**6), b=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_stable_hash_order_sensitive(a, b):
    if a != b:
        assert stable_hash(a, b) != stable_hash(b, a)


# -- end-to-end: engine vs. oracle reference -----------------------------------


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    policy=st.sampled_from(["greedy", "non_greedy"]),
    strategy=st.sampled_from(["BL1", "BL3", "Hybrid"]),
)
@settings(max_examples=25, deadline=None)
def test_engine_matches_reference_on_random_streams(seed, policy, strategy):
    query, store = make_abc_scenario()
    stream = random_stream(60, seed=seed, id_domain=2, v_domain=6)
    automaton = compile_query(query)
    expected = reference_match_signatures(automaton, stream, store, policy)
    result = run_eires(query, store, stream, strategy=strategy, policy=policy)
    assert result.match_signatures() == expected


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_latencies_are_nonnegative_and_finite(seed):
    query, store = make_abc_scenario()
    stream = random_stream(80, seed=seed)
    result = run_eires(query, store, stream, strategy="Hybrid")
    for match in result.matches:
        assert 0.0 <= match.latency < 1e12


# -- virtual clock monotonicity under arbitrary strategy/workload mixes --------


@given(
    seed=st.integers(min_value=0, max_value=1000),
    strategy=st.sampled_from(["BL1", "BL2", "BL3", "PFetch", "LzEval", "Hybrid"]),
)
@settings(max_examples=20, deadline=None)
def test_detection_times_nondecreasing(seed, strategy):
    query, store = make_abc_scenario()
    stream = random_stream(80, seed=seed)
    result = run_eires(query, store, stream, strategy=strategy)
    detected = [match.detected_at for match in result.matches]
    assert detected == sorted(detected)


# -- engine: live #P_j counters equal a recount of the run table ----------------


def _recount(engine):
    return {
        index: total
        for index, buckets in engine._runs.items()
        if (total := sum(len(runs) for runs in buckets.values()))
    }


def _check_counts_after(engine, method):
    original = getattr(engine, method)

    def checked(*args, **kwargs):
        result = original(*args, **kwargs)
        recount = _recount(engine)
        assert engine.runs_per_state() == recount, method
        assert engine.active_runs == sum(recount.values()), method
        return result

    setattr(engine, method, checked)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    policy=st.sampled_from(["greedy", "non_greedy"]),
    strategy=st.sampled_from(["BL1", "BL3", "LzEval", "Hybrid"]),
    cap=st.sampled_from([None, 3, 12]),
    shed_policy=st.sampled_from(["none", "runs"]),
)
@settings(max_examples=50, deadline=None)
def test_runs_per_state_counters_equal_a_recount(seed, policy, strategy, cap, shed_policy):
    """Every add / expire / consume / obligation-fail / shed / flush site keeps
    the O(1) per-state counters equal to a recount, after every event.

    The query's last transition is local-only, so its buckets expire and
    consume through the bucket loop's outcome replay (every bucket under BL1,
    the obligation-free ones otherwise); the sweep is checked on its own.
    """
    query, store = make_abc_scenario(set_members=frozenset({1, 2, 3}))
    # A short window makes runs expire mid-stream; the tiny latency bound
    # keeps the `runs` policy shedding on most events.
    query.window = type(query.window).time(300.0)
    config = EiresConfig(
        policy=policy,
        cache_capacity=100,
        max_partial_matches=cap,
        shed_policy=shed_policy,
        latency_bound=0.5 if shed_policy != "none" else None,
    )
    eires = EIRES(query, store, FixedLatency(50.0), strategy=strategy, config=config)
    engine = eires.engine
    for method in ("process_event", "_expire", "shed_lowest", "flush"):
        _check_counts_after(engine, method)
    eires.run(random_stream(120, seed=seed, id_domain=2, v_domain=6))
    assert engine.runs_per_state() == {} and engine.active_runs == 0


# -- generated guards vs. the interpretive reference -------------------------------


def _opaque_ge(left, right):
    return left >= right


_payload = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.sampled_from(["", "a", "b", "ab"]),
)
_operand = st.one_of(
    st.builds(Attr, st.sampled_from(["a", "b"]), st.sampled_from(["x", "y", "missing"])),
    st.builds(Const, _payload),
)
_cost = st.sampled_from([0.02, 0.1, 0.3, 1.0, 0.0, 1e-9, 7.7])
_predicate = st.one_of(
    st.builds(Comparison, st.sampled_from(sorted(_COMPARATORS)), _operand, _operand, _cost),
    st.builds(
        Membership,
        _operand,
        st.builds(Const, st.sampled_from([(1, 2, "a"), frozenset({0, 1.5, "ab"}), "abc"])),
        st.booleans(),
        _cost,
    ),
    st.builds(
        FunctionPredicate,
        st.just(_opaque_ge),
        st.tuples(_operand, _operand),
        st.just("opaque_ge"),
        _cost,
    ),
)

# Reflexive comparisons hold for every payload: a prefix of them moves the
# first failure (or error) to every position of the conjunction.
_passing = st.builds(Attr, st.sampled_from(["a", "b"]), st.sampled_from(["x", "y"])).flatmap(
    lambda operand: st.builds(
        Comparison, st.sampled_from(["=", "<=", ">="]), st.just(operand), st.just(operand), _cost
    )
)


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the differential includes which error, worded how
        return type(exc), str(exc)


@given(
    predicates=st.builds(
        lambda passing, rest: passing + rest,
        st.lists(_passing, max_size=5),
        st.lists(_predicate, max_size=3),
    ),
    bound=st.fixed_dictionaries({"x": _payload, "y": _payload}),
    current=st.fixed_dictionaries({"x": _payload, "y": _payload}),
    start=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
)
@settings(max_examples=400, deadline=None)
def test_generated_guard_agrees_with_the_interpretive_loop(predicates, bound, current, start):
    """Same verdict, same predicates charged, bit-identical time, same errors.

    Mixed int/float/str payloads make operand type errors and failures at
    every position of the conjunction routine; ``missing`` attributes make
    the descriptive ``KeyError`` routine.
    """
    env = {"a": Event(1.0, bound, seq=0)}
    event = Event(2.0, current, seq=1)
    guard = compile_guard(predicates, "b")
    fallback = guard.__globals__["_interpret"]
    fell_back = []
    guard.__globals__["_interpret"] = lambda *args: fell_back.append(args) or fallback(*args)
    generated = _outcome(lambda: guard(env, event, start))
    interpreted = _outcome(lambda: interpret_guard(predicates, "b", env, event, start))
    assert generated == interpreted
    # The fallback is for guards that raise, not a crutch for broken code.
    assert bool(fell_back) == isinstance(interpreted[0], type)
    if isinstance(generated[0], int):
        # What the engine does with the result, against the clock it replaced.
        clock = VirtualClock(start)
        for predicate in predicates[: generated[0]]:
            clock.advance(predicate.eval_cost)
        assert generated[2] == clock.now


# -- generated bucket loops vs. the per-run path -----------------------------------

_NOW_SEQ, _NOW_T = 100, 1000.0
_WINDOW = {"count": "WITHIN 5 EVENTS", "time": "WITHIN 50 us"}


def _bucket_engine(predicates, parents, window, policy, final, start, guard_cost, warm, loop):
    """An engine whose state-1 bucket holds ``parents``, about to see a ``B``.

    The ``a -> b`` transition carries ``predicates``; ``loop`` False leaves
    the engine no bucket loop to call, which is the per-run path.
    """
    pattern = "SEQ(A a, B b)" if final else "SEQ(A a, B b, C c)"
    automaton = compile_query(parse_query(f"{pattern} {_WINDOW[window]}", name="t"))
    assert automaton.window.kind == window
    transition = automaton.states[1].transitions[0]
    transition.local_predicates = tuple(predicates)
    transition.guard = compile_guard(predicates, "b")
    transition.bucket_loop = compile_bucket_loop(predicates, "b", window)
    clock = VirtualClock(start)
    engine = Engine(automaton, clock, CostModel(per_guard_cost=guard_cost), policy=policy)
    if not loop:
        engine._bucket_transitions = {}
    strategy = RecordingStrategy(clock)
    tally = strategy.guard_tally(transition)
    tally.evaluations, tally.passes = warm
    runs = []
    for payload, age in parents:
        # Age 5 sits exactly on the window's edge; older runs have expired.
        first = Event(_NOW_T - 10.0 * age, payload, seq=_NOW_SEQ - age)
        run = Run.start(automaton.states[1], "a", first, created_at=start)
        engine._add_run(run, None, strategy)
        runs.append(run)
    return engine, strategy, tally, runs


def _bucket_observables(engine, strategy, tally, runs, outcome):
    """Everything the step made observable, runs named by bucket position."""
    position = {id(run): index for index, run in enumerate(runs)}

    def name(run):
        if id(run) in position:
            return position[id(run)]
        parent = next(i for i, r in enumerate(runs) if r.env["a"] is run.env["a"])
        return ("extension of", parent, run.state.index, run.first_seq, run.last_seq,
                run.created_at, run.obligations)

    if isinstance(outcome, list):
        outcome = [
            (match.signature(), match.detected_at, match.last_event_t, match.fetch_wait)
            for match in outcome
        ]
    return {
        "outcome": outcome,
        "now": engine.clock.now,
        "stats": engine.stats.as_dict(),
        "tallies": (tally.evaluations, tally.passes),
        "live": [name(run) for run in engine.iter_runs()],
        "counts": (engine.active_runs, engine.runs_per_state()),
        "callbacks": [(kind, name(run), at) for kind, run, at in strategy.log],
    }


@given(
    predicates=st.builds(
        lambda passing, rest: passing + rest,
        st.lists(_passing, max_size=4),
        st.lists(_predicate, max_size=3),
    ),
    parents=st.lists(
        st.tuples(
            st.fixed_dictionaries({"x": _payload, "y": _payload}),
            st.integers(min_value=0, max_value=9),
        ),
        max_size=7,
    ),
    current=st.fixed_dictionaries({"x": _payload, "y": _payload}),
    window=st.sampled_from(["count", "time"]),
    policy=st.sampled_from(["greedy", "non_greedy"]),
    final=st.booleans(),
    start=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    guard_cost=st.sampled_from([0.05, 0.0, 0.3, 1e-9]),
    warm=st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    ),
)
@settings(max_examples=400, deadline=None)
def test_bucket_loop_agrees_with_the_per_run_path(
    predicates, parents, current, window, policy, final, start, guard_cost, warm
):
    """One event against one bucket, through the generated loop + outcome
    replay and through ``_step_run``: bit-identical clock, counters, rate
    tallies, survivors (which, in what order), new runs, matches, and the
    clock every run callback saw.

    Parents of random age put expired runs at random bucket positions; the
    reflexive prefix puts the first failure — or the first error, from mixed
    payload types and ``missing`` attributes — at every predicate position
    and any run.  A predicate that raises surfaces the per-run path's error
    and leaves exactly the state the per-run path leaves.
    """
    event = Event(_NOW_T, {"type": "B", **current}, seq=_NOW_SEQ)
    observed = []
    for loop in (True, False):
        engine, strategy, tally, runs = _bucket_engine(
            predicates, parents, window, policy, final, start, guard_cost, warm, loop
        )
        if loop:
            completed = []
            transition = engine.automaton.states[1].transitions[0]
            generated = transition.bucket_loop
            transition.bucket_loop = lambda *args: completed.append(generated(*args)) or completed[-1]
        outcome = _outcome(lambda: engine.process_event(event, strategy))
        observed.append(_bucket_observables(engine, strategy, tally, runs, outcome))
    assert observed[0] == observed[1]
    # The per-run path is for buckets whose guards raise, not a crutch for a
    # broken loop: the loop ran to completion exactly when nothing raised.
    if parents:
        assert bool(completed) == isinstance(outcome, list)


@given(
    ages=st.lists(st.integers(min_value=0, max_value=9), max_size=12),
    window=st.sampled_from(["count", "time"]),
)
@settings(max_examples=100, deadline=None)
def test_expiry_sweep_is_window_admits_in_bucket_order(ages, window):
    """The sweep's inlined comparison is ``Window.admits``; survivors keep
    their order and the expired are reported in bucket order."""
    parents = [({"x": 0, "y": 0}, age) for age in ages]
    engine, strategy, _tally, runs = _bucket_engine(
        [], parents, window, "greedy", False, 0.0, 0.05, (0.0, 0.0), True
    )
    strategy.log.clear()
    admits = engine.automaton.window.admits
    expected = [admits(run.first_t, run.first_seq, _NOW_T, _NOW_SEQ) for run in runs]
    engine._expire(Event(_NOW_T, {"type": "B"}, seq=_NOW_SEQ), strategy)
    assert list(engine.iter_runs()) == [run for run, kept in zip(runs, expected) if kept]
    assert [run for _kind, run, _at in strategy.log] == [
        run for run, kept in zip(runs, expected) if not kept
    ]
    assert engine.stats.runs_expired == expected.count(False)
    assert engine.active_runs == expected.count(True)
