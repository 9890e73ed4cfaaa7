"""Property-based tests (hypothesis) on core data structures and invariants."""

from types import SimpleNamespace
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cost_based import SAMPLE_SIZE, CostBasedCache
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
from repro.obs.provenance import replay_trace
from repro.obs.spans import SpanTracker
from repro.obs.trace import NULL_TRACER, MemorySink, Tracer
from repro.query.errors import RemoteDataUnavailable
from repro.query.guards import compile_bucket_loop, compile_guard, compile_remote, interpret_guard
from repro.query.parser import parse_query
from repro.query.predicates import (
    _COMPARATORS,
    Attr,
    Comparison,
    Const,
    FunctionPredicate,
    Membership,
    Predicate,
    RemoteRef,
)
from repro.remote.batching import BatchPolicy
from repro.remote.element import DataElement
from repro.remote.faults import make_fault_model
from repro.remote.retry import RetryPolicy
from repro.remote.store import RemoteStore
from repro.remote.transport import (
    MODE_BLOCKING,
    FetchRequest,
    FixedLatency,
    Transport,
    UniformLatency,
)
from repro.sim.clock import VirtualClock
from repro.sim.rng import make_rng, stable_hash
from repro.sim.scheduler import FutureScheduler
from repro.strategies import obligations as obligations_module
from repro.strategies.base import FAIL_CLOSED, FAIL_OPEN, FetchStrategy
from repro.strategies.obligations import _evaluate_with

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


class _FullScanCache(CostBasedCache):
    """The cache before the floor rule: both sampled decisions score every
    candidate — the parent commit's two ``min(...)`` expressions, verbatim."""

    def _select_victim(self):
        for tier in (self.TIER_SPECULATIVE, self.TIER_CERTAIN):
            candidates = self._tiers[tier].sample(self._rng, SAMPLE_SIZE)
            if candidates:
                return min(
                    candidates,
                    key=lambda key: (self._ratio(key), self._last_touch.get(key, 0.0)),
                )
        raise RuntimeError("cost-based cache asked to evict from an empty cache")

    def min_utility(self):
        for tier in (self.TIER_SPECULATIVE, self.TIER_CERTAIN):
            candidates = self._tiers[tier].sample(self._rng, SAMPLE_SIZE)
            if candidates:
                return min(self._ratio(key) for key in candidates)
        return 0.0

    def _ratio(self, key):
        element = self._entries.get(key)
        size = element.total_size() if element is not None else 1
        return self._utility_fn(key) / max(size, 1)


# Floors and ratio ties are common; so are recency ties (the clock often
# stands still between ops).
_floor_utility = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 2.0, 7.0])
_floor_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "put", "get", "min"]),
        st.integers(min_value=0, max_value=60),  # key
        st.integers(min_value=1, max_value=3),  # size (put only)
        st.booleans(),  # certain (put only)
        _floor_utility,  # the key's utility from this op on
        st.sampled_from([0.0, 0.0, 1.0]),  # clock step
    ),
    max_size=160,
)


@given(
    capacity=st.integers(min_value=1, max_value=40),  # whole-tier and drawn samples
    seed=st.integers(min_value=0, max_value=1000),
    ops=_floor_ops,
)
@settings(max_examples=200, deadline=None)
def test_floor_rule_decides_what_the_full_scan_decides(capacity, seed, ops):
    utilities = {}

    def utility(key):
        return utilities.get(key, 0.0)

    floor = CostBasedCache(capacity, utility_fn=utility, seed=seed)
    full = _FullScanCache(capacity, utility_fn=utility, seed=seed)
    now = 0.0
    for op, key, size, certain, value, step in ops:
        now += step
        utilities[("s", key)] = value
        if op == "put":
            for cache in (floor, full):
                cache.put(DataElement(("s", key), key, size=size), now, certain=certain)
        elif op == "get":
            assert (floor.get(("s", key), now) is None) == (full.get(("s", key), now) is None)
        else:
            assert floor.min_utility() == full.min_utility()
        assert floor.keys() == full.keys()
        assert floor.stats.evictions == full.stats.evictions
        assert floor._rng.getstate() == full._rng.getstate()


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


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_events=st.integers(min_value=60, max_value=120),
    policy=st.sampled_from(["greedy", "non_greedy"]),
    strategy=st.sampled_from(["BL2", "PFetch", "LzEval", "Hybrid"]),
    cache_policy=st.sampled_from(["lru", "cost"]),
    # 20 distinct keys: 1, 2 and 12 evict from a whole-tier sample, 13 from a
    # drawn one, 50 and 10 000 never fill.
    capacity=st.sampled_from([1, 2, 12, 13, 50, 10_000]),
    batching=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_engine_matches_reference_under_any_cache(
    seed, n_events, policy, strategy, cache_policy, capacity, batching
):
    """"When, never what" under an eviction policy nobody hand-picked, with
    the cache's and the run table's books balanced in the same runs."""
    query, store = make_abc_scenario()
    store.register_source("v", lambda key: frozenset(v for v in range(20) if (v + key) % 2))
    stream = random_stream(n_events, seed=seed, id_domain=2, v_domain=20)
    expected = reference_match_signatures(compile_query(query), stream, store, policy)
    sink = MemorySink()
    eires = EIRES(
        query,
        store,
        FixedLatency(50.0),
        strategy=strategy,
        config=EiresConfig(
            policy=policy,
            cache_policy=cache_policy,
            cache_capacity=capacity,
            **({"batch_window": 50.0, "batch_max_keys": 4} if batching else {}),
        ),
        tracer=Tracer(sink),
    )
    result = eires.run(stream)
    assert result.match_signatures() == expected
    cache = eires.cache
    assert cache.used <= capacity
    # The cache's books: replay its admit / evict records.  A re-fetch of a
    # resident key replaces it — an insertion that displaces nothing.
    resident, replaced = set(), 0
    for record in sink.by_category("cache"):
        key = tuple(record["key"])
        if record["name"] == "admit":
            replaced += key in resident
            resident.add(key)
        elif record["name"] == "evict":
            resident.remove(key)
    assert resident == set(cache.keys())
    assert cache.stats.insertions - replaced - cache.stats.evictions == len(cache)
    stats = result.summary()
    dropped = sum(count for name, count in stats.items() if name.startswith("engine.dropped."))
    assert dropped == stats["engine.runs_created"]
    assert replay_trace(sink.records)["problems"] == []


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
    return [
        sum(len(runs) for runs in engine._runs.get(index, {}).values())
        for index in range(engine.automaton.n_states)
    ]


def _check_counts_after(engine, method, utility=None):
    original = getattr(engine, method)

    def checked(*args, **kwargs):
        result = original(*args, **kwargs)
        recount = _recount(engine)
        assert engine.state_counts == recount, method
        assert engine.active_runs == sum(recount), method
        if utility is not None:
            # Runs waiting for the utility index are live runs: the pending
            # set is bounded by the run table.
            live = {run.run_id for run in engine.iter_runs()}
            assert set(utility._unindexed) <= live, method
        return result

    setattr(engine, method, checked)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    policy=st.sampled_from(["greedy", "non_greedy"]),
    strategy=st.sampled_from(["BL1", "BL3", "LzEval", "Hybrid"]),
    run_budget=st.sampled_from([None, 3, 12]),
    shed_policy=st.sampled_from(["none", "runs"]),
)
@settings(max_examples=50, deadline=None)
def test_runs_per_state_counters_equal_a_recount(seed, policy, strategy, run_budget, shed_policy):
    """Every add / expire / consume / obligation-fail / shed / flush site keeps
    the O(1) per-state counters equal to a recount, after every event.

    The query's last transition is local-only, so its buckets expire and
    consume through the bucket loop's outcome replay (every bucket under BL1,
    the obligation-free ones otherwise); the sweep is checked on its own.
    """
    query, store = make_abc_scenario(set_members=frozenset({1, 2, 3}))
    # A short window makes runs expire mid-stream; under the `runs` policy
    # a run budget caps the population, and without one the tiny latency
    # bound keeps it shedding on most events.
    query.window = type(query.window).time(300.0)
    shedding = shed_policy != "none"
    config = EiresConfig(
        policy=policy,
        cache_capacity=100,
        shed_policy=shed_policy,
        run_budget=run_budget if shedding else None,
        latency_bound=0.5 if shedding and run_budget is None else None,
    )
    eires = EIRES(query, store, FixedLatency(50.0), strategy=strategy, config=config)
    engine = eires.engine
    for method in ("process_event", "_expire", "shed_lowest", "flush"):
        _check_counts_after(engine, method, eires.utility)
    eires.run(random_stream(120, seed=seed, id_domain=2, v_domain=6))
    assert engine.state_counts == [0] * engine.automaton.n_states and engine.active_runs == 0


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
# What ``b`` binds into — an inner state, a leaf final state, and a final
# state that keeps matching the longer alternative — as (pattern, final,
# transitions out).
_TARGETS = {
    "inner": ("SEQ(A a, B b, C c)", False, 1),
    "leaf": ("SEQ(A a, B b)", True, 0),
    "successors": ("SEQ(A a, B b) OR SEQ(A a, B b, C c)", True, 1),
}


def _bucket_engine(predicates, parents, window, policy, final, start, guard_cost, warm, loop):
    """An engine whose state-1 bucket holds ``parents``, about to see a ``B``.

    The ``a -> b`` transition carries ``predicates`` and leads to the
    ``final`` shape of :data:`_TARGETS`; ``loop`` False leaves the engine no
    bucket loop to call, which is the per-run path.  The strategy captures
    spans, picked up at ``start``.
    """
    pattern, is_final, successors = _TARGETS[final]
    automaton = compile_query(parse_query(f"{pattern} {_WINDOW[window]}", name="t"))
    assert automaton.window.kind == window
    target = automaton.states[2]
    assert (target.is_final, len(target.transitions)) == (is_final, successors)
    transition = automaton.states[1].transitions[0]
    transition.local_predicates = tuple(predicates)
    transition.guard = compile_guard(predicates, "b")
    transition.bucket_loop = compile_bucket_loop(predicates, "b", window)
    clock = VirtualClock(start)
    engine = Engine(automaton, clock, CostModel(per_guard_cost=guard_cost), policy=policy)
    if not loop:
        engine._bucket_transitions = {}
    spans = SpanTracker()
    spans.begin_event(start)
    strategy = RecordingStrategy(clock, spans)
    tally = strategy.guard_tally(transition)
    tally.evaluations, tally.passes = warm
    runs = []
    for payload, age in parents:
        # Age 5 sits exactly on the window's edge; older runs have expired.
        first = Event(_NOW_T - 10.0 * age, payload, seq=_NOW_SEQ - age)
        runs.append(Run.start(automaton.states[1], "a", first, created_at=start))
    if runs:
        engine._add_runs(runs, None, strategy)
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
            (match.signature(), match.detected_at, match.last_event_t, match.fetch_wait,
             match.span)
            for match in outcome
        ]
    return {
        "outcome": outcome,
        "now": engine.clock.now,
        "stats": engine.stats.as_dict(),
        "tallies": (tally.evaluations, tally.passes),
        "live": [name(run) for run in engine.iter_runs()],
        "counts": (engine.active_runs, list(engine.state_counts)),
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
    final=st.sampled_from(sorted(_TARGETS)),
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
    replay and through ``_step_runs``: bit-identical clock, counters, rate
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

            def looped(*args):
                result = generated(*args)
                if result is not None:
                    completed.append(result)
                return result

            transition.bucket_loop = looped
        outcome = _outcome(lambda: engine.process_event(event, strategy))
        observed.append(_bucket_observables(engine, strategy, tally, runs, outcome))
    assert observed[0] == observed[1]
    # The per-run path is for buckets whose prelude or guards raise, not a
    # crutch for a broken loop: the loop finished the bucket exactly when
    # neither its prelude nor a per-run check raised.
    if parents:
        finished = isinstance(outcome, list) and not _prelude_raises(predicates, event)
        assert bool(completed) == finished


def _prelude_raises(predicates, event):
    """Whether a bucket loop's prelude raises on the input ``event``: it reads
    every attribute of ``b`` that a predicate names, then decides each pure
    predicate over ``b`` alone — through the interpretive walk here."""
    operands = [
        operand
        for predicate in predicates
        for operand in (
            (predicate.left, predicate.right) if isinstance(predicate, Comparison)
            else (predicate.item, predicate.collection) if isinstance(predicate, Membership)
            else predicate.args
        )
    ]
    if any(isinstance(operand, Attr) and operand.binding == "b" and operand.attr not in event.attrs
           for operand in operands):
        return True
    try:
        for predicate in predicates:
            if predicate.pure and predicate.bindings() <= {"b"}:
                predicate.evaluate({"b": event}, None)
    except Exception:
        return True
    return False


# -- partitioned buckets: the prelude and the partition guarantee -------------------

# Markers: an event without the partition attribute (it files under None),
# and an event with a NaN of its own.
_NO_ID, _OWN_NAN = object(), object()
_SHARED_NAN = float("nan")
# Values that share a bucket (1, 1.0, True), one that looks alike ("1"), what
# a missing attribute files under (None), and NaNs: one every event shares —
# its bucket found by identity, its equality false — and each event's own.
_partition_value = st.sampled_from([1, 1.0, True, "1", None, _SHARED_NAN, _OWN_NAN, _NO_ID])


def _partitioned(id_):
    if id_ is _NO_ID:
        return {}
    return {"id": float("nan") if id_ is _OWN_NAN else id_}
_abc_operand = st.one_of(
    st.builds(Attr, st.sampled_from(["a", "b", "c"]), st.sampled_from(["x", "x", "missing"])),
    st.builds(Const, _payload),
)
# Input-only ones among them raise for some payloads (str against int, a
# membership test in a str, a missing attribute).
_abc_predicate = st.one_of(
    st.builds(
        Comparison, st.sampled_from(sorted(_COMPARATORS)), _abc_operand, _abc_operand, _cost
    ),
    st.builds(
        Membership,
        _abc_operand,
        st.builds(Const, st.sampled_from([(1, 2, "a"), "abc"])),
        st.booleans(),
        _cost,
    ),
    st.builds(
        FunctionPredicate,
        st.just(_opaque_ge),
        st.tuples(_abc_operand, _abc_operand),
        st.just("opaque_ge"),
        _cost,
    ),
)


def _step_observables(engine, strategy, outcomes):
    """Everything a stream of steps made observable, runs named by their events."""

    def name(run):
        bound = tuple(sorted((binding, event.seq) for binding, event in run.env.items()))
        return (run.state.index, bound, run.first_seq, run.last_seq, run.created_at,
                run.obligations)

    transitions = engine.automaton.transitions
    return {
        "outcomes": [
            [(match.signature(), match.detected_at, match.last_event_t, match.fetch_wait)
             for match in outcome] if isinstance(outcome, list) else outcome
            for outcome in outcomes
        ],
        "now": engine.clock.now,
        "stats": engine.stats.as_dict(),
        "tallies": [
            (tally.evaluations, tally.passes)
            for tally in map(strategy.guard_tally, transitions)
        ],
        "live": [name(run) for run in engine.iter_runs()],
        "counts": (engine.active_runs, list(engine.state_counts)),
        "callbacks": [(kind, name(run), at) for kind, run, at in strategy.log],
    }


@given(
    conditions=st.lists(_abc_predicate, max_size=4),
    events=st.lists(
        st.tuples(st.sampled_from("ABC"), _partition_value, _payload), min_size=1, max_size=24
    ),
    window=st.sampled_from(["count", "time"]),
    policy=st.sampled_from(["greedy", "non_greedy"]),
)
@settings(max_examples=300, deadline=None)
def test_partitioned_buckets_step_alike_with_and_without_the_loop(
    conditions, events, window, policy
):
    """A ``SAME[id]`` stream through ``process_event``, with bucket loops
    and without (every bucket stepped run by run): bit-identical matches or
    errors per event, clock, counters, rate tallies, live runs and the clock
    every run callback saw.

    The partition values mix the kinds whose equality the bucket guarantees
    and the ones it does not (None, NaN, a missing attribute); the extra
    conditions put input-only predicates that raise for some payloads in
    the loops' preludes.
    """
    stream = [
        Event(10.0 * seq, {"type": kind, "x": x, **_partitioned(id_)}, seq=seq)
        for seq, (kind, id_, x) in enumerate(events)
    ]
    observed = []
    for loop in (True, False):
        query = parse_query(f"SEQ(A a, B b, C c) WHERE SAME[id] {_WINDOW[window]}", name="t")
        query.conditions += tuple(conditions)
        automaton = compile_query(query)
        clock = VirtualClock(0.0)
        engine = Engine(automaton, clock, CostModel(per_guard_cost=0.05), policy=policy)
        if not loop:
            engine._bucket_transitions = {}
        strategy = RecordingStrategy(clock)
        outcomes = [_outcome(lambda: engine.process_event(event, strategy)) for event in stream]
        observed.append(_step_observables(engine, strategy, outcomes))
    assert observed[0] == observed[1]


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
        [], parents, window, "greedy", "inner", 0.0, 0.05, (0.0, 0.0), True
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


# -- generated remote predicates vs. the interpretive walk -------------------------

_key_payload = st.sampled_from([0, 1, 2, 1.0, "a", "b"])
_remote_value = st.one_of(
    _payload, st.sampled_from([(1, 2, "a"), frozenset({0, 1.5, "ab"}), "abc", ()])
)
_remote_ref = st.builds(
    RemoteRef,
    st.sampled_from(["s", "t"]),
    # Binding ``c`` is never bound; ``missing`` is on no event.
    st.builds(Attr, st.sampled_from(["a", "b", "c"]), st.sampled_from(["k", "k", "missing"])),
)
_remote_operand = st.one_of(_remote_ref, _remote_ref, _operand)
_remote_predicate = st.one_of(
    st.builds(
        Comparison, st.sampled_from(sorted(_COMPARATORS)), _remote_operand, _remote_operand, _cost
    ),
    st.builds(Membership, _remote_operand, _remote_operand, st.booleans(), _cost),
    st.builds(
        FunctionPredicate,
        st.just(_opaque_ge),
        st.tuples(_remote_operand, _remote_operand),
        st.just("opaque_ge"),
        _cost,
    ),
).filter(lambda predicate: predicate.is_remote)


class _SnapshotCache:
    """The one-probe path's cache: serves the snapshot, misses the rest."""

    def __init__(self, snapshot):
        self._snapshot = snapshot

    def get(self, key, now):
        if key not in self._snapshot:
            return None
        return SimpleNamespace(key=key, value=self._snapshot[key])


class _SnapshotStrategy(FetchStrategy):
    """``resolve_*`` over a fixed snapshot of remote values: no transport.  A
    key absent from the snapshot is a terminally failed fetch: a single key
    misses the cache (the one-probe path) and its blocking fetch delivers
    nothing; ``_collect`` (several keys, obligations) leaves it out without
    reporting it missing.  Either way nothing postpones."""

    def __init__(self, predicate, snapshot, failure_mode):
        super().__init__()
        self.ctx = SimpleNamespace(
            failure_mode=failure_mode,
            tracer=NULL_TRACER,
            cache=_SnapshotCache(snapshot),
            clock=VirtualClock(),
            # Nothing in flight: nothing to deliver.
            transport=SimpleNamespace(next_due=float("inf"), deliver_due=lambda now: []),
        )
        self._remote = {predicate: compile_remote(predicate)}
        self._snapshot = snapshot

    def _collect(self, keys):
        return {key: self._snapshot[key] for key in keys if key in self._snapshot}, []

    def _block_for(self, keys):
        return {}


@given(
    predicate=_remote_predicate,
    bound=st.fixed_dictionaries({"x": _payload, "y": _payload, "k": _key_payload}),
    current=st.fixed_dictionaries({"x": _payload, "y": _payload, "k": _key_payload}),
    snapshot=st.dictionaries(
        st.tuples(st.sampled_from(["s", "t"]), _key_payload), _remote_value, max_size=8
    ),
    failure_mode=st.sampled_from([FAIL_OPEN, FAIL_CLOSED, None]),
    obligation=st.booleans(),
)
@settings(max_examples=600, deadline=None)
def test_generated_remote_predicate_agrees_with_the_interpretive_walk(
    predicate, bound, current, snapshot, failure_mode, obligation
):
    """``keys``/``decide`` against ``remote_keys``/``_evaluate_with``, through
    the strategy's own resolve methods: same verdict, same exception type and
    text — for remote references on either side, negation, keys whose fetch
    failed under every failure mode, missing attributes, unbound bindings and
    operand type errors.  The interpretive walk runs only when it would
    itself raise (``RemoteDataUnavailable`` under a failure mode included).

    An obligation exists only for an environment its predicate's first
    resolution read the keys from, so where reading them raises, the
    obligation case is that first resolution."""
    env = {"a": Event(1.0, bound, seq=0), "b": Event(2.0, current, seq=1)}
    keys = _outcome(lambda: [*predicate.remote_keys(env)])
    obligation = obligation and not isinstance(keys, tuple)

    def reference():
        keys = predicate.remote_keys(env)
        values = {key: snapshot[key] for key in keys if key in snapshot}
        return _evaluate_with(predicate, env, values, failure_mode)

    def strict(key):
        if key not in snapshot:
            raise RemoteDataUnavailable(key)
        return snapshot[key]

    walk_raises = isinstance(_outcome(lambda: predicate.evaluate(env, strict)), tuple)
    expected = _outcome(reference)

    strategy = _SnapshotStrategy(predicate, snapshot, failure_mode)
    walked = []

    def walking(method):
        return lambda *args: walked.append(method.__name__) or method(*args)

    with patch.object(Predicate, "remote_keys", walking(Predicate.remote_keys)), patch.object(
        obligations_module, "_evaluate_with", walking(_evaluate_with)
    ):
        if obligation:
            resolved = _outcome(
                lambda: strategy.resolve_obligation_predicate(predicate, env, blocking=True)
            )
        else:
            resolved = _outcome(lambda: strategy.resolve_predicate(None, predicate, None, env))
    assert resolved == expected
    assert bool(walked) == walk_raises, walked


# -- expiry sweep: anchor index vs. testing every live run ---------------------------


def _exhaustive_sweep(engine, event):
    """What a sweep at ``event`` must do, by ``Window.admits`` over every
    live run: the survivors bucket by bucket and the expired in table order."""
    admits = engine.automaton.window.admits
    survivors, expired = {}, []
    for state_index, buckets in engine._runs.items():
        for partition, runs in buckets.items():
            kept = [run for run in runs if admits(run.first_t, run.first_seq, event.t, event.seq)]
            expired += [run for run in runs if run not in kept]
            if kept:
                survivors[state_index, partition] = kept
    return survivors, expired


_sweep_event = st.tuples(
    st.just("event"),
    st.sampled_from("AABC"),
    st.integers(min_value=1, max_value=3),  # partition
    st.sampled_from([0.0, 5.0, 10.0, 25.0, 60.0]),  # gap: 50 us after a root is the edge
)
# Mostly events: families must live long enough to reach their window's end.
_sweep_op = st.one_of(
    *[_sweep_event] * 10,
    st.tuples(st.just("shed"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("flush")),
)


@given(
    ops=st.lists(_sweep_op, min_size=12, max_size=60),
    window=st.sampled_from(["count", "time"]),
    policy=st.sampled_from(["greedy", "non_greedy"]),
)
@settings(max_examples=200, deadline=None)
def test_indexed_sweep_agrees_with_the_exhaustive_filter(ops, window, policy):
    """Every sweep drops exactly the runs ``Window.admits`` rejects, in table
    order, and keeps the rest in bucket order — whatever happened to the
    families in between: extended, consumed (non-greedy), shed before their
    window closed, flushed, started again after a flush.  Sweeping before
    every event (as well as at the engine's own sweeps) puts runs on both
    sides of, and exactly on, the window's edge."""
    automaton = compile_query(
        parse_query(f"SEQ(A a, B b, C c) WHERE SAME[id] {_WINDOW[window]}", name="t")
    )
    clock = VirtualClock()
    engine = Engine(automaton, clock, policy=policy)
    strategy = RecordingStrategy(clock)
    sweep = engine._expire

    def checked(event, strategy):
        survivors, expired = _exhaustive_sweep(engine, event)
        del strategy.log[:]
        sweep(event, strategy)
        assert _buckets(engine) == survivors
        assert [(kind, run) for kind, run, _at in strategy.log] == [
            ("expired", run) for run in expired
        ]

    engine._expire = checked
    t, seq = 0.0, 0
    for op in ops:
        if op[0] == "event":
            _, kind, partition, gap = op
            t, seq = t + gap, seq + 1
            clock.advance_to(t)
            event = Event(t, {"type": kind, "id": partition}, seq=seq)
            checked(event, strategy)
            engine.process_event(event, strategy)
        elif op[0] == "shed":
            engine.shed_lowest(op[1], lambda run: float(run.run_id % 3), strategy)
        else:
            engine.flush(strategy)
            assert not engine._anchors
        recount = _recount(engine)
        assert engine.state_counts == recount
        assert engine.active_runs == sum(recount)
    # One anchor per family started inside the window, at most.
    assert sum(len(anchors) for anchors in engine._anchors.values()) <= seq


def _buckets(engine):
    return {
        (state_index, partition): runs
        for state_index, buckets in engine._runs.items()
        for partition, runs in buckets.items()
    }


# -- transport: deliver_due behind its next_due bound vs. always scanning ------------

_transport_op = st.one_of(
    st.tuples(st.just("async"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("blocking"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("deliver")),
    st.tuples(st.just("deliver")),
    st.tuples(st.just("flush")),
)


def _faulty_transport(seed, batching):
    store = RemoteStore()
    for source in ("s", "t"):
        store.register_source(source, lambda key: key)
    return Transport(
        store,
        UniformLatency(10.0, 100.0),
        make_rng(seed),
        fault_model=make_fault_model("drop:0.2,error:0.2"),
        fault_rng=make_rng(seed + 1),
        retry_policy=RetryPolicy(max_attempts=3, attempt_timeout=150.0),
        batch_policy=BatchPolicy(window=40.0, max_keys=3) if batching else None,
    )


def _ticket_view(ticket):
    return (ticket.key, ticket.issued_at, ticket.arrives_at, ticket.ok, ticket.error,
            ticket.attempt, ticket.queued)


@given(
    ops=st.lists(
        st.tuples(_transport_op, st.sampled_from([0.0, 1.0, 7.0, 30.0, 90.0, 400.0])), max_size=50
    ),
    seed=st.integers(min_value=0, max_value=1000),
    batching=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_deliver_due_behind_its_bound_agrees_with_always_scanning(ops, seed, batching):
    """Two transports on the same RNG streams see the same submit / deliver /
    flush sequence — retries, drops, error responses, breaker fast-fails,
    batch windows closing by deadline, by size and by a blocking need.  One
    has its bound erased before every ``deliver_due``, so it always scans:
    same tickets out of every call, in the same order, at every instant, and
    the same counters at the end.  The bound never overshoots the next thing
    due, and a blocking submit leaves its key in neither in-flight table."""
    bounded, scanning = _faulty_transport(seed, batching), _faulty_transport(seed, batching)
    now = 0.0
    for (op, *args), gap in ops:
        now += gap
        if op == "async":
            key = ("st"[args[0] % 2], args[0])
            request = FetchRequest(key, at=now)
            assert _ticket_view(bounded.submit(request)) == _ticket_view(scanning.submit(request))
        elif op == "blocking":
            key = ("st"[args[0] % 2], args[0])
            request = FetchRequest(key, at=now, mode=MODE_BLOCKING)
            tickets = bounded.submit(request), scanning.submit(request)
            assert _ticket_view(tickets[0]) == _ticket_view(tickets[1])
            assert key not in bounded._in_flight and key not in scanning._in_flight
        elif op == "flush":
            assert bounded.flush_batches(now) == scanning.flush_batches(now)
        else:
            scanning.next_due = float("-inf")
            assert [_ticket_view(ticket) for ticket in bounded.deliver_due(now)] == [
                _ticket_view(ticket) for ticket in scanning.deliver_due(now)
            ]
            due = [ticket.arrives_at for ticket in bounded._in_flight.values()]
            due += [queue.deadline for queue in bounded._queues.values()]
            assert all(bounded.next_due <= instant for instant in due)
        assert sorted(bounded._in_flight) == sorted(scanning._in_flight)
    assert bounded.stats.as_dict() == scanning.stats.as_dict()
