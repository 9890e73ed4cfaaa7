"""Unit tests for the utility model, rate estimation, and noise (§4)."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import ALL_STRATEGIES, run_strategy
from repro.core.config import EiresConfig
from repro.nfa.compiler import compile_query
from repro.obs.trace import MemorySink, Tracer
from repro.nfa.run import Run
from repro.query.parser import parse_query
from repro.remote.monitor import LATENCY_PRIOR_US, LatencyMonitor
from repro.remote.store import RemoteStore
from repro.utility.model import UtilityModel, required_keys
from repro.utility.noise import EPOCH_LENGTH_US, NoiseModel
from repro.utility.rates import RateEstimator
from repro.events.event import Event
from repro.workloads.synthetic import SyntheticConfig, q1_query, q1_workload, q2_query

from tests.helpers import guard_heavy_workload


def build_automaton():
    return compile_query(
        parse_query("SEQ(A a, B b, C c) WHERE c.v IN REMOTE<r>[a.v] WITHIN 100", name="t")
    )


def run_at(automaton, state_index, attrs):
    state = automaton.states[state_index]
    env = {}
    event = None
    for depth, binding in enumerate(state.path_bindings):
        event = Event(float(depth), dict(attrs, type="X"), seq=depth)
        env[binding] = event
    return Run(
        state=state,
        env=env,
        first_t=0.0,
        first_seq=0,
        last_seq=len(env) - 1,
        obligations=(),
    )


class TestRequiredKeys:
    def test_key_derivable_from_bound_event(self):
        automaton = build_automaton()
        run = run_at(automaton, 2, {"v": 7})  # at state (a, b): next needs r[a.v]
        assert required_keys(run) == (("r", 7),)

    def test_key_not_yet_bound(self):
        automaton = build_automaton()
        run = run_at(automaton, 1, {"v": 7})  # at state (a): site is 1 hop away
        assert required_keys(run) == ()

    def test_include_future_states_walks_deeper(self):
        automaton = build_automaton()
        run = run_at(automaton, 1, {"v": 7})
        assert required_keys(run, include_future_states=True) == (("r", 7),)

    def test_site_keyed_by_input_event_is_excluded(self):
        automaton = compile_query(
            parse_query("SEQ(A a, B b) WHERE a.v IN REMOTE<r>[b.v] WITHIN 10", name="t")
        )
        run = run_at(automaton, 1, {"v": 3})
        assert required_keys(run) == ()


class TestRunRegistration:
    """``on_runs_created`` derives a run's keys from a per-state site list
    built once; ``required_keys`` stays the reference it must agree with."""

    @pytest.mark.parametrize("query_fn", [q1_query, q2_query])
    def test_registered_keys_equal_the_reference_walk_at_every_state(self, query_fn):
        automaton = compile_query(query_fn(SyntheticConfig()))
        model = UtilityModel(automaton, RemoteStore(), LatencyMonitor())
        runs = [
            run_at(automaton, state.index, {"v1": 10 + state.index, "v2": 20 + state.index})
            for state in automaton.states[1:]
        ]
        model.on_runs_created(runs)  # one batch across every state
        named = 0
        for run in runs:
            assert run.required_keys == required_keys(run, include_future_states=True)
            named += len(run.required_keys)
        assert named  # same keys, same order — and not vacuously

    def test_batches_count_as_the_per_run_counters_and_loops_did(self):
        """Alg. 2's counters after batched registration, the #P_j EWMA and
        six decays equal the per-run bumps and in-place loops they replaced,
        written out below: same floats, same key order — and decays past the
        0.05 floor once registration stops."""
        automaton = compile_query(q1_query(SyntheticConfig()))
        model = UtilityModel(automaton, RemoteStore(), LatencyMonitor())
        tran_key, tran_class, smoothed = {}, {}, [0.0] * automaton.n_states
        dropped = 0
        states = automaton.states[1:]
        for step in range(1, 400):  # decays at 64, 128, ..., 384
            batch = [
                run_at(automaton, states[(step + i) % len(states)].index,
                       {"v1": (step * i) % 11, "v2": (step + i) % 3})
                for i in range(step % 5 if step < 200 else 0)
            ]
            model.on_runs_created(batch)
            for run in batch:
                index = run.state.index
                keys = required_keys(run, include_future_states=True)
                tran_class[index] = tran_class.get(index, 0.0) + 1.0
                if not keys:
                    continue
                per_class = tran_key.setdefault(index, {})
                for key in keys:
                    per_class[key] = per_class.get(key, 0.0) + 1.0
            counts = [(step * index) % 7 for index in range(automaton.n_states)]
            model.tick(float(step), counts)
            if step == 1:
                smoothed[:] = counts
            for index, current in enumerate(counts):
                smoothed[index] = 0.9 * smoothed[index] + 0.1 * current
            if step % 64 == 0:
                for per_class in tran_key.values():
                    stale = []
                    for key in per_class:
                        per_class[key] *= 0.5
                        if per_class[key] < 0.05:
                            stale.append(key)
                    for key in stale:
                        del per_class[key]
                    dropped += len(stale)
                for index in tran_class:
                    tran_class[index] *= 0.5
        assert [(i, list(c.items())) for i, c in model._tran_key.items()] == [
            (i, list(c.items())) for i, c in tran_key.items()
        ]
        assert list(model._tran_class.items()) == list(tran_class.items())
        assert dropped and any(tran_key.values())
        assert [model.class_count(i) for i in range(automaton.n_states)] == smoothed

    def test_missing_key_attribute_keeps_the_reference_wording(self):
        automaton = build_automaton()
        model = UtilityModel(automaton, RemoteStore(), LatencyMonitor())
        with pytest.raises(KeyError, match=r"event has no attribute 'v'; has \['type', 'w'\]"):
            model.on_runs_created((run_at(automaton, 1, {"w": 7}),))


class TestUtilityModel:
    def _model(self, automaton=None, noise=None):
        automaton = automaton or build_automaton()
        store = RemoteStore()
        monitor = LatencyMonitor()
        return UtilityModel(automaton, store, monitor, noise=noise), store

    def test_urgent_utility_counts_live_runs(self):
        model, _ = self._model()
        automaton = build_automaton()
        run = run_at(automaton, 2, {"v": 7})
        model.on_runs_created((run,))
        assert model.urgent_utility(("r", 7)) == LATENCY_PRIOR_US  # 1 run x prior latency
        model.on_runs_dropped((run,))
        assert model.urgent_utility(("r", 7)) == 0.0

    def test_urgent_utility_propagates_to_containers(self):
        automaton = build_automaton()
        store = RemoteStore()
        parent = store.put("r", "all", "container", size=0)
        store.put("r", 7, "part", size=1, parent=parent)
        model = UtilityModel(automaton, store, LatencyMonitor())
        run = run_at(automaton, 2, {"v": 7})
        model.on_runs_created((run,))
        assert model.urgent_utility(("r", "all")) > 0.0

    def test_future_utility_builds_from_class_statistics(self):
        model, _ = self._model()
        automaton = build_automaton()
        for i in range(10):
            model.on_runs_created((run_at(automaton, 2, {"v": 7}),))
            model.tick(float(i), [0, 0, i + 1, 0])
        assert model.future_utility(("r", 7)) > 0.0
        # A key never required by any run has no future utility.
        assert model.future_utility(("r", 999)) == 0.0

    def test_combined_value_weighting(self):
        model, _ = self._model()
        automaton = build_automaton()
        run = run_at(automaton, 2, {"v": 7})
        model.on_runs_created((run,))
        urgent_only = model.value(("r", 7), omega=1.0)
        future_only = model.value(("r", 7), omega=0.0)
        mixed = model.value(("r", 7), omega=0.5)
        assert urgent_only == pytest.approx(model.urgent_utility(("r", 7)))
        assert mixed == pytest.approx(0.5 * urgent_only + 0.5 * future_only)

    def test_omega_out_of_range(self):
        model, _ = self._model()
        with pytest.raises(ValueError):
            model.value(("r", 7), omega=1.5)

    def test_noise_zeroes_future_utility(self):
        noisy = NoiseModel(1.0)
        model, _ = self._model(noise=noisy)
        automaton = build_automaton()
        model.on_runs_created((run_at(automaton, 2, {"v": 7}),))
        model.tick(0.0, [0, 0, 5, 0])
        assert model.future_utility(("r", 7)) == 0.0

    def test_decay_forgets_old_counters(self):
        model, _ = self._model()
        automaton = build_automaton()
        model.on_runs_created((run_at(automaton, 2, {"v": 7}),))
        model.tick(0.0, [0, 0, 5, 0])
        before = model.future_utility(("r", 7))
        assert before > 0.0
        for i in range(1, 4096):
            model.tick(float(i), [0, 0, 5, 0])  # class still busy, key never needed
        after = model.future_utility(("r", 7))
        assert after < before


# The Eq. 5 chain ``terms`` replaced, as functions over a model's state (its
# index read from an _EagerIndex): ``UtilityModel.terms`` / ``value`` must
# equal it with ==.
def _chain_urgent_utility(self, key):
    runs = self._uu_runs.get(key)
    if not runs:
        return 0.0
    return len(runs) * self._monitor.estimate(key)


def _chain_residual_life_events(self, key):
    runs = self._uu_runs.get(key)
    if not runs:
        return 0.0
    window = self._automaton.window
    window_events = window.value if window.kind == "count" else self._horizon
    total = 0.0
    for first_t, first_seq in runs.values():
        if window.kind == "count":
            elapsed = (self._events_seen - first_seq) / window.value
        else:
            elapsed = (self._now - first_t) / window.value
        total += max(0.0, 1.0 - elapsed) * window_events
    return total


def _chain_future_utility(self, key):
    if self._noise.active and self._noise.flip(("fu", key), self._now):
        return 0.0
    stochastic = 0.0
    for class_index, per_class in self._tran_key.items():
        weight = per_class.get(key)
        if not weight:
            continue
        class_total = self._tran_class.get(class_index, 0.0)
        if class_total <= 0:
            continue
        probability = min(weight / class_total, 1.0)
        stochastic += self._class_counts[class_index] * probability
    residual = _chain_residual_life_events(self, key)
    if not stochastic and not residual:
        return 0.0
    return (self._horizon * stochastic + residual) * self._monitor.estimate(key)


def _chain_value(self, key, omega):
    urgent, future = _chain_urgent_utility(self, key), _chain_future_utility(self, key)
    return omega * urgent + (1.0 - omega) * future


_lifecycle_op = st.one_of(
    st.tuples(
        st.just("create"),
        st.integers(min_value=1, max_value=2),  # state: (a) or (a, b)
        st.integers(min_value=0, max_value=4),  # a.v, the remote key
        st.integers(min_value=0, max_value=200),  # window anchor: seq and t
        st.integers(min_value=1, max_value=3),  # runs in the batch
    ),
    st.tuples(
        st.just("drop"),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=1, max_value=3),  # runs in the batch
    ),
    st.tuples(
        st.just("tick"),
        st.sampled_from([1, 1, 3, 70]),  # 70 crosses the 64-event decay
        st.integers(min_value=0, max_value=6),  # live runs per class
    ),
    st.tuples(
        st.just("record"),
        st.integers(min_value=0, max_value=4),
        st.sampled_from([0.0, 1.0, 12.5, 300.0]),
    ),
    st.tuples(st.just("read")),
)


class _EagerIndex:
    """The parent commit's index writes, verbatim: every run walks its keys'
    ancestors into ``_uu_runs`` when created and back out when dropped."""

    def __init__(self, store):
        self._store = store
        self._uu_runs = {}

    def on_run_created(self, run):
        anchor = (run.first_t, run.first_seq)
        for key in run.required_keys:
            for ancestor_key in self._store.lookup(key).ancestor_keys():
                self._uu_runs.setdefault(ancestor_key, {})[run.run_id] = anchor

    def on_run_dropped(self, run):
        for key in run.required_keys:
            for ancestor_key in self._store.lookup(key).ancestor_keys():
                runs = self._uu_runs.get(ancestor_key)
                if runs is None:
                    continue
                runs.pop(run.run_id, None)
                if not runs:
                    del self._uu_runs[ancestor_key]


class _CountingStore(RemoteStore):
    def __init__(self):
        super().__init__()
        self.lookups = 0

    def lookup(self, key):
        self.lookups += 1
        return super().lookup(key)


class TestTermsContract:
    """``terms`` is the one evaluation of Eq. 5's inputs: never below the
    floor the cache's early stop rests on, and bit-equal to the chain it
    replaced over the index eager writes would have built — whenever it is
    read, while an unread model never touches the store."""

    @given(
        window=st.sampled_from(["WITHIN 100 EVENTS", "WITHIN 500 us"]),
        noise_ratio=st.sampled_from([0.0, 0.3]),
        hierarchical=st.booleans(),
        reads=st.sampled_from(["at read ops", "never", "after every op"]),
        ops=st.lists(_lifecycle_op, max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_terms_nonnegative_and_value_equals_the_chain(
        self, window, noise_ratio, hierarchical, reads, ops
    ):
        automaton = compile_query(
            parse_query(f"SEQ(A a, B b, C c) WHERE c.v IN REMOTE<r>[a.v] {window}", name="t")
        )
        store, reference_store = _CountingStore(), RemoteStore()
        keys = [("r", v) for v in range(5)] + [("r", "never named")]
        if hierarchical:
            for filled in (store, reference_store):
                container = filled.put("r", "all", "container", size=0)
                for v in range(5):
                    filled.put("r", v, "part", size=1, parent=container)
            keys.append(("r", "all"))
        monitor = LatencyMonitor()
        model = UtilityModel(automaton, store, monitor, noise=NoiseModel(noise_ratio))
        eager = _EagerIndex(reference_store)

        def read():
            for key in keys:
                urgent, future = model.terms(key)
                # The model's own state, with the eager index in place of its own.
                reference = SimpleNamespace(**{**vars(model), "_uu_runs": eager._uu_runs})
                assert urgent >= 0.0 and future >= 0.0
                assert (urgent, future) == (
                    _chain_urgent_utility(reference, key),
                    _chain_future_utility(reference, key),
                )
                for omega in (0.0, 0.3, 1.0):
                    assert model.value(key, omega) == _chain_value(reference, key, omega)
            # Same runs under every key, in the same order.
            assert {key: list(runs.items()) for key, runs in model._uu_runs.items()} == {
                key: list(runs.items()) for key, runs in eager._uu_runs.items()
            }
            assert not model._unindexed

        live = []
        now = 0.0
        for op in ops:
            if op[0] == "create":
                _, state_index, v, anchor, count = op
                batch = []
                for offset in range(count):
                    run = run_at(automaton, state_index, {"v": (v + offset) % 5})
                    run.first_seq, run.first_t = anchor, float(anchor)
                    batch.append(run)
                model.on_runs_created(batch)
                for run in batch:
                    eager.on_run_created(run)
                live += batch
            elif op[0] == "drop":
                batch = [live.pop(op[1] % len(live)) for _ in range(min(op[2], len(live)))]
                model.on_runs_dropped(batch)
                for run in batch:
                    eager.on_run_dropped(run)
            elif op[0] == "tick":
                for _ in range(op[1]):
                    now += 7.0
                    model.tick(now, [0, op[2], op[2] // 2, 0])
            elif op[0] == "record":
                monitor.record(("r", op[1]), op[2])
            elif reads == "at read ops":
                read()
            if reads == "after every op":
                read()
        if reads == "never":
            assert store.lookups == 0
        read()


_DRIVERS = ("on_runs_created", "on_runs_dropped", "tick")


class TestDrivenOnlyWithARemoteSite:
    """Nothing reads a utility or an arrival rate without a remote site, so
    nothing drives the model or observes the rates."""

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("policy", ["greedy", "non_greedy"])
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_a_local_only_query_never_calls_the_model(self, monkeypatch, strategy, policy, traced):
        def forbidden(owner, name):
            def call(*args, **kwargs):
                raise AssertionError(f"{owner.__name__}.{name} called for a local-only query")
            return call

        for name in _DRIVERS:
            monkeypatch.setattr(UtilityModel, name, forbidden(UtilityModel, name))
        monkeypatch.setattr(RateEstimator, "observe_event",
                            forbidden(RateEstimator, "observe_event"))
        workload = guard_heavy_workload(
            SyntheticConfig(n_events=300, id_domain=3, window_events=100)
        )
        tracer = Tracer(MemorySink()) if traced else None
        result = run_strategy(workload, strategy, EiresConfig(policy=policy), tracer=tracer)
        assert result.match_count > 0
        assert result.summary()["engine.runs_created"] > 0

    def test_a_query_with_a_remote_site_drives_it(self, monkeypatch):
        calls = dict.fromkeys(_DRIVERS, 0)
        for name in _DRIVERS:
            original = getattr(UtilityModel, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(UtilityModel, name, counted)
        observed = []
        observe = RateEstimator.observe_event

        def counted_observe(self, event_type, timestamp):
            observed.append(event_type)
            observe(self, event_type, timestamp)

        monkeypatch.setattr(RateEstimator, "observe_event", counted_observe)
        workload = q1_workload(SyntheticConfig(n_events=300, id_domain=5, window_events=120))
        run_strategy(workload, "Hybrid", EiresConfig())
        assert all(calls.values()), calls
        assert calls["tick"] == len(observed) == 300


class TestRateEstimator:
    def test_event_rate_from_gaps(self):
        rates = RateEstimator()
        for i in range(200):
            rates.observe_event("A", i * 10.0)
        assert rates.event_rate() == pytest.approx(0.1, rel=0.05)

    def test_type_rate_splits_by_share(self):
        rates = RateEstimator()
        for i in range(300):
            rates.observe_event("A" if i % 3 else "B", i * 10.0)
        assert rates.type_rate("A") > rates.type_rate("B")

    def test_extension_rate_scaled_by_pass_fraction(self):
        rates = RateEstimator()
        for i in range(100):
            rates.observe_event("A", i * 10.0)
        tally = rates.guard_tally(5)
        for _ in range(100):
            tally.evaluations += 1.0
        for _ in range(20):
            tally.passes += 1.0
        assert rates.extension_rate(5, "A") == pytest.approx(0.2 * rates.type_rate("A"), rel=0.01)

    def test_unseen_transition_falls_back_to_type_rate(self):
        rates = RateEstimator()
        for i in range(10):
            rates.observe_event("A", i * 10.0)
        assert rates.extension_rate(99, "A") == pytest.approx(rates.type_rate("A"))

    def test_rates_never_zero(self):
        rates = RateEstimator()
        assert rates.event_rate() > 0
        assert rates.type_rate("Z") > 0
        assert rates.expected_gap(1, "Z") < float("inf")


class TestNoiseModel:
    def test_inactive_at_zero_ratio(self):
        noise = NoiseModel(0.0)
        assert not noise.active
        assert not noise.flip(("x",), now=0.0)

    def test_always_corrupts_at_ratio_one(self):
        noise = NoiseModel(1.0)
        assert all(noise.flip(("t", i), now=0.0) for i in range(20))

    def test_ratio_roughly_respected(self):
        noise = NoiseModel(0.3)
        hits = sum(noise.flip(("t", i), now=0.0) for i in range(4000))
        assert 0.25 < hits / 4000 < 0.35

    def test_decisions_stable_within_epoch(self):
        noise = NoiseModel(0.5)
        first = noise.flip(("k",), now=0.1 * EPOCH_LENGTH_US)
        assert noise.flip(("k",), now=0.9 * EPOCH_LENGTH_US) == first

    def test_decisions_refresh_across_epochs(self):
        noise = NoiseModel(0.5)
        outcomes = {noise.flip(("k",), now=EPOCH_LENGTH_US * i) for i in range(64)}
        assert outcomes == {True, False}

    def test_decoy_key_same_source_different_key(self):
        noise = NoiseModel(0.5)
        decoy = noise.decoy_key(("src", 5))
        assert decoy[0] == "src"
        assert decoy != ("src", 5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NoiseModel(1.5)
