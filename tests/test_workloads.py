"""Tests for the workload generators."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nfa.compiler import compile_query
from repro.sim.rng import extend_hash, stable_hash
from repro.workloads.base import PseudoRandomSet
from repro.workloads.bushfire import BushfireConfig, bushfire_stream, bushfire_workload
from repro.workloads.cluster import ClusterConfig, cluster_stream, cluster_workload, _region_of
from repro.workloads.fraud import FraudConfig, fraud_stream, fraud_workload
from repro.workloads.synthetic import (
    Q1_DEFAULTS,
    Q2_DEFAULTS,
    SyntheticConfig,
    q1_workload,
    q2_workload,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import draw_identity  # noqa: E402


#: Every type stable_hash digests, nested tuples included.
_PARTS = st.recursive(
    st.integers() | st.booleans() | st.text() | st.binary()
    | st.floats(allow_nan=False) | st.none(),
    lambda children: st.tuples(children) | st.tuples(children, children),
    max_leaves=6,
)


class TestStableHash:
    @given(st.lists(_PARTS, max_size=4), _PARTS)
    def test_extending_a_hash_by_one_part_hashes_the_longer_tuple(self, parts, part):
        assert extend_hash(stable_hash(*parts), part) == stable_hash(*parts, part)

    @pytest.mark.parametrize(
        ("parts", "expected"),
        [
            ((), 11400714819323198485),
            ((0,), 3085127966989183827),
            ((True,), 14155972569103024382),
            ((False,), 3085127966989183827),
            ((-1,), 1291212015638987711),
            ((2**70,), 3085127966989183827),
            (("abc",), 14671025534062930994),
            ((b"abc",), 14671025534062930994),
            ((1.5,), 6085522041686933758),
            ((None,), 17077283255222001211),
            (((1, "a", (None, b"x")),), 17756532383372109159),
            ((7, "rd1", 42), 5661165440923592866),
        ],
    )
    def test_values_are_unchanged(self, parts, expected):
        """Taken before the int fast path and the extension step existed."""
        assert stable_hash(*parts) == expected

    def test_an_undigestable_part_is_refused(self):
        with pytest.raises(TypeError, match="cannot digest list"):
            stable_hash(1, [2])
        with pytest.raises(TypeError, match="cannot digest dict"):
            extend_hash(stable_hash(1), {})


class TestInlineDraws:
    """Inline draws (``repro.sim.rng``) are ``random.Random``'s own, draw
    for draw; ``tools/draw_identity.py`` runs the same checks without pytest."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**64),
        st.integers(1, 2**70),
        st.lists(st.integers(), min_size=1, max_size=30).map(tuple),
        st.floats(1e-9, 1e9),
        st.floats(-1e9, 1e9),
        st.floats(-1e9, 1e9),
    )
    def test_inline_draws_are_the_librarys(self, seed, n, seq, lambd, a, b):
        assert draw_identity.mismatches(seed, n, seq, lambd, a, b) == []

    @pytest.mark.parametrize("name", sorted(draw_identity.STREAMS))
    def test_generated_stream_is_pinned(self, name):
        make, pinned = draw_identity.STREAMS[name]
        assert draw_identity.stream_digest(make()) == pinned, f"{name} draws differently"

    @pytest.mark.parametrize("make", [
        lambda: fraud_stream(FraudConfig(n_events=50, n_locations=0)),
        lambda: fraud_stream(FraudConfig(n_events=50, n_orgs=0)),
        lambda: fraud_stream(FraudConfig(n_events=50, users_per_org=0)),
        lambda: fraud_stream(FraudConfig(n_events=50, cards_per_user=0)),
        lambda: cluster_stream(ClusterConfig(n_tasks=5, n_machines=0)),
        lambda: bushfire_stream(BushfireConfig(n_events=5, n_cells=0)),
    ], ids=["fraud-locations", "fraud-orgs", "fraud-users", "fraud-cards",
            "cluster-machines", "bushfire-cells"])
    def test_an_empty_domain_is_refused(self, make):
        # The inline rejection loop would spin forever on an empty range;
        # randrange refuses it, so these generators keep the library call.
        with pytest.raises(ValueError):
            make()


class TestPseudoRandomSet:
    @given(st.integers(), _PARTS, st.floats(0.0, 1.0), _PARTS)
    def test_membership_hashes_seed_key_and_item(self, seed, key, density, item):
        space = PseudoRandomSet._SPACE
        expected = stable_hash(seed, key, item) % space < density * space
        assert (item in PseudoRandomSet(seed, key, density)) is expected

    def test_density_respected(self):
        members = PseudoRandomSet(seed=1, key=5, density=0.25)
        hits = sum(1 for item in range(10_000) if item in members)
        assert 0.22 < hits / 10_000 < 0.28

    def test_deterministic(self):
        a = PseudoRandomSet(1, 5, 0.5)
        b = PseudoRandomSet(1, 5, 0.5)
        assert [i in a for i in range(100)] == [i in b for i in range(100)]
        assert a == b

    def test_different_keys_differ(self):
        a = PseudoRandomSet(1, 5, 0.5)
        b = PseudoRandomSet(1, 6, 0.5)
        assert [i in a for i in range(100)] != [i in b for i in range(100)]

    def test_extreme_densities(self):
        assert all(i in PseudoRandomSet(1, 1, 1.0) for i in range(50))
        assert not any(i in PseudoRandomSet(1, 1, 0.0) for i in range(50))

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            PseudoRandomSet(1, 1, 1.5)


class TestSyntheticWorkload:
    def test_stream_shape(self):
        config = SyntheticConfig(n_events=500, seed=7)
        workload = q1_workload(config)
        assert len(workload.stream) == 500
        for event in workload.stream:
            assert event["type"] in "ABCD"
            assert 1 <= event["id"] <= config.id_domain
            assert 1 <= event["v1"] <= config.key_domain

    def test_queries_compile(self):
        for workload in (q1_workload(SyntheticConfig(n_events=0)),
                         q2_workload(SyntheticConfig(n_events=0))):
            automaton = compile_query(workload.query)
            assert automaton.sites, workload.name

    def test_q1_has_two_remote_states(self):
        automaton = compile_query(q1_workload(SyntheticConfig(n_events=0)).query)
        states_needing_remote = {site.transition.source.index for site in automaton.sites}
        assert len(states_needing_remote) == 2

    def test_q2_remote_per_branch(self):
        automaton = compile_query(q2_workload(SyntheticConfig(n_events=0)).query)
        assert len(automaton.final_states) == 2
        assert len(automaton.sites) == 2

    def test_default_configs_differ_per_query(self):
        assert Q1_DEFAULTS.id_domain != Q2_DEFAULTS.id_domain or (
            Q1_DEFAULTS.window_events != Q2_DEFAULTS.window_events
        )

    def test_cache_capacity_note_is_ten_percent_of_keyspace(self):
        workload = q1_workload(SyntheticConfig(n_events=0, key_domain=100_000))
        assert workload.notes["cache_capacity"] == 10_000

    def test_deterministic_stream(self):
        first = q1_workload(SyntheticConfig(n_events=100, seed=5)).stream
        second = q1_workload(SyntheticConfig(n_events=100, seed=5)).stream
        assert [e.attrs for e in first] == [e.attrs for e in second]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_events=-1)
        with pytest.raises(ValueError):
            SyntheticConfig(remote_density=1.5)


class TestFraudWorkload:
    def test_hierarchy_present(self):
        workload = fraud_workload(FraudConfig(n_events=10))
        org = workload.store.lookup(("preauth", ("org", 0)))
        assert org.children  # users under the org
        assert org.children[0].children  # cards under the users
        assert org.total_size() > 0

    def test_event_mix(self):
        workload = fraud_workload(FraudConfig(n_events=2000))
        types = {event["type"] for event in workload.stream}
        assert types == {"T", "D", "L"}

    def test_query_uses_three_sources(self):
        workload = fraud_workload(FraudConfig(n_events=0))
        assert workload.query.remote_sources() == {"locations", "limits", "preauth"}


class TestBushfireWorkload:
    def test_hot_cells_produce_high_radiation(self):
        config = BushfireConfig(n_events=2000)
        workload = bushfire_workload(config)
        hot_cells = int(config.n_cells * config.hot_cell_fraction)
        hot = [e["rad"] for e in workload.stream if e["cell"] < hot_cells]
        cold = [e["rad"] for e in workload.stream if e["cell"] >= hot_cells]
        assert sum(hot) / len(hot) > sum(cold) / len(cold)

    def test_query_has_costly_predicates(self):
        workload = bushfire_workload(BushfireConfig(n_events=0))
        automaton = compile_query(workload.query)
        costs = [
            predicate.eval_cost
            for transition in automaton.transitions
            for predicate in transition.local_predicates
        ]
        assert max(costs) >= BushfireConfig().overlap_cost_us

    def test_ground_sensor_sources(self):
        workload = bushfire_workload(BushfireConfig(n_events=0))
        assert workload.query.remote_sources() == {"temp", "humidity"}


class TestClusterWorkload:
    def test_lifecycle_order_per_task(self):
        workload = cluster_workload(ClusterConfig(n_tasks=50))
        per_task: dict[int, list[str]] = {}
        for event in workload.stream:
            per_task.setdefault(event["task"], []).append(event["type"])
        for task, types in per_task.items():
            assert types[0] == "S", f"task {task} does not start with submit"

    def test_problematic_tasks_cross_regions(self):
        config = ClusterConfig(n_tasks=80)
        workload = cluster_workload(config)
        failing_tasks = {e["task"] for e in workload.stream if e["type"] == "F"}
        assert failing_tasks  # some candidates exist
        # At least one failing task visits machines in >= 2 regions.
        regions_by_task: dict[int, set[int]] = {}
        for event in workload.stream:
            if event["type"] == "C":
                regions_by_task.setdefault(event["task"], set()).add(
                    _region_of(event["machine"], config)
                )
        assert any(len(regions_by_task.get(task, set())) >= 3 for task in failing_tasks)

    def test_region_source_consistent_with_generator(self):
        config = ClusterConfig(n_tasks=1)
        workload = cluster_workload(config)
        for machine in range(20):
            assert workload.store.lookup(("region", machine)).value == _region_of(machine, config)
