"""Unit tests for the evaluation-backend registry (``repro.backends``).

Covers the registry mechanics (registration, aliases, duplicates), the
declarative capability checks the builder relies on, and the public exports.
"""

from __future__ import annotations

import pytest

import repro
from repro.backends import (
    BackendCapabilities,
    BackendCapabilityError,
    EvalBackend,
    ReferenceBackend,
    backend_names,
    get_backend,
    list_backends,
    make_backend,
    register_backend,
    resolve_backend,
)
from repro.core.config import EiresConfig
from repro.core.framework import EIRES
from repro.workloads.synthetic import SyntheticConfig, q1_workload


@pytest.fixture
def scratch_registry(monkeypatch):
    """A throwaway copy of the registry state for mutation tests."""
    from repro.backends import base

    monkeypatch.setattr(base, "_BACKENDS", dict(base._BACKENDS))
    monkeypatch.setattr(base, "_ALIASES", dict(base._ALIASES))
    return base


class TestRegistry:
    def test_unknown_backend_lists_registered_names(self):
        with pytest.raises(ValueError, match="unknown backend 'nope'"):
            resolve_backend("nope")
        with pytest.raises(ValueError, match="reference"):
            get_backend("nope")

    def test_alias_resolves_to_canonical_name(self):
        assert resolve_backend("automaton") == "reference"
        assert get_backend("automaton") is ReferenceBackend

    def test_known_backends_are_registered(self):
        assert backend_names() == ["reference", "tree"]

    def test_duplicate_registration_refused(self, scratch_registry):
        with pytest.raises(ValueError, match="already registered"):

            @register_backend(
                "reference",
                capabilities=BackendCapabilities(
                    policies=("greedy",), shedding=False,
                    obligations=False, exact_replay=False,
                ),
            )
            class Clone(ReferenceBackend):
                pass

    def test_duplicate_alias_refused(self, scratch_registry):
        with pytest.raises(ValueError, match="already registered"):

            @register_backend(
                "fresh-name",
                aliases=("automaton",),
                capabilities=BackendCapabilities(
                    policies=("greedy",), shedding=False,
                    obligations=False, exact_replay=False,
                ),
            )
            class Clone(ReferenceBackend):
                pass

    def test_non_backend_class_refused(self, scratch_registry):
        with pytest.raises(TypeError):
            register_backend(
                "not-a-backend",
                capabilities=BackendCapabilities(
                    policies=("greedy",), shedding=False,
                    obligations=False, exact_replay=False,
                ),
            )(object)

    def test_list_backends_rows(self):
        rows = {listing.name: listing for listing in list_backends()}
        assert "automaton" in rows["reference"].aliases
        assert rows["reference"].capabilities.exact_replay
        assert not rows["tree"].capabilities.shedding


class TestCapabilities:
    def test_refusal_collects_every_mismatch(self):
        tree = get_backend("tree")
        with pytest.raises(BackendCapabilityError) as excinfo:
            tree.require(policy="non_greedy", shedding=True, obligations=True)
        message = str(excinfo.value)
        assert "selection policy 'non_greedy'" in message
        assert "load shedding" in message
        assert "run obligations" in message

    def test_supported_configuration_passes(self):
        get_backend("tree").require(policy="greedy")
        get_backend("reference").require(
            policy="non_greedy", shedding=True, obligations=True
        )

    def test_builder_refuses_through_the_registry(self):
        workload = q1_workload(SyntheticConfig(n_events=10))
        with pytest.raises(BackendCapabilityError, match="does not support"):
            EIRES(
                workload.query,
                workload.store,
                workload.latency_model,
                config=EiresConfig(policy="non_greedy"),
                backend="tree",
            )

    def test_make_backend_builds_a_working_engine(self):
        from repro.nfa.compiler import compile_query
        from repro.sim.clock import VirtualClock

        workload = q1_workload(SyntheticConfig(n_events=10))
        engine = make_backend(
            "reference", compile_query(workload.query), VirtualClock()
        )
        assert isinstance(engine, EvalBackend)
        assert engine.active_runs == 0


class TestExports:
    def test_package_exports(self):
        assert repro.EvalBackend is EvalBackend
        assert callable(repro.list_backends)
        assert "EvalBackend" in repro.__all__
        assert "list_backends" in repro.__all__
