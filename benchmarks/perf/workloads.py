"""The four benchmark workloads, built from the public surface only.

Each workload stresses a different set of layers (see README.md, "How the
metrics interact"), so a change to one layer has one workload that
exercises it and one on which the prediction is "no change".  A workload is
fully determined by ``(name, seed, scale)``: the seed goes into
``SyntheticConfig.seed`` (stream and remote tables) and ``EiresConfig.seed``
(transport latency draws); the program under test sees only the generated
inputs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro import (
    EiresConfig,
    FleetBuilder,
    Query,
    RunResult,
    RuntimeBuilder,
    TenantSpec,
    UniformLatency,
    parse_query,
)
from repro.bench.harness import wall_time
from repro.workloads.base import Workload
from repro.workloads.synthetic import (
    SyntheticConfig,
    make_store,
    make_stream,
    q1_query,
    q2_query,
)

__all__ = ["SPECS", "Spec", "Case", "Replay", "prepare"]


def guard_query(config: SyntheticConfig) -> Query:
    """Local-only ``SEQ(A,B,C,D)`` with 15 range/order filters.

    The guard-dominated query of ``benchmarks/bench_backends.py``: no remote
    reference, several high-pass filters per transition so nothing
    short-circuits, order correlations at the final step.
    """
    text = f"""
    SEQ(A a, B b, C c, D d)
    WHERE SAME[id]
    AND a.v1 <= 92000 AND a.v2 <= 92000 AND a.v1 >= 4000 AND a.v2 >= 4000
    AND b.v1 <= 92000 AND b.v2 >= 8000 AND b.v1 >= 4000
    AND c.v1 <= 92000 AND c.v2 >= 8000 AND c.v1 >= 4000
    AND d.v1 <= 92000 AND d.v2 >= 8000
    AND a.v1 <= d.v1 AND b.v2 <= d.v2 AND c.v1 <= d.v1
    WITHIN {config.window_events} EVENTS
    """
    return parse_query(text, name="QG")


@dataclass(frozen=True)
class Spec:
    """Declaration of one workload: generator arguments and deployment.

    Why each was chosen is recorded in ``BENCHMARK.json`` and README.md.
    """

    name: str
    config: SyntheticConfig
    query_fn: Callable[[SyntheticConfig], Query]
    strategy: str
    # The output check replays the same inputs under this strategy and
    # requires equal match signatures ("when, never what", PAPER.md §5).
    check_strategy: str = "BL1"
    eires: dict[str, Any] = field(default_factory=dict)
    # 0 = one RuntimeBuilder runtime; N = a FleetBuilder fleet of N tenants,
    # each running a renamed copy of the query, on ``shards`` shards.
    tenants: int = 0
    shards: int = 1


SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="q1_hybrid",
            config=SyntheticConfig(n_events=7_000, id_domain=20, window_events=400),
            query_fn=q1_query,
            strategy="Hybrid",
            eires={"cache_capacity": 10_000},
        ),
        Spec(
            name="guard_heavy",
            config=SyntheticConfig(n_events=3_000, id_domain=6, window_events=400),
            query_fn=guard_query,
            strategy="BL1",
            check_strategy="Hybrid",
        ),
        Spec(
            name="cache_pressure",
            config=SyntheticConfig(n_events=18_000, id_domain=100, key_domain=2_000,
                                   window_events=400),
            query_fn=q2_query,
            strategy="Hybrid",
            # 200 = the paper's 10 % of the remote key range.
            eires={"cache_capacity": 200, "batch_window": 50.0, "batch_max_keys": 16},
        ),
        Spec(
            name="fleet_q1x4",
            config=SyntheticConfig(n_events=2_500, id_domain=20, window_events=400),
            query_fn=q1_query,
            strategy="Hybrid",
            eires={"cache_capacity": 10_000},
            tenants=4,
            shards=2,
        ),
    )
}


@dataclass
class Replay:
    """What one replay produced: per-session results plus the fleet view."""

    runs: list[RunResult]
    fleet: Any = None  # FleetResult on the fleet workload

    def signatures(self) -> list[set]:
        return [run.match_signatures() for run in self.runs]


class Case:
    """One workload's generated inputs, and how to deploy and replay them."""

    def __init__(self, spec: Spec, workload: Workload, config: EiresConfig,
                 timings: dict[str, float]) -> None:
        self.spec = spec
        self.workload = workload
        self.config = config
        #: wall seconds of the generation steps, by step name.
        self.timings = timings

    @property
    def events(self) -> int:
        return len(self.workload.stream)

    def _runtime(self, strategy: str):
        w = self.workload
        return (
            RuntimeBuilder(w.store, w.latency_model, config=self.config)
            .add_query(w.query, strategy=strategy)
            .build()
        )

    def build(self) -> Callable[[], Replay]:
        """Assemble a fresh deployment; the returned callable replays once.

        A runtime carries run state, so every replay needs its own build;
        building is set-up cost, replaying is what ``events_per_s`` times.
        """
        w = self.workload
        spec = self.spec
        if not spec.tenants:
            runtime = self._runtime(spec.strategy)
            return lambda: Replay(list(runtime.run(w.stream).values()))
        builder = FleetBuilder(w.store, w.latency_model, n_shards=spec.shards,
                               config=self.config)
        for index in range(spec.tenants):
            # Fleet query names must be unique: each tenant runs a renamed copy.
            query = copy.copy(w.query)
            query.name = f"{w.query.name}_t{index}"
            builder.add_tenant(TenantSpec(f"tenant{index}", query,
                                          strategy=spec.strategy))
        fleet = builder.build()

        def replay() -> Replay:
            result = fleet.dispatch(w.stream)
            runs = [
                run
                for tenant in fleet.tenants
                for run in result.tenant_result(tenant.name).values()
            ]
            return Replay(runs, fleet=result)

        return replay

    def expected_signatures(self) -> set:
        """Match identities from one isolated run under the check strategy."""
        (result,) = self._runtime(self.spec.check_strategy).run(
            self.workload.stream
        ).values()
        return result.match_signatures()


def prepare(spec: Spec, seed: int, scale: float = 1.0) -> Case:
    """Generate a workload's inputs from ``seed`` (timing each step)."""
    config = replace(
        spec.config, n_events=max(int(spec.config.n_events * scale), 1), seed=seed
    )
    stream, generate_s = wall_time(lambda: make_stream(config))
    store, store_s = wall_time(lambda: make_store(config))
    query, parse_s = wall_time(lambda: spec.query_fn(config))
    workload = Workload(
        name=spec.name,
        query=query,
        store=store,
        stream=stream,
        latency_model=UniformLatency(config.latency_low_us, config.latency_high_us),
    )
    return Case(
        spec,
        workload,
        EiresConfig(seed=seed, **spec.eires),
        {"generate": generate_s, "store": store_s, "parse": parse_s},
    )
