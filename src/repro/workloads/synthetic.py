"""The synthetic workload of §7.1: streams and the Q1/Q2 queries.

Events carry a ``type`` drawn uniformly from {A, B, C, D}, an ``id`` from
U(1, 100), and two numeric attributes ``v1``/``v2`` from U(1, 100000),
exactly as the paper describes.  Transmission latency defaults to
U(10 us, 100 us), and the recommended cache capacity is 10% of a remote
key's value range (10,000 items).

Q1 is the paper's pure 8-step sequence over {A..D} correlated by ``SAME[ID]``
with remote references at two distinct states; Q2 is the disjunction of
sequences with one remote reference per branch.  Two published predicate
details are adapted (recorded in DESIGN.md):

* equality joins on U(1, 100000) attributes (``a.v1 = REMOTE[d.v1]``,
  ``a.v2 = h.v2``) would produce essentially zero matches without the
  paper's unpublished data tables, so remote equality becomes set
  *membership* against :class:`~repro.workloads.base.PseudoRandomSet`
  elements with an explicit selectivity knob, and payload equality becomes
  an order comparison;
* the remote references are keyed by *earlier* bindings (as in the paper's
  own Q2: ``d.v1 = REMOTE[a.v1]``), which is the regime where prefetch
  timing has something to anticipate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

from repro.events.event import Event
from repro.events.stream import Stream
from repro.query.ast import Query
from repro.query.parser import parse_query
from repro.remote.store import RemoteStore
from repro.remote.transport import UniformLatency
from repro.sim.rng import make_rng
from repro.workloads.base import PseudoRandomSet, Workload

__all__ = [
    "SyntheticConfig",
    "Q1_DEFAULTS",
    "Q2_DEFAULTS",
    "make_stream",
    "make_store",
    "q1_workload",
    "q2_workload",
]

EVENT_TYPES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic scenario (paper values as defaults)."""

    n_events: int = 20_000
    mean_gap_us: float = 25.0
    id_domain: int = 100
    key_domain: int = 100_000
    # Selectivity of membership tests against remote sets; the positive form
    # ("IN") passes with this probability, "NOT IN" with its complement.
    remote_density: float = 0.35
    window_events: int = 400
    latency_low_us: float = 10.0
    latency_high_us: float = 100.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_events < 0:
            raise ValueError("n_events must be non-negative")
        if self.id_domain < 1 or self.key_domain < 1:
            raise ValueError("domains must be >= 1")
        if not 0.0 <= self.remote_density <= 1.0:
            raise ValueError("remote_density must be in [0, 1]")


def make_stream(config: SyntheticConfig) -> Stream:
    """The synthetic event stream (Poisson arrivals, uniform payloads).

    Each event draws ``expovariate``, ``choice`` and three ``randint``\\ s,
    inlined as :mod:`repro.sim.rng` describes (``randint`` and ``choice`` as
    its ``getrandbits`` rejection loop), so the stream is the one those calls
    would give.
    """
    rng = make_rng(config.seed)
    random = rng.random
    getrandbits = rng.getrandbits
    rate = 1.0 / config.mean_gap_us
    n_types = len(EVENT_TYPES)
    n_ids = config.id_domain
    n_keys = config.key_domain
    type_bits = n_types.bit_length()
    id_bits = n_ids.bit_length()
    key_bits = n_keys.bit_length()
    events = []
    append = events.append
    t = 0.0
    for _ in range(config.n_events):
        t += -log(1.0 - random()) / rate
        kind = getrandbits(type_bits)
        while kind >= n_types:
            kind = getrandbits(type_bits)
        event_id = getrandbits(id_bits)
        while event_id >= n_ids:
            event_id = getrandbits(id_bits)
        v1 = getrandbits(key_bits)
        while v1 >= n_keys:
            v1 = getrandbits(key_bits)
        v2 = getrandbits(key_bits)
        while v2 >= n_keys:
            v2 = getrandbits(key_bits)
        append(Event(t, {"type": EVENT_TYPES[kind], "id": event_id + 1,
                         "v1": v1 + 1, "v2": v2 + 1}))
    return Stream(events, validate=False)


def make_store(config: SyntheticConfig) -> RemoteStore:
    """Remote tables rd1/rd2 (Q1) and rq1/rq2 (Q2) as virtual sources."""
    store = RemoteStore()
    density = config.remote_density
    seed = config.seed

    def set_factory(source_tag: int):
        def factory(key):
            return PseudoRandomSet(seed * 1000 + source_tag, key, density)

        return factory

    for tag, source in enumerate(("rd1", "rd2", "rq1", "rq2")):
        store.register_source(source, set_factory(tag))
    return store


def q1_query(config: SyntheticConfig) -> Query:
    """Q1: the 8-step sequence with remote data needed at two states."""
    text = f"""
    SEQ(A a, B b, C c, D d, B e, C f, A g, D h)
    WHERE SAME[id] AND (d.v1 IN REMOTE<rd1>[a.v1]) AND a.v2 <= h.v2
    AND (h.v1 NOT IN REMOTE<rd2>[b.v1])
    WITHIN {config.window_events} EVENTS
    """
    return parse_query(text, name="Q1")


def q2_query(config: SyntheticConfig) -> Query:
    """Q2: disjunction of sequences, one remote reference per branch."""
    text = f"""
    SEQ(A a, (SEQ(B b, C d, D f) OR SEQ(C c, B e)))
    WHERE SAME[id] AND a.v1 <= b.v1 AND a.v2 <= e.v1
    AND (d.v1 IN REMOTE<rq1>[a.v1]) AND (c.v2 IN REMOTE<rq2>[a.v2])
    WITHIN {config.window_events} EVENTS
    """
    return parse_query(text, name="Q2")


def _workload(name: str, query: Query, config: SyntheticConfig) -> Workload:
    return Workload(
        name=name,
        query=query,
        store=make_store(config),
        stream=make_stream(config),
        latency_model=UniformLatency(config.latency_low_us, config.latency_high_us),
        notes={
            "cache_capacity": max(config.key_domain // 10, 1),
            "config": config,
        },
    )


# Default shapes calibrated so both selection policies yield meaningful
# match counts at tractable partial-match populations: Q1's 8-step sequence
# needs denser per-ID sub-streams than Q2's 3/4-step disjunction.
Q1_DEFAULTS = SyntheticConfig(n_events=8_000, id_domain=20, window_events=400)
Q2_DEFAULTS = SyntheticConfig(n_events=8_000, id_domain=40, window_events=400)


def q1_workload(config: SyntheticConfig | None = None) -> Workload:
    """The full Q1 scenario (Figs. 5, 7, 8, 9)."""
    config = config if config is not None else Q1_DEFAULTS
    return _workload("synthetic-q1", q1_query(config), config)


def q2_workload(config: SyntheticConfig | None = None) -> Workload:
    """The full Q2 scenario (Fig. 6)."""
    config = config if config is not None else Q2_DEFAULTS
    return _workload("synthetic-q2", q2_query(config), config)
