"""Common workload plumbing shared by the scenario generators."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.events.stream import Stream
from repro.sim.rng import extend_hash, stable_hash
from repro.query.ast import Query
from repro.remote.store import RemoteStore
from repro.remote.transport import LatencyModel

__all__ = ["Workload", "PseudoRandomSet"]


@dataclass
class Workload:
    """One ready-to-run scenario: query, remote data, stream, latencies."""

    name: str
    query: Query
    store: RemoteStore
    stream: Stream
    latency_model: LatencyModel
    notes: dict = field(default_factory=dict)

    def __repr__(self) -> str:
        return (
            f"Workload({self.name!r}, {len(self.stream)} events, "
            f"query={self.query.name!r})"
        )


class PseudoRandomSet:
    """A deterministic virtual set with a fixed membership probability.

    Stands in for large remote set-valued data elements (known locations per
    user, pre-authorized clients per organization, ...) without materialising
    millions of members: ``x in s`` is a pure function of ``(seed, key, x)``
    that holds with probability ``density``.  This makes remote-predicate
    selectivity an explicit workload knob, which the paper's (unpublished)
    query tables controlled implicitly.
    """

    __slots__ = ("seed", "key", "density", "_prefix")

    _SPACE = 2**31

    def __init__(self, seed: int, key, density: float) -> None:
        if not 0.0 <= density <= 1.0:
            raise ValueError(f"density must be in [0, 1]: {density}")
        self.seed = seed
        self.key = key
        self.density = density
        # stable_hash(seed, key, item) with its constant prefix mixed once.
        self._prefix = stable_hash(seed, key)

    def __contains__(self, item) -> bool:
        bucket = extend_hash(self._prefix, item) % self._SPACE
        return bucket < self.density * self._SPACE

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PseudoRandomSet)
            and (self.seed, self.key, self.density) == (other.seed, other.key, other.density)
        )

    def __hash__(self) -> int:
        return hash((self.seed, self.key, self.density))

    def __repr__(self) -> str:
        return f"PseudoRandomSet(key={self.key!r}, density={self.density})"
