"""Utility-estimation noise injection (Fig. 8a's sensitivity experiment).

The paper assesses estimation quality "by injecting noise into the employed
estimations, where a noisy estimation means that an expected partial match
will not actually materialize".  Two consequences of such a wrong
expectation are reproduced:

* the *future-utility* estimate attributed to a data element is wrong
  (here: zeroed), degrading prefetch selection and cost-based eviction; and
* a prefetch issued on behalf of the phantom partial match fetches a
  *useless element* while the actually needed one is missed (here: the
  planned key is replaced by a decoy key absent from the remote store).

Decisions are deterministic per (token, epoch): within an epoch the same
estimation stays corrupted or clean, and decisions refresh as time advances
— mirroring how estimation errors persist while the underlying statistics
are stale.
"""

from __future__ import annotations

from repro.remote.element import DataKey
from repro.sim.rng import stable_hash

__all__ = ["NoiseModel"]

_HASH_SPACE = 2**31
# Virtual us during which one estimation stays corrupted or clean.
EPOCH_LENGTH_US = 10_000.0


class NoiseModel:
    """Deterministic pseudo-random corruption of utility estimates."""

    def __init__(self, ratio: float, seed: int = 17) -> None:
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"noise ratio must be in [0, 1]: {ratio}")
        self.ratio = ratio
        self.active = ratio > 0.0
        self._seed = seed

    def flip(self, token: tuple, now: float) -> bool:
        """Whether the estimation identified by ``token`` is corrupted now."""
        if not self.active:
            return False
        epoch = int(now / EPOCH_LENGTH_US)
        bucket = stable_hash(token, epoch, self._seed) % _HASH_SPACE
        return bucket < self.ratio * _HASH_SPACE

    def decoy_key(self, key: DataKey) -> DataKey:
        """A lookup key for a non-existent element (a useless prefetch)."""
        return (key[0], ("__noise__", key[1]))

    def __repr__(self) -> str:
        return f"NoiseModel(ratio={self.ratio})"
