"""Tenant-to-shard placement: deterministic, replayable, provenance-checked.

A fleet labels each tenant with exactly one shard (a label on the one
runtime, not a worker — see :mod:`repro.serving.fleet`).  All three
policies are pure functions of the tenant list and the shard count, so a
placement can be *recomputed* from a trace's ``route`` records — that is
how :func:`repro.obs.provenance.verify_serving_record` proves the router
sent every tenant where the policy says it should.

``hash`` placement deliberately avoids Python's builtin ``hash()``: string
hashing is salted per process (``PYTHONHASHSEED``), which would make
placement — and therefore every downstream metric and trace — differ
between two runs of the same fleet.  :func:`stable_hash` is FNV-1a over
the UTF-8 bytes of the tenant name: stable across processes, platforms,
and Python versions.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = [
    "PLACE_ROUND_ROBIN",
    "PLACE_HASH",
    "PLACE_PINNED",
    "PLACEMENTS",
    "stable_hash",
    "assign_shards",
]

PLACE_ROUND_ROBIN = "round_robin"   # tenant i -> shard i % n_shards
PLACE_HASH = "hash"                 # tenant  -> stable_hash(name) % n_shards
PLACE_PINNED = "pinned"             # explicit tenant -> shard mapping

PLACEMENTS = (PLACE_ROUND_ROBIN, PLACE_HASH, PLACE_PINNED)

# FNV-1a, 64-bit (http://www.isthe.com/chongo/tech/comp/fnv/).
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def stable_hash(text: str) -> int:
    """64-bit FNV-1a of ``text``'s UTF-8 bytes; stable across processes."""
    value = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * _FNV_PRIME) & _MASK64
    return value


def assign_shards(
    tenants: Sequence[str],
    n_shards: int,
    policy: str = PLACE_ROUND_ROBIN,
    pins: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Map every tenant name to a shard id in ``[0, n_shards)``.

    ``pins`` is required (and only legal) for the ``pinned`` policy and
    must cover every tenant with an in-range shard id.  Raises
    :class:`ValueError` on any inconsistency — placement errors must fail
    the build, not surface as a half-routed fleet.
    """
    if n_shards < 1:
        raise ValueError(f"fleet needs at least one shard: n_shards={n_shards}")
    if policy not in PLACEMENTS:
        raise ValueError(
            f"unknown placement policy {policy!r}; expected one of {PLACEMENTS}"
        )
    if policy == PLACE_PINNED:
        if pins is None:
            raise ValueError("pinned placement requires an explicit pins mapping")
        missing = [name for name in tenants if name not in pins]
        if missing:
            raise ValueError(f"pinned placement misses tenants: {missing}")
        for name in tenants:
            shard = pins[name]
            if not (0 <= shard < n_shards):
                raise ValueError(
                    f"tenant {name!r} pinned to shard {shard}, "
                    f"outside [0, {n_shards})"
                )
        return {name: pins[name] for name in tenants}
    if pins is not None:
        raise ValueError(f"pins are only valid with the {PLACE_PINNED!r} policy")
    if policy == PLACE_ROUND_ROBIN:
        return {name: index % n_shards for index, name in enumerate(tenants)}
    return {name: stable_hash(name) % n_shards for name in tenants}
