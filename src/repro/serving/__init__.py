"""repro.serving — the multi-tenant fleet layer.

Admits tenants onto **one** :class:`~repro.runtime.builder.Runtime` — one
virtual clock, one remote-data plane (transport + batching + cache), one
dispatch loop — so fetches overlap and amortise across tenants, priority
order holds fleet-wide, and a single-tenant fleet is byte-identical to a
plain ``RuntimeBuilder`` run.  Shards are placement labels: they order
equal-priority sessions and bucket the per-shard ``delivered`` counts.

Compose fleets exclusively through :class:`FleetBuilder` (analysis rule
A7): declare :class:`TenantSpec`\\ s, pick a placement policy, ``build()``,
``dispatch(stream)``.
"""

from repro.serving.fleet import Fleet, FleetBuilder, FleetResult
from repro.serving.placement import (
    PLACE_HASH,
    PLACE_PINNED,
    PLACE_ROUND_ROBIN,
    PLACEMENTS,
    assign_shards,
    stable_hash,
)
from repro.serving.ratelimit import TokenBucket
from repro.serving.tenant import TenantSpec

__all__ = [
    "FleetBuilder",
    "Fleet",
    "FleetResult",
    "TenantSpec",
    "TokenBucket",
    "PLACE_ROUND_ROBIN",
    "PLACE_HASH",
    "PLACE_PINNED",
    "PLACEMENTS",
    "assign_shards",
    "stable_hash",
]
