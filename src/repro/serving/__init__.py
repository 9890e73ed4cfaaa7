"""repro.serving — the multi-tenant fleet layer.

Admits tenants onto **one** :class:`~repro.runtime.builder.Runtime` — one
virtual clock, one remote-data plane (transport + batching + cache), one
dispatch loop — so fetches overlap and amortise across tenants, sessions
run in descending priority and then tenant declaration order, and a
single-tenant fleet is byte-identical to a plain ``RuntimeBuilder`` run.

Compose fleets exclusively through :class:`FleetBuilder` (rule A7 of
``tests/test_invariants.py``): declare :class:`TenantSpec`\\ s, ``build()``, ``dispatch(stream)``.
"""

from repro.serving.fleet import Fleet, FleetBuilder, FleetResult
from repro.serving.ratelimit import TokenBucket
from repro.serving.tenant import TenantSpec

__all__ = [
    "FleetBuilder",
    "Fleet",
    "FleetResult",
    "TenantSpec",
    "TokenBucket",
]
