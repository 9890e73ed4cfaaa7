"""Framework assembly: configuration and the EIRES facades.

The actual composition root and dispatch loop live one layer down, in
:mod:`repro.runtime`; this package holds the configuration schema and the
thin public facades over it.
"""

from repro.core.config import CACHE_COST, CACHE_LRU, EiresConfig
from repro.core.framework import EIRES
from repro.core.multi import MultiQueryEIRES, QuerySpec
from repro.runtime import RunResult

__all__ = [
    "EIRES",
    "MultiQueryEIRES",
    "QuerySpec",
    "EiresConfig",
    "RunResult",
    "CACHE_LRU",
    "CACHE_COST",
]
