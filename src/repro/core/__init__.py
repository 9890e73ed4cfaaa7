"""Framework assembly: configuration and the EIRES facade.

The actual composition root and dispatch loop live one layer down, in
:mod:`repro.runtime`; this package holds the configuration schema and the
thin single-query facade over it.
"""

from repro.core.config import CACHE_COST, CACHE_LRU, EiresConfig
from repro.core.framework import EIRES
from repro.runtime import QuerySpec, RunResult

__all__ = [
    "EIRES",
    "QuerySpec",
    "EiresConfig",
    "RunResult",
    "CACHE_LRU",
    "CACHE_COST",
]
