"""EIRES: Efficient Integration of Remote Data in Event Stream Processing.

A complete Python reproduction of the SIGMOD 2021 paper by Zhao, van der Aa,
Nguyen, Nguyen, and Weidlich.  The package provides:

* a SASE-style CEP query language, compiler, and automata-based engine with
  greedy / non-greedy selection policies (:mod:`repro.query`,
  :mod:`repro.nfa`, :mod:`repro.engine`);
* a remote-data substrate with per-element transmission latency and
  hierarchical data elements (:mod:`repro.remote`);
* the EIRES utility model, prefetching (PFetch), lazy evaluation (LzEval),
  the Hybrid strategy, and the baselines BL1-BL3 (:mod:`repro.utility`,
  :mod:`repro.strategies`);
* LRU and cost-based cache management (:mod:`repro.cache`);
* workload generators and a benchmark harness regenerating every figure of
  the paper's evaluation (:mod:`repro.workloads`, :mod:`repro.bench`);
* a multi-tenant fleet layer admitting tenants onto one runtime and one
  shared remote-data plane (:mod:`repro.serving`).

Quick start::

    from repro import EIRES, EiresConfig, parse_query

See ``examples/quickstart.py`` for a runnable end-to-end script.

This ``__all__`` is the *curated public surface*: together with the
public subpackages — :mod:`repro.workloads`, :mod:`repro.bench`, and
:mod:`repro.metrics.reporting` — it is everything in-tree consumers
(``examples/``, ``benchmarks/``) may import, and rule R3 of
``tests/test_invariants.py`` fails the build if they reach deeper.  Adding
a name here is an API commitment; removing one is a breaking change.
"""

from repro.core.config import CACHE_COST, CACHE_LRU, EiresConfig
from repro.core.framework import EIRES
from repro.runtime import QuerySpec, RunResult, RuntimeBuilder
from repro.engine.engine import GREEDY, NON_GREEDY
from repro.events.event import Event, EventSchema
from repro.events.stream import Stream
from repro.query.ast import EventAtom, OrPattern, Query, SeqPattern, Window
from repro.query.parser import parse_pattern, parse_query
from repro.remote.store import RemoteStore
from repro.remote.transport import (
    FetchRequest,
    FixedLatency,
    PerSourceLatency,
    UniformLatency,
)
from repro.serving import FleetBuilder, FleetResult, TenantSpec
from repro.sim.rng import make_rng
from repro.strategies import STRATEGIES, make_strategy

__version__ = "1.0.0"

__all__ = [
    "EIRES",
    "QuerySpec",
    "RuntimeBuilder",
    "FleetBuilder",
    "TenantSpec",
    "FleetResult",
    "EiresConfig",
    "RunResult",
    "GREEDY",
    "NON_GREEDY",
    "CACHE_LRU",
    "CACHE_COST",
    "Event",
    "EventSchema",
    "Stream",
    "Query",
    "EventAtom",
    "SeqPattern",
    "OrPattern",
    "Window",
    "parse_query",
    "parse_pattern",
    "RemoteStore",
    "FetchRequest",
    "FixedLatency",
    "UniformLatency",
    "PerSourceLatency",
    "STRATEGIES",
    "make_strategy",
    "make_rng",
    "__version__",
]
