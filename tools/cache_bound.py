#!/usr/bin/env python3
"""Demand-cache hits against the offline optimum (Belady's MIN).

Replays a synthetic workload under BL2 (block on every miss, cache what was
fetched, no prefetching) once with the LRU cache and once with the
cost-based cache, recording from outside every key the strategy asks the
cache for (``Cache.get`` wrapped for the replay).  Under BL2 with a COUNT
window that demand sequence does not depend on the policy.  It is then
scored offline, with unit sizes:

* an LRU simulation, which must reproduce the LRU run's ``cache.hits``
  (the check that the recorded sequence is the one the cache saw);
* Belady's MIN: on a miss with the cache full, evict the resident key whose
  next request lies furthest ahead.  The missed key is always admitted, as
  a demand cache must, so MIN bounds every policy's hits from above.

Usage::

    python tools/cache_bound.py q2 100

The stream is Fig. 8b's (:data:`CONFIG`: 3 000 events, a COUNT window of
400, 20 ids, seed 42); only the query and the cache capacity vary.

With prefetching (PFetch, Hybrid) the sequence depends on the policy and
MIN is no bound, so only BL2 is replayed.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import OrderedDict
from heapq import heappop, heappush
from typing import Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro import CACHE_COST, CACHE_LRU, GREEDY, EiresConfig  # noqa: E402
from repro.bench.harness import run_strategy  # noqa: E402
from repro.cache.base import Cache  # noqa: E402
from repro.workloads.synthetic import SyntheticConfig, q1_workload, q2_workload  # noqa: E402

__all__ = ["CONFIG", "WORKLOADS", "demand_run", "lru_hits", "min_hits", "main"]

WORKLOADS = {"q1": q1_workload, "q2": q2_workload}

#: Fig. 8b's stream.
CONFIG = SyntheticConfig(n_events=3_000, id_domain=20, window_events=400, seed=42)


def demand_run(workload, cache_policy: str, capacity: int) -> tuple[int, list]:
    """``(cache.hits, requested keys in order)`` of one BL2 replay."""
    requested: list = []
    get = Cache.get

    def recording(cache, key, now):
        requested.append(key)
        return get(cache, key, now)

    config = EiresConfig(policy=GREEDY, cache_policy=cache_policy, cache_capacity=capacity)
    Cache.get = recording
    try:
        result = run_strategy(workload, "BL2", config)
    finally:
        Cache.get = get
    return result.summary()["cache.hits"], requested


def lru_hits(keys: Sequence, capacity: int) -> int:
    """Hits of an LRU demand cache of ``capacity`` unit-size entries."""
    resident: OrderedDict = OrderedDict()
    hits = 0
    for key in keys:
        if key in resident:
            resident.move_to_end(key)
            hits += 1
            continue
        if len(resident) >= capacity:
            resident.popitem(last=False)
        resident[key] = None
    return hits


def min_hits(keys: Sequence, capacity: int) -> int:
    """Hits of Belady's MIN over ``keys`` (unit sizes, the missed key admitted)."""
    never = len(keys)
    next_use = [never] * len(keys)
    seen: dict = {}
    for position in range(len(keys) - 1, -1, -1):
        next_use[position] = seen.get(keys[position], never)
        seen[keys[position]] = position
    resident: dict = {}  # key -> its next request
    # (-next request, position, key): the furthest first; an entry whose key
    # was requested again since is stale and skipped when popped.
    furthest: list = []
    hits = 0
    for position, key in enumerate(keys):
        if key in resident:
            hits += 1
        elif len(resident) >= capacity:
            while True:
                negated, _, victim = heappop(furthest)
                if resident.get(victim) == -negated:
                    del resident[victim]
                    break
        resident[key] = next_use[position]
        heappush(furthest, (-next_use[position], position, key))
    return hits


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/cache_bound.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("capacity", type=int, help="cache entries (unit sizes)")
    args = parser.parse_args(argv)
    if args.capacity <= 0:
        parser.error(f"capacity must be positive: {args.capacity}")
    workload = WORKLOADS[args.workload](CONFIG)
    lru_run, keys = demand_run(workload, CACHE_LRU, args.capacity)
    cost_run, cost_keys = demand_run(workload, CACHE_COST, args.capacity)
    print(f"{args.workload} capacity={args.capacity} events={CONFIG.n_events} "
          f"window={CONFIG.window_events} ids={CONFIG.id_domain} seed={CONFIG.seed}")
    print(f"accesses {len(keys)}, distinct keys {len(set(keys))}")
    if cost_keys != keys:
        print("the cost-based run asked for another sequence: MIN bounds the LRU run only")
    rows = (("LRU run", lru_run), ("cost-based run", cost_run),
            ("LRU simulation", lru_hits(keys, args.capacity)),
            ("MIN", min_hits(keys, args.capacity)))
    for name, hits in rows:
        print(f"{name:<16}{hits:>8} hits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
