"""Extension bench: multi-query workloads sharing one cache (§4.1).

The paper argues (without measuring) that the utility model extends to
multiple queries: shared data elements accumulate utility across queries,
and priorities weight Eq. 3.  This bench quantifies the claim on two queries
that consult the same remote source over the same stream:

* *isolated*: each query runs with its own cache of capacity C/2;
* *shared*: both queries run against one cache of capacity C.

Sharing should reduce total remote traffic (an element fetched for one query
serves the other) and never hurt the match sets.
"""

from __future__ import annotations

from repro import (
    EIRES,
    EiresConfig,
    parse_query,
    QuerySpec,
    RemoteStore,
    RuntimeBuilder,
    UniformLatency,
)
from repro.bench.harness import ExperimentResult
from repro.workloads.synthetic import SyntheticConfig, make_stream

CAPACITY = 200


def build_queries():
    q_ab = parse_query(
        "SEQ(A a, B b, C c) WHERE SAME[id] AND c.v1 IN REMOTE<shared>[a.v1] WITHIN 300 EVENTS",
        name="seq-abc",
    )
    q_ad = parse_query(
        "SEQ(A a, D d, B e) WHERE SAME[id] AND d.v1 IN REMOTE<shared>[a.v1] WITHIN 300 EVENTS",
        name="seq-adb",
    )
    return q_ab, q_ad


def build_store():
    from repro.workloads.base import PseudoRandomSet

    store = RemoteStore()
    store.register_source("shared", lambda key: PseudoRandomSet(99, key, 0.3))
    return store


def run_comparison() -> list[dict]:
    stream = make_stream(SyntheticConfig(n_events=4_000, id_domain=25))
    latency = UniformLatency(10.0, 100.0)
    q_ab, q_ad = build_queries()

    rows = []

    # Isolated: independent runtimes, split capacity (fresh stores so the
    # transports don't share lazily materialised elements either).
    isolated_fetches = 0
    isolated_p50 = {}
    for query in (q_ab, q_ad):
        eires = EIRES(query, build_store(), latency, strategy="Hybrid",
                      config=EiresConfig(cache_capacity=CAPACITY // 2))
        result = eires.run(stream)
        summary = result.summary()
        isolated_fetches += summary["transport.blocking_fetches"] + summary["transport.async_fetches"]
        isolated_p50[query.name] = result.latency_percentiles()[50]
        rows.append({
            "setup": "isolated",
            "query": query.name,
            "matches": result.match_count,
            "p50": result.latency_percentiles()[50],
        })

    shared = (
        RuntimeBuilder(build_store(), latency, config=EiresConfig(cache_capacity=CAPACITY))
        .add_spec(QuerySpec(q_ab))
        .add_spec(QuerySpec(q_ad))
        .build()
    )
    results = shared.run(stream)
    # Every result of a shared replay reports the same (shared) transport.
    shared_stats = next(iter(results.values())).summary()
    shared_fetches = shared_stats["transport.blocking_fetches"] + shared_stats["transport.async_fetches"]
    for name, result in results.items():
        rows.append({
            "setup": "shared",
            "query": name,
            "matches": result.match_count,
            "p50": result.latency_percentiles()[50],
        })
    rows.append({"setup": "isolated", "query": "(total fetches)", "matches": isolated_fetches, "p50": 0.0})
    rows.append({"setup": "shared", "query": "(total fetches)", "matches": shared_fetches, "p50": 0.0})
    return rows


def test_multiquery_sharing(benchmark, report):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    report.add(
        ExperimentResult("extension_multiquery_sharing", rows),
        comparison_metric=None,
        columns=("setup", "query", "matches", "p50"),
    )
    by = {(row["setup"], row["query"]): row for row in rows}
    # Identical detections under both deployments.
    for name in ("seq-abc", "seq-adb"):
        assert by[("isolated", name)]["matches"] == by[("shared", name)]["matches"]
    # Sharing the cache reduces total remote traffic.
    assert (
        by[("shared", "(total fetches)")]["matches"]
        < by[("isolated", "(total fetches)")]["matches"]
    )
