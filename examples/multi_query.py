#!/usr/bin/env python3
"""Multiple queries sharing one cache and cost model (§4.1).

Two monitoring queries watch the same transaction stream and both consult
the same remote per-customer limit table. Run in isolation, each pays its
own fetches; registered on one :class:`repro.RuntimeBuilder`, elements fetched
for one query serve the other, and the cache retains what the
priority-weighted utility across *both* queries says is most valuable.

Both deployments are assembled by the same composition root
(:class:`repro.runtime.RuntimeBuilder`) and driven by the same dispatch
loop, so the comparison isolates exactly one variable: cache sharing.

Run it with::

    python examples/multi_query.py
"""

from __future__ import annotations

from repro import (
    EIRES,
    EiresConfig,
    Event,
    QuerySpec,
    RemoteStore,
    RuntimeBuilder,
    Stream,
    UniformLatency,
    make_rng,
    parse_query,
)

OVERLIMIT = parse_query(
    """
    SEQ(O o, P p)
    WHERE SAME[customer] AND p.amount > REMOTE<limits>[o.customer]
    WITHIN 20ms
    """,
    name="overlimit",
)

ESCALATION = parse_query(
    """
    SEQ(O o, P p1, P p2)
    WHERE SAME[customer] AND p1.amount > REMOTE<limits>[o.customer]
    AND p2.amount > p1.amount
    WITHIN 20ms
    """,
    name="escalation",
)


def build_store() -> RemoteStore:
    store = RemoteStore()
    for customer in range(150):
        store.put("limits", customer, 400 + 7 * customer)
    return store


def make_stream(n_events: int = 4_000, seed: int = 11) -> Stream:
    rng = make_rng(seed)
    events = []
    t = 0.0
    for _ in range(n_events):
        t += 40.0
        events.append(
            Event(
                t,
                {
                    "type": rng.choice(["O", "P"]),
                    "customer": rng.randrange(150),
                    "amount": rng.randint(1, 2_500),
                },
            )
        )
    return Stream(events)


def main() -> None:
    stream = make_stream()
    latency = UniformLatency(50.0, 400.0)
    config = EiresConfig(cache_capacity=60)

    print("Isolated deployments (one runtime per query):")
    isolated_fetches = 0
    for query in (OVERLIMIT, ESCALATION):
        eires = EIRES(query, build_store(), latency, strategy="Hybrid", config=config)
        result = eires.run(stream)
        stats = result.summary()
        fetches = stats["transport.blocking_fetches"] + stats["transport.async_fetches"]
        isolated_fetches += fetches
        print(
            f"  {query.name:11s} matches={result.match_count:5d} "
            f"p50={result.latency.median():8.1f}us  remote fetches={fetches}"
        )

    print("\nShared deployment (one cache, priority-weighted utility):")
    runtime = (
        RuntimeBuilder(build_store(), latency, config=config)
        .add_spec(QuerySpec(OVERLIMIT, priority=2.0))
        .add_spec(QuerySpec(ESCALATION, priority=1.0))
        .build()
    )
    results = runtime.run(stream)
    # Every per-query result of a shared replay reports the same transport.
    shared_stats = next(iter(results.values())).summary()
    shared_fetches = shared_stats["transport.blocking_fetches"] + shared_stats["transport.async_fetches"]
    for name, result in results.items():
        print(
            f"  {name:11s} matches={result.match_count:5d} "
            f"p50={result.latency.median():8.1f}us"
        )
    print(f"  total remote fetches={shared_fetches}  (isolated: {isolated_fetches})")
    print(
        f"\nSharing saved {isolated_fetches - shared_fetches} fetches "
        f"({1 - shared_fetches / isolated_fetches:.0%}) with identical detections."
    )


if __name__ == "__main__":
    main()
