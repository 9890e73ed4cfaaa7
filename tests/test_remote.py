"""Unit tests for the remote-data substrate."""

import pytest

from repro.remote.batching import BatchPolicy
from repro.remote.element import DataElement
from repro.remote.faults import ERROR, OK, DropFaults, FaultDecision, NoFaults
from repro.remote.monitor import EWMA_ALPHA, LATENCY_PRIOR_US, LatencyMonitor
from repro.remote.retry import RetryPolicy
from repro.remote.store import MISSING_VALUE, RemoteStore
from repro.remote.transport import (
    MODE_BLOCKING,
    FetchRequest,
    FixedLatency,
    PerSourceLatency,
    Transport,
    UniformLatency,
)
from repro.sim.rng import make_rng


class TestDataElement:
    def test_hierarchy_construction(self):
        org = DataElement(("s", "org"), "o", size=0)
        user = DataElement(("s", "user"), "u", size=0, parent=org)
        card = DataElement(("s", "card"), "c", size=2, parent=user)
        assert list(card.ancestors()) == [card, user, org]
        assert {d.key for d in org.descendants()} == {("s", "org"), ("s", "user"), ("s", "card")}

    def test_total_size_sums_descendants(self):
        org = DataElement(("s", "org"), "o", size=1)
        DataElement(("s", "u1"), "u", size=2, parent=org)
        DataElement(("s", "u2"), "u", size=3, parent=org)
        assert org.total_size() == 6

    def test_memoised_sizes_and_ancestor_keys_follow_the_hierarchy(self):
        org = DataElement(("s", "org"), "o", size=1)
        user = DataElement(("s", "user"), "u", size=2, parent=org)
        card = DataElement(("s", "card"), "c", size=3, parent=user)
        assert (org.total_size(), user.total_size(), card.total_size()) == (6, 5, 3)
        assert card.ancestor_keys() == (("s", "card"), ("s", "user"), ("s", "org"))
        assert card.ancestor_keys() is card.ancestor_keys()  # memoised
        # A late part grows every container above it ...
        DataElement(("s", "card2"), "c", size=4, parent=user)
        assert (org.total_size(), user.total_size(), card.total_size()) == (10, 9, 3)
        # ... and a late container lengthens the chain of everything below it.
        holding = DataElement(("s", "holding"), "h", size=0)
        holding.add_child(org)
        assert card.ancestor_keys() == tuple(node.key for node in card.ancestors())
        assert card.ancestor_keys()[-1] == ("s", "holding")
        assert holding.total_size() == 10

    def test_reparenting_rejected(self):
        a = DataElement(("s", "a"), 1)
        b = DataElement(("s", "b"), 1)
        child = DataElement(("s", "c"), 1, parent=a)
        with pytest.raises(ValueError, match="already has a container"):
            b.add_child(child)

    def test_containment_cycle_rejected(self):
        a = DataElement(("s", "a"), 1)
        b = DataElement(("s", "b"), 1, parent=a)
        with pytest.raises(ValueError, match="cycle"):
            b.add_child(a)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DataElement(("s", "a"), 1, size=-1)


class TestRemoteStore:
    def test_put_and_get(self):
        store = RemoteStore()
        store.put("tbl", 1, "value")
        assert store.get("tbl", 1).value == "value"
        assert ("tbl", 1) in store

    def test_missing_key_yields_empty_sentinel(self):
        store = RemoteStore()
        elem = store.lookup(("tbl", 99))
        assert elem.value == MISSING_VALUE
        assert "x" not in elem.value

    def test_virtual_source_factory(self):
        store = RemoteStore()
        store.register_source("sq", lambda key: key * key)
        assert store.lookup(("sq", 7)).value == 49

    def test_virtual_source_memoises(self):
        calls = []
        store = RemoteStore()
        store.register_source("t", lambda key: calls.append(key) or key)
        store.lookup(("t", 1))
        store.lookup(("t", 1))
        assert calls == [1]

    def test_register_source_invalid_size(self):
        with pytest.raises(ValueError):
            RemoteStore().register_source("x", lambda k: k, size=0)

    def test_put_all_and_sources(self):
        store = RemoteStore()
        store.put_all("a", [(1, "x"), (2, "y")])
        store.put("b", 1, "z")
        assert store.sources() == {"a", "b"}
        assert len(store) == 3


class TestLatencyModels:
    def test_fixed(self):
        model = FixedLatency(5.0)
        assert model.sample(("s", 1), make_rng(1)) == 5.0

    def test_fixed_negative_rejected(self):
        with pytest.raises(ValueError):
            FixedLatency(-1.0)

    def test_uniform_in_range(self):
        model = UniformLatency(10.0, 100.0)
        rng = make_rng(2)
        for _ in range(200):
            assert 10.0 <= model.sample(("s", 1), rng) <= 100.0

    def test_uniform_invalid_range(self):
        with pytest.raises(ValueError):
            UniformLatency(10.0, 5.0)

    def test_per_source_dispatch(self):
        model = PerSourceLatency({"fast": FixedLatency(1.0)}, default=FixedLatency(9.0))
        rng = make_rng(3)
        assert model.sample(("fast", 1), rng) == 1.0
        assert model.sample(("slow", 1), rng) == 9.0

    def test_per_source_without_default_raises(self):
        model = PerSourceLatency({})
        with pytest.raises(KeyError):
            model.sample(("unknown", 1), make_rng(1))


class TestTransport:
    def _transport(self, latency=10.0):
        store = RemoteStore()
        store.put("t", 1, "one")
        store.put("t", 2, "two")
        return Transport(store, FixedLatency(latency), make_rng(5))

    def test_blocking_fetch_latency(self):
        transport = self._transport(25.0)
        request = transport.submit(FetchRequest(("t", 1), at=100.0, mode=MODE_BLOCKING))
        assert request.arrives_at == 125.0
        assert request.element.value == "one"
        assert transport.stats.blocking_fetches == 1

    def test_async_fetch_tracked_until_delivered(self):
        transport = self._transport(10.0)
        transport.submit(FetchRequest(("t", 1), at=0.0))
        assert transport.pending_count() == 1
        assert transport.deliver_due(5.0) == []
        delivered = transport.deliver_due(10.0)
        assert [req.key for req in delivered] == [("t", 1)]
        assert transport.pending_count() == 0

    def test_async_coalesces_duplicate_requests(self):
        transport = self._transport()
        first = transport.submit(FetchRequest(("t", 1), at=0.0))
        second = transport.submit(FetchRequest(("t", 1), at=3.0))
        assert first is second
        assert transport.stats.coalesced == 1
        assert transport.stats.async_fetches == 1

    def test_blocking_joins_in_flight_request(self):
        transport = self._transport(10.0)
        async_request = transport.submit(FetchRequest(("t", 1), at=0.0))
        blocking = transport.submit(FetchRequest(("t", 1), at=8.0, mode=MODE_BLOCKING))
        assert blocking is async_request
        assert transport.stats.blocking_fetches == 0

    def test_delivery_sorted_by_arrival(self):
        store = RemoteStore()
        store.put("t", 1, "a")
        store.put("t", 2, "b")
        latencies = iter([30.0, 10.0])

        class SeqLatency(FixedLatency):
            def __init__(self):
                super().__init__(0.0)

            def sample(self, key, rng):
                return next(latencies)

        transport = Transport(store, SeqLatency(), make_rng(1))
        transport.submit(FetchRequest(("t", 1), at=0.0))  # arrives at 30
        transport.submit(FetchRequest(("t", 2), at=0.0))  # arrives at 10
        delivered = transport.deliver_due(100.0)
        assert [req.key for req in delivered] == [("t", 2), ("t", 1)]

    def test_monitor_records_observations(self):
        transport = self._transport(42.0)
        transport.submit(FetchRequest(("t", 1), at=0.0, mode=MODE_BLOCKING))
        assert transport.monitor.estimate(("t", 1)) == 42.0

    @pytest.mark.parametrize("path", ["fresh", "doomed_async", "queued_batch"])
    def test_blocking_submit_consumes_its_key(self, path):
        # The blocking caller consumes the outcome it is handed, whether the
        # fetch was fresh, a doomed async ticket it took over, or a queued
        # batch ticket it flushed and joined: nothing stays in flight for the
        # key, so deliver_due never hands the same response out again.
        class FirstAttemptErrors(NoFaults):
            def decide(self, key, now, attempt, rng):
                return FaultDecision(ERROR if attempt == 1 else OK)

        store = RemoteStore()
        store.put("t", 1, "one")
        options = {
            "fresh": {},
            "doomed_async": {
                "fault_model": FirstAttemptErrors(),
                "retry_policy": RetryPolicy(max_attempts=2, backoff_base=5.0, jitter=0.0),
            },
            "queued_batch": {"batch_policy": BatchPolicy(window=50.0, max_keys=4)},
        }[path]
        transport = Transport(store, FixedLatency(10.0), make_rng(1), **options)
        if path != "fresh":
            transport.submit(FetchRequest(("t", 1), at=0.0))
        ticket = transport.submit(FetchRequest(("t", 1), at=5.0, mode=MODE_BLOCKING))
        assert ticket.ok and ticket.element.value == "one"
        assert transport.stats.coalesced == (path != "fresh")
        assert transport.in_flight(("t", 1)) is None
        assert transport.deliver_due(float("inf")) == []

    def test_delivery_ties_broken_deterministically(self):
        # Identical arrival times: delivery order falls back to issue time,
        # then to the key itself, independent of dict insertion order.
        store = RemoteStore()
        for k in (1, 2, 3):
            store.put("t", k, str(k))
        transport = Transport(store, FixedLatency(10.0), make_rng(1))
        transport.submit(FetchRequest(("t", 3), at=0.0))
        transport.submit(FetchRequest(("t", 1), at=0.0))
        transport.submit(FetchRequest(("t", 2), at=5.0))  # arrives at 15
        delivered = transport.deliver_due(100.0)
        assert [req.key for req in delivered] == [("t", 1), ("t", 3), ("t", 2)]

    def test_failed_fetch_distinct_from_missing_value(self):
        # A dropped fetch must never masquerade as a successful fetch of the
        # store's MISSING_VALUE sentinel: an empty answer is an answer, a
        # failure is not.
        store = RemoteStore()
        store.put("t", 1, "one")
        transport = Transport(
            store,
            FixedLatency(10.0),
            make_rng(5),
            fault_model=DropFaults(1.0),
            fault_rng=make_rng(6),
            retry_policy=RetryPolicy(max_attempts=2, attempt_timeout=50.0),
        )
        failed = transport.submit(FetchRequest(("t", 1), at=0.0, mode=MODE_BLOCKING))
        assert not failed.ok
        assert failed.element is None
        assert failed.error == "timeout"
        # Whereas a fetch of an absent key *succeeds* with the sentinel.
        clean = Transport(store, FixedLatency(10.0), make_rng(5))
        missing = clean.submit(FetchRequest(("t", 99), at=0.0, mode=MODE_BLOCKING))
        assert missing.ok
        assert missing.element.value is MISSING_VALUE


class TestLatencyMonitor:
    def test_prior_before_observations(self):
        monitor = LatencyMonitor()
        assert monitor.estimate(("s", 1)) == LATENCY_PRIOR_US
        assert monitor.estimate_source("s") == LATENCY_PRIOR_US

    def test_key_estimate_tracks_observations(self):
        monitor = LatencyMonitor()
        monitor.record(("s", 1), 100.0)
        monitor.record(("s", 1), 50.0)
        assert monitor.estimate(("s", 1)) == pytest.approx(
            (1 - EWMA_ALPHA) * 100.0 + EWMA_ALPHA * 50.0
        )

    def test_source_fallback_for_unseen_key(self):
        monitor = LatencyMonitor()
        monitor.record(("s", 1), 80.0)
        assert monitor.estimate(("s", 999)) == pytest.approx(80.0)
        assert monitor.estimate_source("s") == pytest.approx(80.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyMonitor().record(("s", 1), -1.0)
