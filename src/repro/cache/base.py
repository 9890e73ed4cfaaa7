"""Cache interface shared by the LRU and cost-based policies (§6).

The cache stores :class:`~repro.remote.element.DataElement` objects keyed by
``(source, key)``, bounded by a *capacity* measured in element size units
(``|d|``; with unit-size elements this is simply an item count, matching the
paper's "10,000 items").

Hierarchical data is honoured on lookup: a request for a child element hits
if any of its containers is cached, since fetching a container materialises
its parts (§2.1).

``certain`` on :meth:`put` tells the cost-based policy which conceptual tier
an element enters: ``True`` for elements requested by lazy evaluation (their
use is guaranteed — tier T1), ``False`` for speculative prefetches (tier
T2).  The LRU policy ignores the flag.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.obs.registry import CounterGroup, MetricsRegistry
from repro.obs.trace import CAT_CACHE, NULL_TRACER, Tracer, trace_key
from repro.remote.element import DataElement, DataKey

__all__ = ["Cache", "CACHE_COUNTER_KEYS"]

# Every counter a cache maintains (``cache.*``), in report order.
CACHE_COUNTER_KEYS = ("hits", "misses", "insertions", "evictions", "rejected")


class Cache(ABC):
    """Abstract bounded cache of remote data elements."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive: {capacity}")
        self.capacity = capacity
        self.stats = CounterGroup("cache", CACHE_COUNTER_KEYS)
        self.tracer: Tracer = NULL_TRACER
        self._entries: dict[DataKey, DataElement] = {}
        self._part_index: dict[DataKey, DataKey] = {}
        self._used = 0

    def bind_observability(self, registry: MetricsRegistry | None, tracer: Tracer) -> None:
        """Attach the counters to ``registry`` and bind the trace bus at assembly."""
        if registry is not None:
            registry.attach(self.stats)
        self.tracer = tracer

    # -- interface ----------------------------------------------------------
    @abstractmethod
    def _on_access(self, key: DataKey, now: float) -> None:
        """Policy hook: the entry under ``key`` was read."""

    @abstractmethod
    def _on_insert(self, key: DataKey, now: float, certain: bool) -> None:
        """Policy hook: a new entry was stored under ``key``."""

    @abstractmethod
    def _select_victim(self) -> DataKey:
        """Policy hook: choose the key to evict (cache is non-empty)."""

    def _on_remove(self, key: DataKey) -> None:
        """Policy hook: the entry under ``key`` left the cache."""

    def min_utility(self) -> float:
        """Lowest utility among cached elements (Eq. 7's threshold).

        Policies without a utility notion return 0.0, which makes the
        prefetch gate permissive — matching how LRU-managed caches are used
        in the paper.
        """
        return 0.0

    # -- shared behaviour -----------------------------------------------------
    def get(self, key: DataKey, now: float) -> DataElement | None:
        """Look up ``key`` (or a cached container of it); count hit/miss."""
        element = self._probe(key, now)
        if element is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        if self.tracer.enabled:
            self.tracer.emit(
                CAT_CACHE,
                "hit" if element is not None else "miss",
                now,
                key=trace_key(key),
            )
        return element

    def peek(self, key: DataKey, now: float) -> DataElement | None:
        """Availability check that does not perturb stats (planner probes)."""
        entry = self._entries.get(key)
        if entry is not None:
            return entry
        return self._container_hit(key)

    def _probe(self, key: DataKey, now: float) -> DataElement | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._on_access(key, now)
            return entry
        container = self._container_hit(key)
        if container is not None:
            self._on_access(container.key, now)
        return container

    def _container_hit(self, key: DataKey) -> DataElement | None:
        """A cached container whose parts include ``key``, if any.

        Cached containers index their descendant keys at insertion time
        (see :meth:`put`), so this is an O(1) lookup.
        """
        owner = self._part_index.get(key)
        if owner is not None and owner in self._entries:
            return self._entries[owner]
        return None

    def put(self, element: DataElement, now: float, certain: bool = True) -> bool:
        """Insert ``element``, evicting as needed; returns False if rejected.

        An element larger than the whole cache is rejected outright (and
        counted), mirroring size-aware admission in web caches.
        """
        size = element.total_size()
        if size > self.capacity:
            self.stats.rejected += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    CAT_CACHE, "reject", now, key=trace_key(element.key), size=size
                )
            return False
        if element.key in self._entries:
            # Re-fetching replaces the stored element (fresher value); remove
            # the old entry cleanly, then fall through to a normal insert.
            self._remove(element.key)
        while self._used + size > self.capacity:
            self._evict_one(now)
        self._entries[element.key] = element
        self._used += size
        for part in element.descendants():
            if part.key != element.key:
                self._part_index[part.key] = element.key
        self.stats.insertions += 1
        self._on_insert(element.key, now, certain)
        if self.tracer.enabled:
            self.tracer.emit(
                CAT_CACHE,
                "admit",
                now,
                key=trace_key(element.key),
                size=size,
                certain=certain,
                used=self._used,
            )
        return True

    def _evict_one(self, now: float) -> None:
        victim = self._select_victim()
        self._remove(victim)
        self.stats.evictions += 1
        if self.tracer.enabled:
            self.tracer.emit(CAT_CACHE, "evict", now, key=trace_key(victim))

    def _remove(self, key: DataKey) -> None:
        element = self._entries.pop(key)
        self._used -= element.total_size()
        for part in element.descendants():
            if part.key != element.key:
                self._part_index.pop(part.key, None)
        self._on_remove(key)

    def __contains__(self, key: DataKey) -> bool:
        return key in self._entries or self._part_index.get(key) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used(self) -> int:
        """Capacity units currently occupied."""
        return self._used

    def keys(self) -> list[DataKey]:
        return list(self._entries)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(used={self._used}/{self.capacity}, entries={len(self._entries)})"
