"""The remote database: a registry of data elements addressable by key.

:class:`RemoteStore` plays the role of the paper's remote sources.  It is an
in-process substitute (see DESIGN.md) — lookups are instantaneous at the
*store*, and all transmission delay is modelled by
:class:`repro.remote.transport.Transport`, which is the component the CEP
engine actually talks to.

A lookup for a missing key returns a :data:`MISSING` sentinel element with an
empty value rather than raising: real remote sources answer "no such row",
and the engine must evaluate predicates against that answer (e.g. ``x NOT IN
REMOTE[...]`` is vacuously true for an empty set).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable

from repro.remote.element import DataElement, DataKey

__all__ = ["RemoteStore", "MISSING_VALUE"]

MISSING_VALUE: frozenset = frozenset()


class RemoteStore:
    """An in-process key--value store standing in for remote databases.

    Besides explicitly :meth:`put` elements, a *virtual source* can be
    registered with a value factory: elements materialise (and are memoised)
    on first lookup.  This keeps huge key spaces — the synthetic workload's
    100k-key tables — at O(accessed keys) memory.
    """

    def __init__(self) -> None:
        self._elements: dict[DataKey, DataElement] = {}
        self._factories: dict[str, tuple[Callable[[Hashable], Any], int]] = {}

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, key: DataKey) -> bool:
        return key in self._elements

    def put(
        self,
        source: str,
        key: Hashable,
        value: Any,
        size: int = 1,
        parent: DataElement | None = None,
    ) -> DataElement:
        """Insert (or replace) an element and return it."""
        data_key: DataKey = (source, key)
        element = DataElement(data_key, value, size=size, parent=parent)
        self._elements[data_key] = element
        return element

    def put_all(self, source: str, pairs: Iterable[tuple[Hashable, Any]]) -> None:
        """Bulk-insert ``(key, value)`` pairs into ``source``."""
        for key, value in pairs:
            self.put(source, key, value)

    def register_source(
        self, source: str, factory: Callable[[Hashable], Any], size: int = 1
    ) -> None:
        """Declare a virtual source whose values come from ``factory(key)``."""
        if size <= 0:
            raise ValueError(f"element size must be positive: {size}")
        self._factories[source] = (factory, size)

    def lookup(self, key: DataKey) -> DataElement:
        """Fetch the element for ``key``; a missing key yields an empty element.

        Virtual sources materialise through their factory; truly unknown keys
        yield an empty-set sentinel.  Either way the element is memoised so
        later metadata queries (size, hierarchy) treat it uniformly.
        """
        element = self._elements.get(key)
        if element is None:
            factory_entry = self._factories.get(key[0])
            if factory_entry is not None:
                factory, size = factory_entry
                element = DataElement(key, factory(key[1]), size=size)
            else:
                element = DataElement(key, MISSING_VALUE, size=1)
            self._elements[key] = element
        return element

    def get(self, source: str, key: Hashable) -> DataElement:
        return self.lookup((source, key))

    def sources(self) -> set[str]:
        return {source for source, _ in self._elements}

    def __repr__(self) -> str:
        return f"RemoteStore({len(self._elements)} elements, sources={sorted(self.sources())})"
