"""Remote data elements and the part-of hierarchy ``rho`` (§2.1).

A data element is a key--value pair (or relational tuple) held by a remote
source.  Keys are ``(source, key)`` pairs: the *source* names the logical
remote table/service a query's ``REMOTE[...]`` reference addresses, and the
*key* is the concrete lookup value taken from an event's payload.

Data models are frequently hierarchical (the fraud scenario's pre-authorized
clients can be fetched per credit card, per user, or per organization), so
elements may declare a *container*: ``rho(child) = parent`` means the child
is contained in the parent.  The size of a container is the sum of the sizes
of its parts; fetching a container makes all of its parts available.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator

__all__ = ["DataKey", "DataElement"]

DataKey = tuple[str, Hashable]


class DataElement:
    """A single remote data element.

    ``size`` is the element's own (leaf) size in abstract units; for
    containers, :meth:`total_size` aggregates the parts, matching the
    paper's ``|d| = sum of contained elements``.
    """

    __slots__ = ("key", "value", "own_size", "parent", "children", "_ancestor_keys", "_total_size")

    def __init__(
        self,
        key: DataKey,
        value: Any,
        size: int = 1,
        parent: "DataElement | None" = None,
    ) -> None:
        if size < 0:
            raise ValueError(f"element size must be non-negative: {size}")
        self.key = key
        self.value = value
        self.own_size = size
        self.parent = None
        self.children: list[DataElement] = []
        # Memos of ancestor_keys() / total_size(); add_child invalidates them.
        self._ancestor_keys: tuple[DataKey, ...] | None = None
        self._total_size: int | None = None
        if parent is not None:
            parent.add_child(self)

    @property
    def source(self) -> str:
        return self.key[0]

    def add_child(self, child: "DataElement") -> None:
        """Record that ``child`` is contained in this element (rho(child)=self)."""
        if child.parent is not None:
            raise ValueError(f"element {child.key} already has a container")
        ancestor: DataElement | None = self
        while ancestor is not None:
            if ancestor is child:
                raise ValueError(f"containment cycle through {child.key}")
            ancestor = ancestor.parent
        child.parent = self
        self.children.append(child)
        for node in child.descendants():  # their containment chains grew
            node._ancestor_keys = None
        for node in self.ancestors():  # their sizes grew
            node._total_size = None

    def ancestors(self) -> Iterator["DataElement"]:
        """Yield this element and every container above it (reflexive rho*)."""
        node: DataElement | None = self
        while node is not None:
            yield node
            node = node.parent

    def ancestor_keys(self) -> tuple[DataKey, ...]:
        """Keys of :meth:`ancestors`, nearest first (memoised)."""
        keys = self._ancestor_keys
        if keys is None:
            keys = self._ancestor_keys = tuple(node.key for node in self.ancestors())
        return keys

    def descendants(self) -> Iterator["DataElement"]:
        """Yield this element and everything contained in it, depth-first."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def total_size(self) -> int:
        """``|d|``: own size plus the sizes of all contained elements (memoised)."""
        size = self._total_size
        if size is None:
            size = self._total_size = sum(node.own_size for node in self.descendants())
        return size

    def __repr__(self) -> str:
        return f"DataElement(key={self.key!r}, size={self.own_size})"
