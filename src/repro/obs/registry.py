"""The metrics registry: counter groups, gauges, and virtual-time histograms.

One :class:`MetricsRegistry` per assembled EIRES instance is the single
export surface for runtime statistics.  A component keeps its counters as
plain attributes of one :class:`CounterGroup`, declared by a ``*_KEYS``
table (``group.hits += 1`` is an attribute add); :meth:`MetricsRegistry.attach`
makes the snapshot read those attributes under ``<prefix>.<key>``, so a
metrics snapshot and the component's own ``as_dict()`` report read the same
numbers and can never disagree.

Metric names are dotted and namespaced by component (``fetch.*``,
``cache.*``, ``transport.*``, ``pipeline.*``); units are virtual
microseconds for all duration-like metrics (see ``docs/observability.md``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable

from repro.metrics.latency import percentiles_of

__all__ = [
    "CounterGroup",
    "FanoutScope",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ScopedRegistry",
    "HISTOGRAM_PERCENTILES",
]

#: The quantile set every histogram snapshot reports.
HISTOGRAM_PERCENTILES = (50, 95, 99)
#: Virtual us of samples a histogram retains, back from its newest one.
HISTOGRAM_WINDOW_US = 1_000_000.0


def _rounded(value: int | float) -> int | float:
    return round(value, 3) if isinstance(value, float) else value


class CounterGroup:
    """The counters of one component, as plain instance attributes.

    ``keys`` is the component's key table, in report order; each key starts
    at ``0`` (``0.0`` if named in ``floats``) and is read and written as an
    ordinary attribute.  ``registry`` attaches the group at construction;
    a component built before its registry exists attaches later.
    """

    def __init__(
        self,
        prefix: str,
        keys: Iterable[str],
        registry: "MetricsRegistry | ScopedRegistry | None" = None,
        floats: Iterable[str] = (),
    ) -> None:
        self.prefix = prefix
        self.keys = tuple(keys)
        for key in self.keys:
            setattr(self, key, 0.0 if key in floats else 0)
        if registry is not None:
            registry.attach(self)

    def as_dict(self) -> dict[str, Any]:
        """Every counter in table order (floats to 3 digits, as snapshots)."""
        return {key: _rounded(getattr(self, key)) for key in self.keys}

    def __repr__(self) -> str:
        inner = ", ".join(f"{key}={value}" for key, value in self.as_dict().items())
        return f"{type(self).__name__}({self.prefix}: {inner})"


class Gauge:
    """A point-in-time numeric reading (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Sampled distribution over a virtual-time window.

    The retained samples are those of the last :data:`HISTOGRAM_WINDOW_US`
    virtual microseconds relative to the most recent observation: old
    samples are discarded as new ones arrive, so long runs report *recent*
    behaviour instead of an all-time average, in bounded memory.  Totals
    (``count``/``total``) always cover the full run regardless of the
    window.  :meth:`snapshot` reports :data:`HISTOGRAM_PERCENTILES`.
    """

    __slots__ = ("name", "count", "total", "_samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self._samples: deque[tuple[float, float]] = deque()

    def observe(self, value: float, t: float = 0.0) -> None:
        """Fold one sample taken at virtual time ``t``."""
        self.count += 1
        self.total += value
        samples = self._samples
        samples.append((t, value))
        horizon = t - HISTOGRAM_WINDOW_US
        while samples[0][0] < horizon:
            samples.popleft()

    def windowed_values(self) -> list[float]:
        """The retained sample values, in arrival order."""
        return [value for _, value in self._samples]

    def mean(self) -> float:
        if not self.count:
            return 0.0
        return self.total / self.count

    def percentiles(self, qs: Iterable[float] = HISTOGRAM_PERCENTILES) -> dict[float, float]:
        """Percentiles over the retained window (all-zero when empty)."""
        return percentiles_of((value for _, value in self._samples), qs)

    def snapshot(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "count": self.count,
            "total": round(self.total, 3),
            "mean": round(self.mean(), 3),
        }
        for q, value in self.percentiles().items():
            data[f"p{int(q)}"] = round(value, 3)
        data["window_us"] = HISTOGRAM_WINDOW_US
        data["windowed_count"] = len(self._samples)
        return data

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean():.2f})"


class MetricsRegistry:
    """Named metrics, created on first use and listed in one snapshot."""

    def __init__(self) -> None:
        # name -> (group, key) for every attached CounterGroup attribute.
        self._attached: dict[str, tuple[CounterGroup, str]] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_fresh(name)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_fresh(name)
            metric = self._histograms[name] = Histogram(name)
        return metric

    def attach(self, group: CounterGroup, scope: str = "") -> None:
        """Export ``group``'s counters as ``<scope><prefix>.<key>``.

        The snapshot reads the group's attributes live; a name already taken
        raises, so two components cannot report under one name.
        """
        for key in group.keys:
            name = f"{scope}{group.prefix}.{key}"
            self._check_fresh(name)
            self._attached[name] = (group, key)

    def _check_fresh(self, name: str) -> None:
        if name in self._attached or name in self._gauges or name in self._histograms:
            raise ValueError(f"metric {name!r} is already registered")

    def names(self) -> list[str]:
        return sorted([*self._attached, *self._gauges, *self._histograms])

    def scoped(self, prefix: str) -> "ScopedRegistry":
        """A view of this registry that prefixes every metric name.

        Multi-query runtimes hand each query session a scope (e.g.
        ``query.ab``) so per-session ``fetch.*`` counters land on distinct
        cells of the *shared* registry instead of colliding.
        """
        return ScopedRegistry(self, prefix)

    def snapshot(self) -> dict[str, Any]:
        """All metrics as one flat, JSON-ready dict (sorted by name)."""
        data: dict[str, Any] = {}
        for name in self.names():
            if name in self._attached:
                group, key = self._attached[name]
                data[name] = _rounded(getattr(group, key))
            elif name in self._gauges:
                data[name] = round(self._gauges[name].value, 3)
            else:
                data[name] = self._histograms[name].snapshot()
        return data

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._attached)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms)"
        )


class ScopedRegistry:
    """A name-prefixing view over a :class:`MetricsRegistry`.

    Metric creation delegates to the root registry with ``<prefix>.`` glued
    onto every name; the root's snapshot is the one export.
    """

    __slots__ = ("_root", "prefix")

    def __init__(self, root: MetricsRegistry, prefix: str) -> None:
        if not prefix:
            raise ValueError("scope prefix must be non-empty")
        self._root = root
        self.prefix = prefix

    @property
    def root(self) -> MetricsRegistry:
        return self._root

    def attach(self, group: CounterGroup) -> None:
        self._root.attach(group, scope=f"{self.prefix}.")

    def gauge(self, name: str) -> Gauge:
        return self._root.gauge(f"{self.prefix}.{name}")

    def histogram(self, name: str) -> Histogram:
        return self._root.histogram(f"{self.prefix}.{name}")

    def scoped(self, prefix: str) -> "ScopedRegistry":
        return ScopedRegistry(self._root, f"{self.prefix}.{prefix}")

    def names(self) -> list[str]:
        """The root-registry names under this scope."""
        marker = f"{self.prefix}."
        return [name for name in self._root.names() if name.startswith(marker)]

    def __repr__(self) -> str:
        return f"ScopedRegistry({self.prefix!r} over {self._root!r})"


class FanoutScope:
    """Scopes of one registry that each export every attached group: a shared
    session's subscribers all read its live counters."""

    __slots__ = ("scopes",)

    def __init__(self, scopes: Iterable[ScopedRegistry]) -> None:
        self.scopes = tuple(scopes)

    def attach(self, group: CounterGroup) -> None:
        for scope in self.scopes:
            scope.attach(group)
