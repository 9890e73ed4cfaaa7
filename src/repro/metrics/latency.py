"""Match-latency collection and percentile reporting (§7.1, "Measures").

The paper reports the 5th, 25th, 50th, 75th, and 95th percentiles of the
per-match detection latency — the time between the arrival of the last event
of a match and the match's detection; the SLO plane adds the tail p99 on
top.  :class:`LatencyCollector` accumulates per-match latencies (virtual
microseconds) and computes those percentiles, optionally after exponential
smoothing over a sliding window as the paper's latency definition ``l(k)``
allows.  The reported quantile set is the constant :data:`REPORT_PERCENTILES`;
:meth:`LatencyCollector.percentiles` takes any other set explicitly.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["LatencyCollector", "percentile", "percentiles_of", "REPORT_PERCENTILES"]

REPORT_PERCENTILES = (5, 25, 50, 75, 95, 99)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of pre-sorted ``sorted_values``.

    Matches ``numpy.percentile``'s default method, without the dependency in
    the hot path.
    """
    if not sorted_values:
        raise ValueError("cannot take a percentile of no data")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (len(sorted_values) - 1) * q / 100.0
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return sorted_values[lower]
    fraction = rank - lower
    lo, hi = sorted_values[lower], sorted_values[upper]
    # lo + f*(hi-lo) rather than lo*(1-f) + hi*f: the latter can round to
    # lo + 1ulp even when lo == hi, breaking monotonicity in q.  Clamping to
    # the bracket keeps rounding from ever leaving [lo, hi].
    return min(max(lo + fraction * (hi - lo), lo), hi)


def percentiles_of(values: Iterable[float], qs: Iterable[float]) -> dict[float, float]:
    """Each ``q`` of ``qs`` over unsorted ``values``; all-zero when empty.

    Every ``q`` is range-checked first, so a bad quantile raises whether or
    not there is data.
    """
    qs = tuple(qs)
    for q in qs:
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    if not ordered:
        return {q: 0.0 for q in qs}
    return {q: percentile(ordered, q) for q in qs}


class LatencyCollector:
    """Accumulates per-match latencies and summarises them.

    ``smoothing_window`` > 1 replaces each sample by the mean of the last
    ``w`` samples before percentile computation, implementing the paper's
    optional smoothing; the default of 1 reports raw per-match latencies.
    """

    def __init__(self, smoothing_window: int = 1) -> None:
        if smoothing_window < 1:
            raise ValueError(f"smoothing window must be >= 1: {smoothing_window}")
        self._smoothing_window = smoothing_window
        self._samples: list[float] = []

    def record(self, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"latency cannot be negative: {latency}")
        self._samples.append(latency)

    def record_all(self, latencies: Iterable[float]) -> None:
        for latency in latencies:
            self.record(latency)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> list[float]:
        return list(self._samples)

    def _effective_samples(self) -> list[float]:
        if self._smoothing_window == 1 or len(self._samples) < 2:
            return list(self._samples)
        window = self._smoothing_window
        smoothed = []
        running = 0.0
        for index, value in enumerate(self._samples):
            running += value
            if index >= window:
                running -= self._samples[index - window]
            smoothed.append(running / min(index + 1, window))
        return smoothed

    def percentiles(self, qs: Sequence[float] = REPORT_PERCENTILES) -> dict[float, float]:
        """Percentile summary; empty collectors report all-zero (no matches)."""
        return percentiles_of(self._effective_samples(), qs)

    def median(self) -> float:
        return self.percentiles((50,))[50]

    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def __repr__(self) -> str:
        if not self._samples:
            return "LatencyCollector(empty)"
        summary = self.percentiles()
        inner = ", ".join(f"p{int(q)}={v:.1f}" for q, v in summary.items())
        return f"LatencyCollector(n={len(self._samples)}, {inner})"
