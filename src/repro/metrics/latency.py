"""Match-latency percentile reporting (§7.1, "Measures").

The paper reports the 5th, 25th, 50th, 75th, and 95th percentiles of the
per-match detection latency — the time between the arrival of the last event
of a match and the match's detection; the SLO plane adds the tail p99 on
top.  Each match record carries its own latency (virtual microseconds), so a
run's percentiles are :func:`percentiles_of` its matches' latencies at the
constant quantile set :data:`REPORT_PERCENTILES`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["percentile", "percentiles_of", "REPORT_PERCENTILES"]

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
