"""Per-layer attribution of one profiled replay, measured from outside.

The layers are the packages under ``src/repro/``.  One ``cProfile`` pass over
a replay is folded by the file each function lives in: a layer's *self time*
is the time spent in its own frames with every callee subtracted — exactly a
span's self time.  *Boundary calls* are the functions other layers enter a
layer through; their cumulative time counts only calls arriving from outside
the boundary's own group, so recursion (``Compare.evaluate`` calling
``Attr.evaluate``) and ``super()`` chains are not counted twice.

cProfile charges every Python call but not the work inside native code, so
shares lean towards call-heavy layers; ``py.profile_overhead_ratio`` reports
how much slower the observed replay was than the unobserved ones.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Any, Callable

__all__ = ["LAYERS", "BOUNDARIES", "profile_call", "fold"]

LAYERS = (
    "query", "nfa", "engine", "backends", "strategies", "utility", "cache",
    "remote", "shedding", "obs", "runtime", "serving", "sim", "events",
    "metrics", "workloads",
)

#: ``<layer>.<function>``: every function of that name in that layer's files.
BOUNDARIES = (
    "engine.process_event",
    "query.evaluate",
    "strategies.on_event_start",
    "strategies.resolve_predicate",
    "strategies.on_run_created",
    "utility.tick",
    "utility.value",
    "utility.on_run_created",
    "cache.get",
    "cache.put",
    "cache.min_utility",
    "remote.submit",
    "remote.deliver_due",
    "remote.flush_batches",
    "runtime.deliver_event",
    "serving.dispatch",
    "sim.advance",
)

_PACKAGE_MARK = os.sep + "repro" + os.sep


def profile_call(fn: Callable[[], Any]) -> tuple[Any, dict]:
    """Run ``fn`` under cProfile; returns its result and the raw stats table."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    return result, pstats.Stats(profiler).stats


def _layer_of(filename: str) -> str | None:
    """The ``repro`` sub-package a frame's file belongs to, if it is a layer."""
    _, mark, rest = filename.rpartition(_PACKAGE_MARK)
    if not mark:
        return None
    layer = rest.split(os.sep, 1)[0]
    return layer if layer in LAYERS else None


def fold(stats: dict, events: int) -> dict[str, float]:
    """Fold a cProfile stats table into per-layer and boundary metrics.

    ``stats`` maps ``(file, line, function)`` to ``(primitive calls, calls,
    self seconds, cumulative seconds, callers)``.  Frames outside the layer
    list — builtins, the standard library, this benchmark — land in ``py``,
    so the shares sum to one.
    """
    self_s = dict.fromkeys(LAYERS + ("py",), 0.0)
    calls = dict.fromkeys(LAYERS + ("py",), 0)
    groups: dict[str, set] = {name: set() for name in BOUNDARIES}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = _layer_of(func[0])
        self_s[layer or "py"] += tt
        calls[layer or "py"] += nc
        boundary = f"{layer}.{func[2]}"
        if boundary in groups:
            groups[boundary].add(func)

    total = sum(self_s.values())
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = self_s[layer] / total
        metrics[f"{layer}.calls_per_event"] = calls[layer] / events
    metrics["py.builtin_share"] = self_s["py"] / total
    metrics["py.calls_per_event"] = calls["py"] / events

    for name, group in groups.items():
        entered = 0
        cum_s = 0.0
        for func in group:
            _cc, nc, _tt, ct, callers = stats[func]
            outside = [v for caller, v in callers.items() if caller not in group]
            if not callers:  # profile root: no caller recorded
                outside = [(nc, nc, 0.0, ct)]
            # Caller rows are (calls, primitive calls, self s, cumulative s).
            entered += sum(v[0] for v in outside)
            cum_s += sum(v[3] for v in outside)
        metrics[f"{name}.calls"] = entered
        metrics[f"{name}.cum_us_per_call"] = cum_s * 1e6 / entered if entered else 0.0
    return metrics
