"""The utility model for remote data elements (§4, Alg. 2).

Utility combines two measures per data element ``d``:

* **urgent utility** ``UU(d,k)`` (Eq. 3): the number of current partial
  matches that require ``d`` — or an element contained in ``d`` — to process
  the next event, weighted by the monitored transmission latency.  Its run
  index is written on read: a created run waits in a pending set (a drop
  before the read just removes it); a read files every pending run, oldest
  first.  Pending runs are younger than indexed ones, so a read sees exactly
  the undropped runs, each key's in registration order — the eager index.
* **future utility** ``FU(d,k,k')`` (Eq. 4): the sum of the element's
  urgent utilities over the future horizon.  Two components realise it:

  - a *residual-lifetime* term computed exactly from the **live** partial
    matches: a run requiring ``d`` keeps contributing to ``UU(d,i)`` for
    every future ``i`` until its window expires, so its future contribution
    is its remaining window lifetime;
  - the stochastic term of Eq. 6 for partial matches that do not exist yet:
    ``horizon * sum_j #P_j(k) * Pr(j,d,k)``, where ``#P_j`` is the recent
    average number of class-``j`` partial matches and ``Pr(j,d,k)`` the
    probability that one requires ``d`` — both from decayed counters (the
    O(1)-amortised stand-in for Alg. 2's sliding-window counts).

  Since Eq. 4 sums *urgent* utilities, which are latency-weighted, both
  components are weighted by the same monitored latency.

The combined utility ``U = omega*UU + (1-omega)*FU`` (Eq. 5) is evaluated
with different weights by the fetch strategies (``omega_fetch``) and the
cost-based cache (``omega_cache``) — Fig. 9's sensitivity experiment sweeps
both.

Requirement counts propagate along the part-of hierarchy: a run requiring a
child element also credits every container, implementing the ``rho*`` terms
of Eq. 3 and Eq. 6.
"""

from __future__ import annotations

from typing import Sequence

from repro.nfa.automaton import Automaton, State
from repro.nfa.run import Run
from repro.remote.element import DataKey
from repro.remote.monitor import LatencyMonitor
from repro.remote.store import RemoteStore
from repro.utility.noise import NoiseModel

__all__ = ["UtilityModel", "required_keys"]

_DECAY = 0.5
_DECAY_INTERVAL = 64  # ticks between two decays of the Alg. 2 counters
# Eq. 6's (k'-k) horizon in events under a TIME window (a COUNT window's
# horizon is its own length).
TIME_WINDOW_HORIZON_EVENTS = 256.0


def required_keys(run: Run, include_future_states: bool = False) -> tuple[DataKey, ...]:
    """The remote keys ``D(p, k+1)`` a run may need for its next event.

    For every remote site on the run state's outgoing transitions whose
    lookup key is already derivable from the run's bound events, the
    concrete ``(source, key)`` is produced.  Sites keyed by the upcoming
    input event are unknowable and therefore excluded (they surface through
    lazy evaluation instead).  With ``include_future_states`` the walk
    descends into deeper states as well, covering sites whose key is bound
    now but whose need materialises several transitions later.
    """
    keys: list[DataKey] = []
    pending = list(run.state.transitions)
    env = run.env
    while pending:
        transition = pending.pop()
        for site in transition.sites:
            if site.ref.key_binding in env:
                keys.append(site.ref.concrete_key(env))
        if include_future_states:
            pending.extend(transition.target.transitions)
    return tuple(keys)


def _registered_sites(state: State) -> tuple[tuple[str, str, str], ...]:
    """``(source, key binding, key attribute)`` of every remote site at or
    below ``state`` whose key a run there has bound, in the order
    :func:`required_keys` visits them with ``include_future_states`` — the
    per-state part of that walk, done once.  Every run at a state binds
    exactly the state's ``path_bindings``."""
    bound = state.path_bindings
    sites: list[tuple[str, str, str]] = []
    pending = list(state.transitions)
    while pending:
        transition = pending.pop()
        for site in transition.sites:
            if site.ref.key_binding in bound:
                sites.append((site.ref.source, site.ref.key_binding, site.ref.key_expr.attr))
        pending.extend(transition.target.transitions)
    return tuple(sites)


class UtilityModel:
    """Utility estimates for data elements, kept from run notifications."""

    def __init__(
        self,
        automaton: Automaton,
        store: RemoteStore,
        latency_monitor: LatencyMonitor,
        noise: NoiseModel | None = None,
    ) -> None:
        self._automaton = automaton
        self._store = store
        self._monitor = latency_monitor
        self._noise = noise if noise is not None else NoiseModel(0.0)
        # Eq. 6's (k'-k) horizon: estimate utility up to one window ahead.
        window = automaton.window
        self._horizon = (
            float(window.value) if window.kind == "count" else TIME_WINDOW_HORIZON_EVENTS
        )
        self._state_sites = [_registered_sites(state) for state in automaton.states]
        # UU: live partial matches requiring each key (Eq. 3 counts), with
        # the run's window anchor kept for residual-lifetime estimation.
        self._uu_runs: dict[DataKey, dict[int, tuple[float, int]]] = {}
        self._unindexed: dict[int, Run] = {}  # registered since the last read
        # Alg. 2 state: tranKey(d, j) and tranClass(j) as decayed counters.
        self._tran_key: dict[int, dict[DataKey, float]] = {}
        self._tran_class: dict[int, float] = {}
        # #P_j(k): EWMA of the per-class live-run counts, by state index.
        self._class_counts = [0.0] * automaton.n_states
        self._events_seen = 0
        self._now = 0.0

    # -- run lifecycle (driven by the strategy's engine callbacks) ------------
    def on_runs_created(self, runs: Sequence[Run]) -> None:
        """Alg. 2 registration of a batch of new runs, in run order.

        Each run counts every remote key it can already name, including
        needs that materialise several transitions ahead: a partial match at
        a lookahead class *will* require the element once it reaches the
        evaluating class, and an element prefetched on its behalf must not
        look worthless to the cache in the meantime.  (The strict next-event
        D(p, k+1) would assign zero utility to every fresh prefetch and make
        the cost-based policy evict them first.)  The keys are
        ``required_keys(run, include_future_states=True)`` with the automaton
        walk precomputed per state and the attributes read directly.
        """
        state_sites = self._state_sites
        tran_class = self._tran_class
        tran_key = self._tran_key
        unindexed = self._unindexed
        for run in runs:
            class_index = run.state.index
            keys: tuple[DataKey, ...] = ()
            sites = state_sites[class_index]
            if sites:
                env = run.env
                try:
                    for source, name, attr in sites:
                        keys += ((source, env[name].attrs[attr]),)
                except KeyError:
                    keys = required_keys(run, include_future_states=True)  # raises, worded
                run.required_keys = keys
            tran_class[class_index] = tran_class.get(class_index, 0.0) + 1.0
            if not keys:
                continue
            per_class = tran_key.get(class_index)
            if per_class is None:
                per_class = tran_key[class_index] = {}
            for key in keys:
                per_class[key] = per_class.get(key, 0.0) + 1.0
            unindexed[run.run_id] = run

    def on_runs_dropped(self, runs: Sequence[Run]) -> None:
        """Forget dropped runs: unfiled ones leave the pending set, filed
        ones every index entry they were filed under."""
        pending = self._unindexed.pop
        uu_runs = self._uu_runs
        lookup = self._store.lookup
        for run in runs:
            if pending(run.run_id, None) is not None:
                continue
            for key in run.required_keys:
                for ancestor_key in lookup(key).ancestor_keys():
                    filed = uu_runs.get(ancestor_key)
                    if filed is None:
                        continue
                    filed.pop(run.run_id, None)
                    if not filed:
                        del uu_runs[ancestor_key]

    def tick(self, now: float, counts: Sequence[int]) -> None:
        """Periodic refresh: advance time, update #P_j from ``counts``, decay counters."""
        self._now = now
        self._events_seen += 1
        smoothed = self._class_counts
        if self._events_seen == 1:
            smoothed = counts  # previous = current on the first tick
        self._class_counts = [0.9 * s + 0.1 * c for s, c in zip(smoothed, counts)]
        if self._events_seen % _DECAY_INTERVAL == 0:
            tran_key = self._tran_key
            for class_index, per_class in tran_key.items():
                tran_key[class_index] = {
                    key: decayed
                    for key, weight in per_class.items()
                    if not (decayed := weight * _DECAY) < 0.05
                }
            for class_index in self._tran_class:
                self._tran_class[class_index] *= _DECAY

    # -- measures ----------------------------------------------------------------
    def terms(self, key: DataKey) -> tuple[float, float]:
        """``(UU(d,k), FU-hat(d,k,k+horizon))``, both ``>= 0.0``, in one pass.

        ``UU`` (Eq. 3) is the latency-weighted count of live runs requiring
        ``d``.  ``FU-hat`` (Eq. 6, latency-weighted, see above) adds to the
        stochastic term the residual lifetime of those runs: a run anchored
        at (t0, k0) stays able to require the element until its window
        closes, and the remaining fraction of the window, scaled to events,
        is its exact contribution to the future urgent utilities of Eq. 4.
        """
        if self._unindexed:  # file the runs registered since the last read
            uu_runs = self._uu_runs
            for run_id, run in self._unindexed.items():
                anchor = (run.first_t, run.first_seq)
                for required in run.required_keys:
                    for ancestor_key in self._store.lookup(required).ancestor_keys():
                        uu_runs.setdefault(ancestor_key, {})[run_id] = anchor
            self._unindexed.clear()
        runs = self._uu_runs.get(key)
        stochastic = residual = 0.0
        if not (self._noise.active and self._noise.flip(("fu", key), self._now)):
            for class_index, per_class in self._tran_key.items():
                weight = per_class.get(key)
                if not weight:
                    continue
                class_total = self._tran_class.get(class_index, 0.0)
                if class_total <= 0:
                    continue
                probability = min(weight / class_total, 1.0)
                stochastic += self._class_counts[class_index] * probability
            if runs:
                # Window length expressed in events: count windows carry it
                # directly, time windows are scaled through the
                # (event-denominated) horizon.
                window = self._automaton.window
                span = window.value
                if window.kind == "count":
                    seen = self._events_seen
                    for _, first_seq in runs.values():
                        residual += max(0.0, 1.0 - (seen - first_seq) / span) * span
                else:
                    now = self._now
                    horizon = self._horizon
                    for first_t, _ in runs.values():
                        residual += max(0.0, 1.0 - (now - first_t) / span) * horizon
        if not runs and not stochastic:
            return 0.0, 0.0
        latency = self._monitor.estimate(key)
        urgent = len(runs) * latency if runs else 0.0
        if not stochastic and not residual:
            return urgent, 0.0
        return urgent, (self._horizon * stochastic + residual) * latency

    def urgent_utility(self, key: DataKey) -> float:
        """``UU(d,k)``: latency-weighted count of runs requiring ``d``."""
        return self.terms(key)[0]

    def future_utility(self, key: DataKey) -> float:
        """``FU-hat(d,k,k+horizon)`` per Eq. 6 (latency-weighted, see above)."""
        return self.terms(key)[1]

    def value(self, key: DataKey, omega: float) -> float:
        """Combined utility ``U(d) = omega*UU + (1-omega)*FU`` (Eq. 5)."""
        if not 0.0 <= omega <= 1.0:
            raise ValueError(f"omega must be in [0, 1]: {omega}")
        urgent, future = self.terms(key)
        return omega * urgent + (1.0 - omega) * future

    def class_count(self, state_index: int) -> float:
        """``#P_j(k)``: smoothed number of live partial matches of a class."""
        return self._class_counts[state_index]

    def __repr__(self) -> str:
        return (
            f"UtilityModel({len(self._uu_runs)} keys, {len(self._unindexed)} runs unindexed, "
            f"{sum(len(v) for v in self._tran_key.values())} tran-key counters)"
        )
