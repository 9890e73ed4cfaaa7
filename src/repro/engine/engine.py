"""The CEP evaluation engine: the function ``f_Q`` of Eq. 1.

Processing one input event against the current partial matches produces new
partial matches and complete matches.  All work is charged against the
virtual clock (see :class:`~repro.engine.interface.CostModel`), so detection
latency is observable exactly as §2.2 defines it: the time between the
arrival of the last event of a match and its detection, including queueing
behind a busy engine and stalls on remote data.

Selection policies (§2.1)
-------------------------
*Greedy* (skip-till-any-match): a matching input event splits a partial
match — the extension and the unchanged original are both kept.
*Non-greedy* (skip-till-next-match): a matching event extends the partial
match in place; only non-matching events are skipped.

When a remote predicate cannot be decided locally, the strategy may postpone
it (§5.2).  Under the greedy policy the original is kept anyway and only the
extension carries the obligation.  Under the non-greedy policy the engine
cannot yet know whether the event should have been consumed, so it splits:
the extension carries ``p`` and the retained original carries ``NOT p``;
once the remote data decides ``p``, exactly one branch survives, keeping the
match set identical to an engine that had the data all along.

Two ways to step a bucket
-------------------------
Partial matches live in buckets by (state, partition), in creation order —
which is the order their guards are charged in, so it is never changed.  A
bucket whose dispatch entry is one transition without remote predicates, and
whose runs carry no obligations, needs no strategy decision between two
guards: ``_step_bucket`` runs the transition's generated loop over the whole
bucket (:mod:`repro.query.guards`) and replays its ordered outcomes, each at
its own virtual time, building matches and extensions from one environment
copy and moving the clock only where a drop is reported.  Every other bucket
goes through ``_step_runs``, one hand-written loop that consults the strategy
between guards; the two are bit-for-bit the same computation.

The strategy hears about partial matches in batches — ``on_runs_created``
once per event, ``on_runs_dropped`` once per sweep, flush or shedding pass —
except where a drop happens between two guards, which is reported at that
moment (the trace stamps it with the clock it happened at).
"""

from __future__ import annotations

from heapq import heappop, heappush, nsmallest
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Mapping

from repro.engine.interface import (
    ENGINE_COUNTER_KEYS,
    POSTPONED,
    CostModel,
    MatchRecord,
    StrategyProtocol,
)
from repro.events.event import Event
from repro.nfa.automaton import Automaton, Transition
from repro.nfa.run import Obligation, Run
from repro.obs.registry import CounterGroup
from repro.query.ast import Window
from repro.sim.clock import VirtualClock

__all__ = ["Engine", "GREEDY", "NON_GREEDY", "check_policy"]

GREEDY = "greedy"
NON_GREEDY = "non_greedy"

# What a root transition's guard sees as the events bound so far.
_NO_BINDINGS: Mapping[str, Event] = MappingProxyType({})

# Events between two expiry sweeps (see :meth:`Engine._expire`).
EXPIRY_INTERVAL_EVENTS = 16

_event_time = attrgetter("t")


def check_policy(policy: str) -> None:
    """The selection-policy rule, applied at construction and by the config."""
    if policy not in (GREEDY, NON_GREEDY):
        raise ValueError(f"unknown selection policy {policy!r}; "
                         f"policy must be {GREEDY!r} or {NON_GREEDY!r}")


_UNRESOLVED = "unresolved"
_SATISFIED = "satisfied"
_VIOLATED = "violated"


class Engine:
    """Automata-based pattern matcher with pluggable remote-data strategy."""

    def __init__(
        self,
        automaton: Automaton,
        clock: VirtualClock,
        cost_model: CostModel | None = None,
        policy: str = GREEDY,
    ) -> None:
        check_policy(policy)
        self.automaton = automaton
        self.clock = clock
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.policy = policy
        self.stats = CounterGroup("engine", ENGINE_COUNTER_KEYS)
        # Active partial matches, grouped by state index and — when the query
        # correlates via SAME[attr] — by that attribute's value.  Partition
        # indexing means an input event only visits runs it could actually
        # extend; runs of other partitions are never touched (this is the
        # standard partitioning optimisation of SASE-style engines).
        self._partition_attr = automaton.partition_attr
        self._runs: dict[int, dict[object, list[Run]]] = {}
        self._active = 0
        # Live runs per state index (#P_j): every site that changes _active
        # changes this too, so the per-event utility tick never recounts.
        self._state_counts = [0] * automaton.n_states
        # Transitions indexed by (state index, event type) for fast dispatch.
        self._dispatch: dict[tuple[int, str], list[Transition]] = {}
        for transition in automaton.transitions:
            key = (transition.source.index, transition.event_type)
            self._dispatch.setdefault(key, []).append(transition)
        # Dispatch entries that are one local-only transition: their buckets
        # are stepped by the transition's generated loop (_step_bucket).
        self._bucket_transitions = {
            key: transitions[0]
            for key, transitions in self._dispatch.items()
            if len(transitions) == 1 and transitions[0].bucket_loop is not None
        }
        # Window.admits, inlined where the engine tests it once per run.
        self._time_window = automaton.window.kind == Window.TIME
        self._window_value = automaton.window.value
        # Per partition, a min-heap of the window anchors (first_t or
        # first_seq, whichever the window measures) of the families started
        # there.  All runs of a family share its anchor and its partition, so
        # the expiry sweep only scans partitions whose oldest anchor closed.
        self._anchors: dict[object, list] = {}

    # -- public surface ------------------------------------------------------
    @property
    def active_runs(self) -> int:
        return self._active

    @property
    def state_counts(self) -> list[int]:
        """Live partial matches by state index (#P_j); the engine's own list."""
        return self._state_counts

    def iter_runs(self):
        for buckets in self._runs.values():
            for runs in buckets.values():
                yield from runs

    def extendable_runs(self, event: Event) -> list[tuple[int, int]]:
        """``(state index, matching-partition run count)`` pairs for ``event``.

        The classes whose live partial matches the event's type can advance,
        with how many runs sit in the event's partition bucket — the inputs
        of the eSPICE-style event-utility score (load shedding) without
        touching any run.  States are reported in index order.
        """
        event_type = event.event_type
        partition = (
            event.attrs.get(self._partition_attr) if self._partition_attr is not None else None
        )
        pairs: list[tuple[int, int]] = []
        for state_index in sorted(self._runs):
            if (state_index, event_type) not in self._dispatch:
                continue
            runs = self._runs[state_index].get(partition)
            if runs:
                pairs.append((state_index, len(runs)))
        return pairs

    def process_event(self, event: Event, strategy: StrategyProtocol) -> list[MatchRecord]:
        """Advance the evaluation by one input event (the ``f_Q`` step)."""
        # The engine writes the clock's slot directly: what it adds is a
        # CostModel cost (validated non-negative) or a remote predicate's
        # eval_cost (refused negative when compiled), and a guard's returned
        # time is published by a compare — advance's checks could not fire.
        self.clock.now += self.cost_model.base_event_cost
        self.stats.events_processed += 1
        # Expiry is lazy: stepping a bucket drops the expired runs it touches,
        # and a sweep every few events reclaims runs no event type hits.
        if self.stats.events_processed % EXPIRY_INTERVAL_EVENTS == 0:
            self._expire(event, strategy)

        matches: list[MatchRecord] = []
        new_runs: list[Run] = []
        event_type = event.event_type
        partition = (
            event.attrs.get(self._partition_attr) if self._partition_attr is not None else None
        )

        for state_index in list(self._runs):
            key = (state_index, event_type)
            transitions = self._dispatch.get(key)
            if not transitions:
                continue
            buckets = self._runs[state_index]
            runs = buckets.get(partition)
            if not runs:
                continue
            survivors = None
            transition = self._bucket_transitions.get(key)
            if transition is not None:
                survivors = self._step_bucket(runs, transition, event, strategy, new_runs, matches)
            if survivors is None:
                survivors = self._step_runs(runs, transitions, event, strategy, new_runs, matches)
            dropped = len(runs) - len(survivors)
            if not dropped:
                continue
            self._active -= dropped
            self._state_counts[state_index] -= dropped
            if survivors:
                buckets[partition] = survivors
            else:
                del buckets[partition]

        # Fresh runs from the root: the input event may start a new match.
        root_transitions = self._dispatch.get((0, event_type))
        if root_transitions:
            self._start_runs(root_transitions, event, strategy, new_runs, matches)

        # Every new run binds this event, and SAME[attr] makes all of a run's
        # events agree on the partition attribute: they join its partition.
        if new_runs:
            self._add_runs(new_runs, partition, strategy)
        if self._active > self.stats.peak_active_runs:
            self.stats.peak_active_runs = self._active
        self.stats.matches_emitted += len(matches)
        return matches

    def flush(self, strategy: StrategyProtocol) -> None:
        """Drop all remaining partial matches (end of stream)."""
        remaining = list(self.iter_runs())
        if remaining:
            strategy.on_runs_dropped(remaining, "flushed")
        self._runs.clear()
        self._anchors.clear()
        self._active = 0
        self._state_counts = [0] * len(self._state_counts)

    # -- run lifecycle ---------------------------------------------------------
    def _add_runs(self, runs: list[Run], partition: object, strategy: StrategyProtocol) -> None:
        """File the runs one event created, then tell the strategy once.

        Every run a caller adds passes through here, so a family's window
        anchor enters the sweep's index with its root run — the run that
        binds a single event — and no family can start unseen.
        """
        table = self._runs
        counts = self._state_counts
        state_index = -1
        for run in runs:
            index = run.state.index
            if index != state_index:  # runs mostly arrive grouped by target state
                state_index = index
                bucket = table.setdefault(index, {}).setdefault(partition, [])
            bucket.append(run)
            counts[index] += 1
            if run.last_seq == run.first_seq:
                anchor = run.first_t if self._time_window else run.first_seq
                heappush(self._anchors.setdefault(partition, []), anchor)
        self._active += len(runs)
        self.stats.runs_created += len(runs)
        clock = self.clock
        before = clock.now
        strategy.on_runs_created(runs)
        # One call may stand for the per-run calls it replaced only because
        # registration and prefetch issue are free in virtual time.
        assert clock.now == before, "on_runs_created advanced the clock"

    def _expire(self, event: Event, strategy: StrategyProtocol) -> None:
        """Drop runs whose window can no longer admit the current event.

        Buckets hold runs in creation order, not start order — under the
        greedy policy extensions of different families interleave — so the
        expired runs of a bucket are not a prefix: every run of a scanned
        bucket is tested, with ``Window.admits`` inlined so the sweep makes
        no call per run.  Which buckets to scan is what the anchor heaps
        answer.  Float subtraction is monotone, so if a partition's oldest
        anchor is still admitted every younger one is too, and with it every
        run of the partition; only a partition that pops an anchor is
        scanned.  Anchors of families already consumed or shed pop like any
        other — at worst a scan that finds nothing.
        """
        value = self._window_value
        t, seq = event.t, event.seq
        at = t if self._time_window else seq
        closed = set()
        for partition in list(self._anchors):
            anchors = self._anchors[partition]
            # The time window's form; on a count window's integers it is the
            # same test as ``seq - first_seq > value``.
            while anchors and not at - anchors[0] <= value:
                heappop(anchors)
                closed.add(partition)
            if not anchors:
                del self._anchors[partition]
        if not closed:
            return
        dropped: list[Run] = []
        for state_index, buckets in self._runs.items():
            for partition in [partition for partition in buckets if partition in closed]:
                runs = buckets[partition]
                if self._time_window:
                    expired = [run for run in runs if not t - run.first_t <= value]
                else:
                    expired = [run for run in runs if seq - run.first_seq > value]
                if not expired:
                    continue
                self._state_counts[state_index] -= len(expired)
                if len(expired) == len(runs):
                    del buckets[partition]
                else:
                    gone = set(expired)
                    buckets[partition] = [run for run in runs if run not in gone]
                dropped += expired
        if dropped:
            self.stats.runs_expired += len(dropped)
            self._active -= len(dropped)
            strategy.on_runs_dropped(dropped, "expired")

    def shed_lowest(
        self,
        count: int,
        score: Callable[[Run], float],
        strategy: StrategyProtocol,
        reason: str = "shed",
    ) -> int:
        """Batch-evict the ``count`` lowest-scoring runs; returns the number shed.

        One pass collects ``(score, run_id)`` over every live run and a heap
        selects the victims, so shedding N runs costs one sweep plus
        O(runs log N) — not N full scans of the state×partition table.  Ties
        break on ``run_id`` (creation order), making the victim set a pure
        function of engine state.  Victims are charged to ``stats.shed_runs``
        and reported to the strategy under ``reason``, in ascending score
        order.
        """
        if count <= 0 or not self._active:
            return 0
        scored: list[tuple[float, int, int, object, Run]] = []
        for state_index, buckets in self._runs.items():
            for partition, runs in buckets.items():
                for run in runs:
                    scored.append((score(run), run.run_id, state_index, partition, run))
        # run_id is unique, so comparisons never reach the partition object.
        victims = nsmallest(count, scored)
        doomed: dict[tuple[int, object], set[int]] = {}
        for _, run_id, state_index, partition, _run in victims:
            doomed.setdefault((state_index, partition), set()).add(run_id)
        for (state_index, partition), run_ids in doomed.items():
            buckets = self._runs[state_index]
            survivors = [run for run in buckets[partition] if run.run_id not in run_ids]
            if survivors:
                buckets[partition] = survivors
            else:
                del buckets[partition]
                if not buckets:
                    del self._runs[state_index]
        for _, _, state_index, _, _run in victims:
            self._state_counts[state_index] -= 1
        self._active -= len(victims)
        self.stats.shed_runs += len(victims)
        strategy.on_runs_dropped([victim[4] for victim in victims], reason)
        return len(victims)

    # -- guard evaluation --------------------------------------------------------
    def _step_bucket(
        self,
        runs: list[Run],
        transition: Transition,
        event: Event,
        strategy: StrategyProtocol,
        new_runs: list[Run],
        matches: list[MatchRecord],
    ) -> list[Run] | None:
        """Step a whole bucket through ``transition``'s generated loop.

        Returns the surviving runs, in order — or None, with nothing
        published, when the bucket needs ``_step_runs``: a run carries
        obligations, or the loop raised (``_step_runs`` then raises the
        descriptive error, or returns the right answer).

        The loop only computes; its ordered outcomes are replayed here, each
        at its own time ``at``.  A pass builds the extension's environment
        once and from it the match (a final target) and the live run (a
        target with transitions) in place: no ``Run`` for a leaf final.
        ``detected_at`` and spans are ``at``, and the clock is published
        only before a drop, whose trace record reads it.  That
        is what the per-run path shows them because nothing between two
        guards of such a bucket charges the clock: the transition has no
        remote predicates and no run carries an obligation.
        """
        clock = self.clock
        tally = strategy.guard_tally(transition)
        try:
            result = transition.bucket_loop(
                runs,
                event,
                clock.now,
                self.cost_model.per_guard_cost,
                self._window_value,
                tally.evaluations,
                tally.passes,
            )
        except Exception:
            return None
        if result is None:
            return None
        now, charged, tally.evaluations, tally.passes, outcomes = result
        stats = self.stats
        consume = self.policy != GREEDY
        target, binding = transition.target, transition.binding
        final, live = target.is_final, bool(target.transitions)
        spans = getattr(strategy, "spans", None)
        expired = 0
        gone: set[Run] = set()
        for run, at, passed in outcomes:
            if passed:
                env = dict(run.env)
                env[binding] = event
                if final:
                    last_event_t = max(map(_event_time, env.values()))
                    span = spans.capture(last_event_t, at) if spans is not None else None
                    matches.append(MatchRecord(env, last_event_t, at, 0.0, span))
                if live:
                    new_runs.append(Run(target, env, run.first_t, run.first_seq, event.seq, ()))
                if not consume:
                    continue
                stats.runs_consumed += 1
                reason = "consumed"
            else:
                expired += 1
                reason = "expired"
            if at > clock.now:
                clock.now = at
            strategy.on_runs_dropped((run,), reason)
            gone.add(run)
        if now > clock.now:
            clock.now = now
        stats.runs_expired += expired
        stats.guard_evaluations += len(runs) - expired
        stats.predicate_evaluations += charged
        if not gone:
            return runs
        return [run for run in runs if run not in gone]

    def _step_runs(
        self,
        runs: list[Run],
        transitions: list[Transition],
        event: Event,
        strategy: StrategyProtocol,
        new_runs: list[Run],
        matches: list[MatchRecord],
    ) -> list[Run]:
        """Step a bucket run by run through every type-matching transition.

        The path for buckets that need the strategy between two guards:
        remote predicates to decide, obligations to re-check.  Returns the
        surviving runs, in order.  Per run it is ``_step_bucket``'s generated
        loop, statement for statement — and the rate tallies are written
        straight onto the strategy's cell, because a postponement decision
        taken between two guards reads them.
        """
        clock = self.clock
        stats = self.stats
        guard_cost = self.cost_model.per_guard_cost
        window = self._window_value
        time_window = self._time_window
        at = event.t if time_window else event.seq
        consume = self.policy != GREEDY
        guarded = [(transition, strategy.guard_tally(transition)) for transition in transitions]
        survivors: list[Run] = []
        for run in runs:
            # Window.admits, inlined and negated as the generated loop does it.
            if (not at - run.first_t <= window) if time_window else (at - run.first_seq > window):
                stats.runs_expired += 1
                strategy.on_runs_dropped((run,), "expired")
                continue
            # First give pending obligations a chance to resolve cheaply: data
            # may have arrived in the cache since the run was last touched.
            if (
                run.obligations
                and self._check_obligations(run, strategy, blocking=False) is _VIOLATED
            ):
                stats.runs_failed_obligation += 1
                strategy.on_runs_dropped((run,), "obligation_failed")
                continue

            definite_extension = False
            negated_groups: list[Obligation] = []
            env = run.env
            for transition, tally in guarded:
                # ``env`` holds the events bound so far — without ``event``:
                # the compiled guard reads the input event from its own
                # argument, so only guards that pass pay for a copy.  The
                # guard accumulates its predicate charges on a local; one
                # compare on the clock's slot publishes them.
                charged, passed, now = transition.guard(env, event, clock.now + guard_cost)
                if now > clock.now:
                    clock.now = now
                stats.guard_evaluations += 1
                stats.predicate_evaluations += charged
                tally.evaluations += 1.0
                if not passed:
                    continue
                tally.passes += 1.0
                bound = dict(env)
                bound[transition.binding] = event
                obligations = self._resolve_remote(transition, run, bound, strategy)
                if obligations is None:
                    continue
                extension = Run(
                    transition.target, bound, run.first_t, run.first_seq, event.seq,
                    run.obligations + obligations,
                )
                if not obligations:
                    definite_extension = True
                elif consume:
                    (postponed,) = obligations
                    negated_groups.append(
                        Obligation(
                            postponed.predicates,
                            negated=True,
                            issued_at=clock.now,
                            env=bound,
                            origin=transition,
                            ell_estimate=postponed.ell_estimate,
                        )
                    )
                self._admit_extension(extension, strategy, new_runs, matches)

            if consume:
                # Non-greedy: a definite extension consumes the original; a
                # conditional one splits (original survives under NOT(p)).
                if definite_extension:
                    stats.runs_consumed += 1
                    strategy.on_runs_dropped((run,), "consumed")
                    continue
                if negated_groups:
                    run.add_obligations(tuple(negated_groups))
            survivors.append(run)
        return survivors

    def _resolve_remote(
        self,
        transition: Transition,
        run: Run | None,
        env: Mapping[str, Event],
        strategy: StrategyProtocol,
    ) -> tuple[Obligation, ...] | None:
        """Finish a guard whose local phase passed.

        The strategy decides each remote predicate (fetch, cache hit, or
        postpone) against ``env``, the bound events including the input
        event; ``run`` is None at a root transition.  Returns None when one
        is false; otherwise the obligations the new run starts with — the
        predicates that were postponed, as one group, or none (a definite
        pass).
        """
        clock = self.clock
        postponed = []
        for predicate in transition.remote_predicates:
            outcome = strategy.resolve_predicate(transition, predicate, run, env)
            if outcome is POSTPONED:
                postponed.append(predicate)
                continue
            self.stats.predicate_evaluations += 1
            clock.now += predicate.eval_cost
            if not outcome:
                return None
        if not postponed:
            return ()
        return (
            Obligation(
                tuple(postponed),
                negated=False,
                issued_at=clock.now,
                env=env,
                origin=transition,
                # L2 re-derives succ from the estimate the decision was made
                # with; without it the run blocks at the very next class.
                ell_estimate=getattr(strategy, "last_postpone_ell", 0.0),
            ),
        )

    def _start_runs(
        self,
        transitions: list[Transition],
        event: Event,
        strategy: StrategyProtocol,
        new_runs: list[Run],
        matches: list[MatchRecord],
    ) -> None:
        """Try to open a new partial match from the root state."""
        clock = self.clock
        stats = self.stats
        for transition in transitions:
            tally = strategy.guard_tally(transition)
            charged, passed, now = transition.guard(
                _NO_BINDINGS, event, clock.now + self.cost_model.per_guard_cost
            )
            if now > clock.now:
                clock.now = now
            stats.guard_evaluations += 1
            stats.predicate_evaluations += charged
            tally.evaluations += 1.0
            if not passed:
                continue
            tally.passes += 1.0
            env = {transition.binding: event}
            obligations = self._resolve_remote(transition, None, env, strategy)
            if obligations is None:
                continue
            # Run.start, without the call; nothing mutates ``env`` any more.
            run = Run(transition.target, env, event.t, event.seq, event.seq, obligations)
            self._admit_extension(run, strategy, new_runs, matches)

    # -- extensions, finals, obligations ------------------------------------------
    def _admit_extension(
        self,
        extension: Run,
        strategy: StrategyProtocol,
        new_runs: list[Run],
        matches: list[MatchRecord],
    ) -> None:
        """Route a freshly built extension: emit a match and/or keep it live."""
        if extension.obligations and strategy.should_block_obligations(extension):
            status = self._check_obligations(extension, strategy, blocking=True)
            if status is _VIOLATED:
                self.stats.runs_failed_obligation += 1
                return

        if extension.state.is_final:
            self._emit(extension, strategy, matches)
        if extension.state.transitions:
            # Non-leaf final states keep matching longer alternatives.
            new_runs.append(extension)

    def _emit(self, run: Run, strategy: StrategyProtocol, matches: list[MatchRecord]) -> None:
        """Resolve whatever is still pending, then emit the match."""
        fetch_wait = 0.0
        if run.obligations:
            fetch_wait_before = getattr(strategy, "total_stall_time", 0.0)
            status = self._check_obligations(run, strategy, blocking=True)
            if status is _VIOLATED:
                self.stats.matches_rejected += 1
                return
            fetch_wait = getattr(strategy, "total_stall_time", 0.0) - fetch_wait_before
        last_event_t = max(map(_event_time, run.env.values()))
        spans = getattr(strategy, "spans", None)
        span = spans.capture(last_event_t, self.clock.now) if spans is not None else None
        matches.append(
            MatchRecord(
                events=run.env,
                last_event_t=last_event_t,
                detected_at=self.clock.now,
                fetch_wait=fetch_wait,
                span=span,
            )
        )

    def _check_obligations(self, run: Run, strategy: StrategyProtocol, blocking: bool) -> str:
        """Try to discharge the run's obligations.

        Returns one of the module-level status strings.  Satisfied
        obligations are removed from the run; an unresolved one is kept
        (never under ``blocking=True``, where every predicate is decided).
        """
        blocking_round = blocking and bool(run.obligations)
        if blocking_round:
            # One concurrent fetch round for everything still missing: the
            # stall is the max outstanding latency, not the sum (BL3, §7.2).
            strategy.prepare_blocking(run)
        try:
            remaining: list[Obligation] = []
            for obligation in run.obligations:
                status = self._check_one_obligation(obligation, run, strategy, blocking)
                if status is _VIOLATED:
                    return _VIOLATED
                if status is _UNRESOLVED:
                    remaining.append(obligation)
            run.obligations = tuple(remaining)
            return _UNRESOLVED if remaining else _SATISFIED
        finally:
            if blocking_round:
                strategy.finish_blocking()

    def _check_one_obligation(
        self, obligation: Obligation, run: Run, strategy: StrategyProtocol, blocking: bool
    ) -> str:
        self.stats.obligation_checks += 1
        self.clock.now += self.cost_model.per_obligation_cost
        env = obligation.env
        any_unresolved = False
        for predicate in obligation.predicates:
            outcome = strategy.resolve_obligation_predicate(predicate, env, blocking)
            if outcome is POSTPONED:
                any_unresolved = True
                continue
            self.stats.predicate_evaluations += 1
            self.clock.now += predicate.eval_cost
            if outcome:
                continue
            # One predicate is definitely false: the group conjunction fails.
            return _SATISFIED if obligation.negated else _VIOLATED
        if any_unresolved:
            return _UNRESOLVED
        # All predicates resolved true.
        return _VIOLATED if obligation.negated else _SATISFIED
