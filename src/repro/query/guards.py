"""Compiled transition guards: one generated function per guard, one loop per
bucket, one ``keys`` / ``decide`` pair per remote predicate.

Walking a predicate tree costs a handful of Python calls per predicate
(``Comparison.evaluate`` → two ``Attr.evaluate`` → two ``Event.__getitem__``)
plus one environment copy per guard, and guard evaluation is where the
engine spends its time.  :func:`compile_guard` therefore renders a
transition's local predicates once, at NFA-compile time, into one
straight-line function::

    def guard(env, event, now):
        start = now
        try:
            now += 0.02
            if not (event.attrs['id'] == env['c'].attrs['id']):
                return 1, False, now
            now += 0.02
            if not (event.attrs['v1'] <= 92000):
                return 2, False, now
            return 2, True, now
        except Exception:
            return _interpret(env, event, start)

``env`` holds the events bound so far, ``event`` is the input event the
transition would bind, and ``now`` is the virtual time after the per-guard
charge.  The function returns ``(predicates charged, passed, now)``.

Two properties make it a drop-in for the interpretive loop it replaced:

* **Same floats.**  Virtual time is a running float sum, and float addition
  is not associative, so the generated code performs the *same sequence* of
  additions — one ``now += eval_cost`` before each predicate it reaches —
  on a local instead of through ``clock.advance``.  The caller publishes the
  result with one ``clock.advance_to``.
* **Same errors.**  Generated code reads ``event.attrs[...]`` directly, so a
  missing attribute would surface as a bare ``KeyError('v9')``.  Any
  exception instead re-runs the guard through :func:`interpret_guard`, whose
  ``Predicate.evaluate`` calls raise the descriptive error (``event has no
  attribute 'v9'; has [...]``) — or, when the exception sat behind a
  predicate the short-circuit never passes, return the right answer.  The
  generated frame stays on that traceback, as the caller of the walk.

:func:`interpret_guard` is also the reference the generated code is tested
against (``tests/test_properties.py``).

Bucket loops
------------
A guard call is still one Python frame per partial-match visit, wrapped in
the engine's own per-run frames.  For a transition without remote predicates
:func:`compile_bucket_loop` therefore renders the *same* predicate source a
second time, inside a loop over a whole (state, partition) bucket — here
QG's ``q2 -> q3`` (``SAME[id] AND c.v1 <= 92000 AND c.v2 >= 8000 AND
c.v1 >= 4000``)::

    def bucket_loop(runs, event, now, guard_cost, window, evaluations, passes):
        _x0 = event.attrs['id']
        _x1 = event.attrs['v1']
        _x2 = event.attrs['v2']
        _f2 = not (_x1 <= 92000)
        _f3 = not (_x2 >= 8000)
        _f4 = not (_x1 >= 4000)
        _same = type(_x0) in _EXACT or type(_x0) is float and _x0 == _x0
        outcomes = []
        charged = 0
        at = event.seq
        for run in runs:
            if at - run.first_seq > window:
                outcomes.append((run, now, False))
                continue
            if run.obligations:
                return None
            env = run.env
            now = now + guard_cost
            evaluations += 1.0
            now += 0.02
            if not (_same or (_x0 == env['b'].attrs['id'])):
                charged += 1
                continue
            now += 0.02
            if _f2:
                charged += 2
                continue
            now += 0.02
            if _f3:
                charged += 3
                continue
            now += 0.02
            if _f4:
                charged += 4
                continue
            charged += 4
            passes += 1.0
            outcomes.append((run, now, True))
        return now, charged, evaluations, passes, outcomes

Per run it is the per-run path, statement for statement: the window test in
:meth:`Window.admits`' own form (``not event.t - run.first_t <= window`` for
time windows — a rearranged watermark would round differently), the
per-guard charge, one ``now += eval_cost`` before each predicate reached,
and *one* ``+= 1.0`` per guard on each rate tally (the tallies are halved
periodically, so ``+= n`` would round differently).  The loop publishes
nothing: it returns the final time, the predicates charged, the two tallies
and the ordered ``(run, now, passed)`` outcomes — ``passed`` False meaning
the window expired — for the engine to replay at each outcome's own time.
It returns ``None`` at a run that carries obligations (the strategy must be
consulted between guards), and any exception propagates; in both cases the
caller steps the bucket run by run instead, through ``Transition.guard`` and
its fallback above.

What gives the same answer for every run of the bucket is paid once per
call, in a *prelude*:

* every ``event.attrs[...]`` the guard reads becomes a local (the scope
  renders input attributes as locals and records them);
* the truth value of every ``pure`` predicate (one that calls no captured
  function) whose operands are the input's alone becomes a local, and the
  loop tests the local; a ``FunctionPredicate`` keeps its call per run;
* the ``SAME`` equality the compiler links to the previous binding on the
  partition attribute (``partition``) is charged per run as always, but
  compared only when the input's partition value is not exact-typed.  Every
  run of the bucket was filed under a key equal to the input's value, and
  for a ``bool``, ``int``, ``str`` or a ``float`` equal to itself that dict
  equality is the predicate's ``==``.  ``None`` — what an event without the
  attribute files under — and NaN are compared as they always were.

*Error transparency.*  The prelude evaluates what the per-run loop might
never reach (every run expired, or an earlier predicate failing for all of
them), and it catches nothing: if it raises, the exception propagates like
any other, and the engine steps the bucket run by run, whose guards raise
exactly where the per-run path raises or return the right answer.  A loop
completes exactly when neither its prelude nor a per-run check raised.

Remote predicates
-----------------
A remote predicate is the strategy's to decide — collect its keys, look them
up, maybe fetch or postpone — so it cannot sit inside a guard.  But the two
pure steps either side of that decision were still tree walks:
``Predicate.remote_keys`` and ``Predicate.evaluate`` against a resolver.
:func:`compile_remote` renders them once per predicate; for Q1's
``d.v1 IN REMOTE<rd1>[a.v1]``::

    def keys(env):
        return (('rd1', env['a'].attrs['v1']),)

    def decide(env, values):
        if (env['d'].attrs['v1'] in values[('rd1', env['a'].attrs['v1'])]):
            return True
        return False

``env`` holds every bound event *including* the one the transition binds
(obligations are decided long after that event was the input), and
``values`` maps each ``(source, key)`` pair to the element's value — the
snapshot the strategy collected.  Neither function catches anything: a
``KeyError`` on ``values[...]`` is a key whose fetch terminally failed, on
``env[...]`` an unbound binding, on ``attrs[...]`` a missing attribute.  The
strategy answers an exception from ``decide`` by re-running the interpretive
walk, which applies the failure mode or raises the descriptive error, and one
from ``keys`` likewise where a predicate is first resolved; a postponed
predicate's keys are re-read from the environment they were first read from,
which cannot raise.

``compile()`` costs far more than rendering, and tenants of one fleet (or
successive builds of one query) produce identical source, so code objects
are memoised on the source string.  Each is compiled under a pseudo-file
inside this package, registered in :mod:`linecache`, so tracebacks show the
guard's own lines and profilers attribute its frames to ``repro/query``.

The pseudo-file is named ``<guard CCCCCCCCAAAAAAAA>`` from the source's
CRC-32 and Adler-32, so the same source has the same name in every process.
Two different sources that share both checksums are told apart by a
``-n`` suffix in the order they are first compiled: a name never shows
another source's lines.  The checksums come from :mod:`zlib`, which the
seeded RNG loads anyway; :mod:`hashlib` would load OpenSSL's ``libcrypto``
into every process that compiles a query (3.66 MB of resident memory
under CPython 3.11 on Linux), for a name that needs no cryptographic
strength.
"""

from __future__ import annotations

import functools
import linecache
import math
import os
import zlib
from types import CodeType
from typing import Any, Callable, Mapping, Sequence

from repro.events.event import Event
from repro.query.ast import Window
from repro.query.predicates import Predicate

__all__ = [
    "BucketLoop",
    "Guard",
    "GuardScope",
    "compile_bucket_loop",
    "compile_guard",
    "compile_remote",
    "interpret_guard",
]

#: ``guard(env, event, now) -> (predicates charged, passed, now)``.
Guard = Callable[[Mapping[str, Event], Event, float], tuple[int, bool, float]]

#: ``bucket_loop(runs, event, now, guard_cost, window, evaluations, passes)``
#: ``-> (now, predicates charged, evaluations, passes, outcomes) | None``.
BucketLoop = Callable[..., "tuple[float, int, float, float, list] | None"]

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))

# Partition values whose dict-key equality is ``==`` with no exception:
# whatever shares their bucket compares equal to them (floats must also
# equal themselves; None is what a missing attribute files under).
_EXACT_TYPES = frozenset((bool, int, str))


class GuardScope:
    """Naming scope of one generated function.

    ``input_binding`` is the binding the guard's transition establishes: its
    attributes are read off the ``event`` argument, every other binding off
    ``env``.  A *hoisting* scope (a bucket loop's) names each input attribute
    read by a local instead, and records it in ``inputs`` for the loop's
    prelude to read once.  A *remote* scope has no input binding — every
    event is read off ``env`` — and a ``values`` argument that remote
    references index.  Objects with no source form (callables, collections,
    exotic constants) are *captured*: the source refers to them by a
    generated name and the function's globals supply the object.
    """

    __slots__ = ("input_binding", "remote", "captured", "inputs")

    def __init__(
        self, input_binding: str | None, remote: bool = False, hoist: bool = False
    ) -> None:
        self.input_binding = input_binding
        self.remote = remote
        self.captured: dict[str, Any] = {}
        #: Hoisting only: input attribute -> the prelude local holding it.
        self.inputs: dict[str, str] | None = {} if hoist else None

    def capture(self, value: Any) -> str:
        name = f"_k{len(self.captured)}"
        self.captured[name] = value
        return name

    def input_attr(self, attr: str) -> str:
        """Source of the input event's ``attr``: a read, or a prelude local."""
        if self.inputs is None:
            return f"event.attrs[{attr!r}]"
        local = self.inputs.get(attr)
        if local is None:
            local = self.inputs[attr] = f"_x{len(self.inputs)}"
        return local

    def literal(self, value: Any) -> str:
        """``value`` as source: a literal when one round-trips, else a capture."""
        if type(value) in (bool, int, str, type(None)) or (
            type(value) is float and math.isfinite(value)
        ):
            return repr(value)
        return self.capture(value)


def interpret_guard(
    predicates: Sequence[Predicate],
    binding: str,
    env: Mapping[str, Event],
    event: Event,
    now: float,
) -> tuple[int, bool, float]:
    """Evaluate a local guard by walking its predicates.

    The reference semantics of :func:`compile_guard`: charge each
    predicate's ``eval_cost`` to ``now`` before evaluating it, stop at the
    first that fails.
    """
    bound = dict(env)
    bound[binding] = event
    charged = 0
    for predicate in predicates:
        now += predicate.eval_cost
        charged += 1
        if not predicate.evaluate(bound, _no_remote):
            return charged, False, now
    return charged, True, now


def compile_guard(predicates: Sequence[Predicate], binding: str) -> Guard:
    """The generated guard for ``predicates`` on the transition binding ``binding``.

    The function's source is available as its ``source`` attribute.
    """
    scope = GuardScope(binding)
    lines = ["def guard(env, event, now):", "    start = now", "    try:"]
    for charged, (cost, condition) in enumerate(_rendered(predicates, scope), 1):
        lines += [
            f"        now += {cost}",
            f"        if not {condition}:",
            f"            return {charged}, False, now",
        ]
    lines += [
        f"        return {len(predicates)}, True, now",
        "    except Exception:",
        "        return _interpret(env, event, start)",
    ]
    interpret = functools.partial(interpret_guard, tuple(predicates), binding)
    (guard,) = _define(["guard"], lines, scope, _interpret=interpret)
    return guard


def compile_bucket_loop(
    predicates: Sequence[Predicate],
    binding: str,
    window_kind: str,
    partition: Predicate | None = None,
) -> BucketLoop:
    """The generated loop stepping a whole bucket through one local-only guard.

    ``partition``, when given, is the guard's ``SAME`` equality between
    ``binding``'s attribute (its left operand) and the previous binding's,
    which the engine's partition index already guarantees for exact-typed
    values.  See "Bucket loops" in the module docstring for the contract;
    the function's source is available as its ``source`` attribute.
    """
    scope = GuardScope(binding, hoist=True)
    prelude: list[str] = []
    checks: list[tuple[str, str]] = []
    for position, (predicate, (cost, condition)) in enumerate(
        zip(predicates, _rendered(predicates, scope)), 1
    ):
        if predicate is partition:
            checks.append((cost, f"not (_same or {condition})"))
        elif predicate.pure and predicate.bindings() <= {binding}:
            prelude.append(f"_f{position} = not {condition}")
            checks.append((cost, f"_f{position}"))
        else:
            checks.append((cost, f"not {condition}"))
    lines = [
        "def bucket_loop(runs, event, now, guard_cost, window, evaluations, passes):",
        *(f"    {local} = event.attrs[{attr!r}]" for attr, local in scope.inputs.items()),
        *(f"    {line}" for line in prelude),
    ]
    if partition is not None:
        value = partition.left.render(scope)
        lines.append(
            f"    _same = type({value}) in _EXACT or type({value}) is float and {value} == {value}"
        )
    lines += _loop_body(checks, window_kind)
    (bucket_loop,) = _define(["bucket_loop"], lines, scope, _EXACT=_EXACT_TYPES)
    return bucket_loop


def _loop_body(checks: Sequence[tuple[str, str]], window_kind: str) -> list[str]:
    """The per-run loop over ``(eval_cost, failure test)`` source pairs."""
    if window_kind == Window.TIME:
        position, expired = "event.t", "not at - run.first_t <= window"
    else:
        position, expired = "event.seq", "at - run.first_seq > window"
    lines = [
        "    outcomes = []",
        "    charged = 0",
        f"    at = {position}",
        "    for run in runs:",
        f"        if {expired}:",
        "            outcomes.append((run, now, False))",
        "            continue",
        "        if run.obligations:",
        "            return None",
        "        env = run.env",
        "        now = now + guard_cost",
        "        evaluations += 1.0",
    ]
    for charged, (cost, failed) in enumerate(checks, 1):
        lines += [
            f"        now += {cost}",
            f"        if {failed}:",
            f"            charged += {charged}",
            "            continue",
        ]
    lines += [
        f"        charged += {len(checks)}",
        "        passes += 1.0",
        "        outcomes.append((run, now, True))",
        "    return now, charged, evaluations, passes, outcomes",
    ]
    return lines


def compile_remote(predicate: Predicate) -> tuple[Callable, Callable]:
    """``(keys, decide)`` for one remote predicate.

    ``keys(env)`` is :meth:`Predicate.remote_keys`; ``decide(env, values)``
    is :meth:`Predicate.evaluate` against a resolver over ``values``, as a
    ``bool``.  See "Remote predicates" in the module docstring; the source of
    both is available as the ``source`` attribute of either.
    """
    _check_cost(predicate)
    scope = GuardScope(None, remote=True)
    pairs = [
        f"({scope.literal(ref.source)}, {ref.key_expr.render(scope)})"
        for ref in predicate.remote_refs()
    ]
    lines = [
        "def keys(env):",
        f"    return ({''.join(pair + ', ' for pair in pairs)})",
        "",
        "def decide(env, values):",
        f"    if {predicate.render(scope)}:",
        "        return True",
        "    return False",
    ]
    keys, decide = _define(["keys", "decide"], lines, scope)
    return keys, decide


def _rendered(predicates: Sequence[Predicate], scope: GuardScope):
    """``(eval_cost, condition)`` source pairs, in evaluation order."""
    for predicate in predicates:
        _check_cost(predicate)
        yield scope.literal(predicate.eval_cost), predicate.render(scope)


def _check_cost(predicate: Predicate) -> None:
    """Refuse a negative ``eval_cost`` before any code is generated: a local
    predicate's cost is added to the time its generated guard returns, a
    remote one's to the clock's slot once the strategy decides it, both
    unchecked, so a negative one would move virtual time backwards."""
    if predicate.eval_cost < 0:
        raise ValueError(f"predicate {predicate!r} has negative eval_cost {predicate.eval_cost}")


def _define(names: Sequence[str], lines: list[str], scope: GuardScope, **helpers: Any) -> list:
    """Execute the generated ``def``s with the scope's captures as globals.

    Returns the functions called ``names``; each carries the whole generated
    source as its ``source`` attribute.
    """
    source = "\n".join(lines) + "\n"
    namespace = dict(scope.captured, **helpers)
    exec(_code_for(source), namespace)
    functions = [namespace[name] for name in names]
    for function in functions:
        function.source = source
    return functions


#: The source behind each pseudo-file name handed out so far.
_NAMED: dict[str, str] = {}


@functools.lru_cache(maxsize=512)
def _code_for(source: str) -> CodeType:
    data = source.encode()
    stem = os.path.join(_PACKAGE_DIR, f"<guard {zlib.crc32(data):08x}{zlib.adler32(data):08x}")
    filename = f"{stem}>"
    suffix = 0
    while _NAMED.setdefault(filename, source) != source:
        suffix += 1
        filename = f"{stem}-{suffix}>"
    # mtime None marks the entry as not backed by a file: checkcache keeps it.
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return compile(source, filename, "exec")


def _no_remote(key: tuple):
    raise AssertionError(
        f"local predicate attempted a remote lookup for {key!r}; "
        "the compiler must have misclassified a predicate"
    )
