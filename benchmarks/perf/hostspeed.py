"""A fixed piece of interpreter work, to tell a slow program from a slow host.

The box this benchmark was written on (2 vCPUs of a shared host) slows down
by 1.5-1.7x for minutes at a time, invisibly to the guest: no steal time, no
load.  Ten runs of an unchanged program then spread by 20-40 % in events per
wall second, which no regression bound survives.  So between replays the
benchmark times this kernel — pure Python with the interpreter operations the
engine is made of (method calls, slot access, float arithmetic, dict reads
and writes) and no code of the program under test — and reports host speed as
``REFERENCE_S / kernel seconds``: 1.0 on the reference box when it is quiet.
``events_per_ref_s`` is events per wall second divided by that speed.  On the
same recorded sequence of 120 replays, windows of 7 spread by 21 % raw and by
7-9 % after the division (README.md, "Steadiness").

A change to the program cannot move the kernel, so it moves
``events_per_ref_s`` exactly as it moves ``events_per_s``.
"""

from __future__ import annotations

__all__ = ["REFERENCE_S", "kernel"]

#: Fast-quartile wall seconds of one ``kernel()`` call on the reference box.
REFERENCE_S = 0.25

_ITERATIONS = 900_000


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b

    def f(self, x: int) -> float:
        return self.a * x + self.b


def kernel() -> float:
    """The same ~0.25 s of interpreter work on every call."""
    cells = [_Cell(i * 0.5, i) for i in range(64)]
    seen: dict[int, float] = {}
    acc = 0.0
    for i in range(_ITERATIONS):
        acc += cells[i & 63].f(i)
        seen[i & 1023] = acc
        if seen.get((i * 7) & 1023) is not None:
            acc -= 1.0
    return acc
