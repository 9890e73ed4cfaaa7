"""Seeded random-number helpers for reproducible workloads.

Every stochastic component of the reproduction (synthetic event payloads
and arrival times, transmission-latency draws, utility-estimation noise)
derives its randomness from an explicit :class:`random.Random` instance so
that a single seed reproduces an entire experiment.  ``spawn`` derives
independent sub-generators from a parent, so components do not interleave
draws and stay reproducible even if one component changes how many numbers
it consumes.

The hottest draws skip ``random.Random``'s Python-level methods, which cost
one to three Python frames each before they reach the C generator, and run
the same arithmetic inline, so the stream of numbers is the library's draw
for draw.  They are the synthetic stream (``workloads.synthetic.make_stream``),
the cost-based cache's eviction and Eq. 7 sample (``_SampledSet.sample``) and
the transport's ``UniformLatency.sample``; every other draw calls the library
method.  The equivalences, from CPython 3.10-3.13's ``random.py``:

* ``randrange(n)`` for ``n >= 1`` (so ``randint(1, n) - 1`` and
  ``choice(seq)``'s index, with ``n = len(seq)``) is ``getrandbits``
  rejection sampling::

      k = n.bit_length()
      r = getrandbits(k)
      while r >= n:
          r = getrandbits(k)

* ``expovariate(lambd)`` is ``-log(1.0 - random()) / lambd``;
* ``uniform(a, b)`` is ``a + (b - a) * random()``.

The draw-identity property (``tools/draw_identity.py``) pins them.
"""

from __future__ import annotations

import functools
import random
import zlib

__all__ = ["extend_hash", "make_rng", "spawn", "stable_hash"]

_SPAWN_SALT = 0x9E3779B97F4A7C15  # golden-ratio constant, decorrelates streams
_MASK = (1 << 64) - 1
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def stable_hash(*parts) -> int:
    """A 64-bit hash of ``parts`` that is stable across processes.

    Python's built-in ``hash`` randomises string hashing per process
    (``PYTHONHASHSEED``), which would make workloads whose payloads derive
    from hashed labels unreproducible.  This splitmix-style mixer handles
    ints directly, strings/bytes via CRC-32, floats via their bit pattern,
    and tuples recursively.  The hash of a prefix is the mixer's state after
    it, so :func:`extend_hash` can carry on from it.
    """
    return functools.reduce(extend_hash, parts, _SPAWN_SALT)


def extend_hash(h: int, part) -> int:
    """``stable_hash(*parts, part)``, given ``h == stable_hash(*parts)``.

    Lets a caller that hashes many parts after one constant prefix mix the
    prefix once.
    """
    value = part & _MASK if type(part) is int else _digest(part)
    h = ((h ^ (value * _MIX_A & _MASK)) * _MIX_B) & _MASK
    return h ^ (h >> 31)


def _digest(part) -> int:
    """The value :func:`stable_hash` mixes in for one part (a plain ``int``
    is its own, masked, and never reaches here)."""
    if isinstance(part, bool):
        return int(part)
    if isinstance(part, int):
        return part & _MASK
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, bytes):
        return zlib.crc32(part)
    if isinstance(part, float):
        return hash(part) & _MASK  # int-derived, stable for floats
    if isinstance(part, tuple):
        return stable_hash(*part)
    if part is None:
        return 0x5EED
    raise TypeError(f"stable_hash cannot digest {type(part).__name__}: {part!r}")


def make_rng(seed: int | None = 42) -> random.Random:
    """Create a seeded ``random.Random``.

    ``None`` yields OS entropy; experiments should always pass an ``int``.
    """
    return random.Random(seed)


def spawn(parent: random.Random, label: str) -> random.Random:
    """Derive an independent child generator from ``parent``.

    The child's seed mixes a draw from the parent with a hash of ``label``,
    so distinct labels produce decorrelated streams while remaining a pure
    function of the parent's state and the label.
    """
    base = parent.getrandbits(64)
    return random.Random(stable_hash(base, label))
