"""Hierarchical seeded random streams.

A stream is addressed by (master seed, path).  Identical addresses always
produce identical draws, so independent trials can run in parallel as long as
each owns a distinct path.  Each path part enters the ``SeedSequence`` spawn
key as three 32-bit words: a type tag, then a 64-bit value, the integer
itself or the first 8 bytes of the part's sha256 (never the process-salted
builtin ``hash``).  Fixed-width, tagged words keep an integer part apart from
a string part and a path of one part apart from a path of two.  The bit
generator is PCG64DXSM.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

_INT_TAG, _STR_TAG = 0, 1


def _check(part: int | str) -> int | str:
    if not isinstance(part, (int, str)):
        raise TypeError(f"path part {part!r} is neither an int nor a str")
    if isinstance(part, int) and not 0 <= part < 1 << 32:
        raise ValueError(f"integer path part {part} outside [0, 2^32)")
    return part


def _words(part: int | str) -> tuple[int, int, int]:
    if isinstance(part, int):
        tag, value = _INT_TAG, part
    else:
        tag = _STR_TAG
        value = int.from_bytes(hashlib.sha256(part.encode("utf-8")).digest()[:8], "little")
    return tag, value & 0xFFFFFFFF, value >> 32


@dataclass(frozen=True)
class RngStream:
    """A reproducible, splittable source of numpy generators."""

    seed: int
    path: tuple[int | str, ...] = field(default=())

    def child(self, *parts: int | str) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(_check(p) for p in parts))

    def generator(self) -> np.random.Generator:
        key = tuple(w for part in self.path for w in _words(part))
        ss = np.random.SeedSequence(self.seed, spawn_key=key)
        return np.random.Generator(np.random.PCG64DXSM(ss))
