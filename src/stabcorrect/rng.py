"""Hierarchical counter-based random streams.

A stream is addressed by (master seed, path).  Identical addresses always
produce identical draws, so independent trials can run in parallel as long as
each owns a distinct path.  String path elements are hashed with sha256 (never
the process-salted builtin ``hash``) so addresses are stable across runs and
machines.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


def _key(part: int | str) -> int:
    if isinstance(part, int):
        if not 0 <= part < 1 << 32:
            raise ValueError(f"integer path part {part} outside [0, 2^32)")
        return int(part)
    digest = hashlib.sha256(part.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass(frozen=True)
class RngStream:
    """A reproducible, splittable source of numpy generators."""

    seed: int
    path: tuple[int, ...] = field(default=())

    def child(self, *parts: int | str) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(_key(p) for p in parts))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))
