"""Splittable deterministic randomness.

Every random decision in the package flows through an :class:`RngState`,
a frozen (seed, counter) pair mapped onto an independent Philox stream.
Child states are derived by hashing tags into a fresh seed, so any
subsystem (shard, slice, epoch) can rebuild its exact stream from
coordinates alone -- the property checkpoint rollback relies on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _tag_to_int(tag: int | str) -> int:
    if isinstance(tag, str):
        data = tag.encode("utf-8")
        value = int.from_bytes(data[:8], "little")
        return value ^ (len(data) << 56)
    return int(tag) & _MASK64


def mix64(*tags: int | str) -> int:
    """Hash a sequence of tags into one 64-bit value (order-sensitive)."""
    h = 0xA5A5A5A5DEADBEEF
    for tag in tags:
        h = _splitmix64(h ^ _tag_to_int(tag))
    return h


@dataclass(frozen=True)
class RngState:
    """Seed plus stream counter; same state always yields the same stream."""

    seed: int
    counter: int = 0

    def child(self, *tags: int | str) -> "RngState":
        """Derive an independent state from this seed and the given tags."""
        return RngState(mix64(self.seed, *tags), 0)

    def generator(self) -> np.random.Generator:
        key = [self.seed & _MASK64, self.counter & _MASK64]
        return np.random.Generator(np.random.Philox(key=key))
