"""Seeded 64-bit mixing generator for reproducible instances.

The generator is fully specified by its constants so any implementation
can reproduce identical instance streams:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output: z xor (z >> 31)

block(count) runs the steps on one int holding output i at bits 128*i,
each lane masked to 64 bits before every shift and multiply: the mask
drops what a shift pulls in from the next lane, and 128-bit lanes hold a
64-bit value times a 64-bit constant without carrying into the next.

Bounded draws use rejection sampling so every residue is equally likely;
shuffles are Fisher-Yates from the top.
"""

from __future__ import annotations

from functools import lru_cache
from struct import Struct

_SPAN = 1 << 64
_MASK = _SPAN - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


@lru_cache(maxsize=32)
def _lanes(count: int) -> tuple:
    """ones, (i + 1) * gamma in lane i, the lane mask, the low-word unpacker."""
    ones = sum(1 << (128 * i) for i in range(count))
    steps = sum(((i + 1) * _GAMMA & _MASK) << (128 * i) for i in range(count))
    return ones, steps, ones * _MASK, Struct("<" + "Q8x" * count).unpack


class SplitMix64:
    """Deterministic stream of 64-bit values from a seed."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if type(seed) is not int:
            raise ValueError(f"the seed must be an int, got {seed!r}")
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def block(self, count: int) -> list[int]:
        """The next count outputs of next_u64, in order."""
        if type(count) is not int or count < 0:
            raise ValueError(f"need a nonnegative int count, got {count!r}")
        if count == 1:
            return [self.next_u64()]  # the scalar steps beat the lane set-up
        ones, steps, lanes, unpack = _lanes(count)
        z = (ones * self._state + steps) & lanes
        self._state = (self._state + count * _GAMMA) & _MASK
        z = ((z ^ (z >> 30)) & lanes) * _MIX1 & lanes
        z = ((z ^ (z >> 27)) & lanes) * _MIX2 & lanes
        return list(unpack((z ^ z >> 31).to_bytes(16 * count, "little")))

    def draws(self, n: int, count: int) -> list[int]:
        """count uniform draws from range(n), n an int from 1 to 2**64: a
        value r is kept when r < 2**64 - 2**64 % n, a multiple of n."""
        if type(n) is not int or not 0 < n <= _SPAN:
            raise ValueError(f"need an int bound from 1 to 2**64, got {n!r}")
        top = _SPAN - _SPAN % n
        out = [r % n for r in self.block(count) if r < top]
        while len(out) < count:   # replace the rejected values by the next
            out += [r % n for r in self.block(count - len(out)) if r < top]
        return out

    def below(self, n: int) -> int:
        """One draw from range(n): draws(n, 1)[0]."""
        return self.draws(n, 1)[0]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
