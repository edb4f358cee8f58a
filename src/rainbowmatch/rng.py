"""Seeded 64-bit mixing generator for reproducible instances.

The generator is fully specified by its constants so any implementation
can reproduce identical instance streams:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output: z xor (z >> 31)

Bounded draws use rejection sampling so every residue is equally likely;
shuffles are Fisher-Yates from the top.
"""

from __future__ import annotations

_SPAN = 1 << 64
_MASK = _SPAN - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


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

    def below(self, n: int) -> int:
        """Uniform draw from range(n), for an int n from 1 to 2**64.

        A draw r is kept when r - r % n <= 2**64 - n, that is, when r lies
        below the largest multiple of n that is at most 2**64.
        """
        if type(n) is not int or not 0 < n <= _SPAN:
            raise ValueError(f"need an int bound from 1 to 2**64, got {n!r}")
        top = _SPAN - n
        while True:
            r = self.next_u64()
            low = r % n
            if r - low <= top:
                return low

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
