"""Deterministic pseudo-random streams.

Everything random in this package flows through a splitmix64 generator with
explicitly derived substreams: trial t of a run seeded with s always consumes
the same draws, no matter how many other trials run or in which order. This
module holds the package's only splitmix64 code; Python trials shuffle
through :func:`permutation` here, and the compiled engine implements the
identical bit-level algorithm, so results are byte-for-byte equal across
backends.

No floats are produced here. Bounded draws use rejection sampling, which keeps
probabilities exact (``randbelow(b) < a`` has probability a/b exactly).
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """splitmix64 finalizer; a fixed 64-bit bijection used for seeding."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def substream_seed(seed: int, index: int) -> int:
    """State for substream `index` of master `seed` (trial isolation)."""
    return mix64((seed & _MASK) ^ mix64((index + 1) * _GOLDEN))


def _shuffle(items: list, state: int) -> int:
    """Fisher-Yates shuffle of `items` in place, drawing from the splitmix64
    stream at `state`; returns the stream's state after the last draw.

    Draw for draw this is ``Stream(state).shuffle(items)``: each swap takes
    ``randbelow(i + 1)``, a rejection-sampled step of the stream. The step is
    written out inline because every Python trial calls this once.
    """
    for i in range(len(items) - 1, 0, -1):
        bound = i + 1
        limit = (1 << 64) - (1 << 64) % bound
        while True:
            state = (state + _GOLDEN) & _MASK
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            z ^= z >> 31
            if z < limit:
                break
        j = z % bound
        items[i], items[j] = items[j], items[i]
    return state


class Stream:
    """A single splitmix64 stream."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK

    @classmethod
    def for_trial(cls, seed: int, trial: int) -> "Stream":
        return cls(substream_seed(seed, trial))

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return mix64(self.state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling (exact). One
        64-bit draw covers at most 2**64 values, so larger n are refused:
        their rejection limit would be 0 and no draw would ever pass."""
        if not 0 < n <= 1 << 64:
            raise ValueError("randbelow requires 1 <= n <= 2**64")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % n

    def bernoulli(self, p: Fraction) -> bool:
        """True with probability exactly p (a rational in [0, 1])."""
        if p < 0 or p > 1:
            raise ValueError("probability out of range")
        if p.denominator == 1:
            return p.numerator == 1
        return self.randbelow(p.denominator) < p.numerator

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self.state = _shuffle(items, self.state)


def permutation(n: int, seed: int, trial: int) -> list[int]:
    """The index permutation used by trial `trial` of a run seeded `seed`."""
    idx = list(range(n))
    _shuffle(idx, substream_seed(seed, trial))
    return idx
