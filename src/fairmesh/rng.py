"""Deterministic pseudo-random streams for arbitration and workload generation.

The generator is xorshift64* with Marsaglia's shift triple (12, 25, 27) and
Vigna's finalizing multiplier 0x2545F4914F6CDD1D.  Stream seeds are derived
with splitmix64 so that independent components (per-node injectors, per-port
arbiters) get decorrelated sequences from one experiment seed.  Both
algorithms are fixed-constant and word-exact, so a given seed reproduces the
same grant and injection sequences on any platform.
"""

from __future__ import annotations

import math

MASK64 = (1 << 64) - 1

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_STAR_MULTIPLIER = 0x2545F4914F6CDD1D


def splitmix64(x: int) -> int:
    """One splitmix64 scrambling step (Steele, Lea, Flood constants)."""
    z = (x + _SPLITMIX_GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_stream_seed(seed: int, stream_id: int) -> int:
    """Mix an experiment seed with a stream id into a nonzero 64-bit state."""
    s = splitmix64(splitmix64(seed & MASK64) ^ splitmix64(stream_id & MASK64))
    # xorshift state must never be zero
    return s if s != 0 else _SPLITMIX_GAMMA


class XorShift64Star:
    """Sequential xorshift64* generator.

    next_u64() returns the raw 64-bit output; random() maps the top 53 bits
    to a float in [0, 1).
    """

    __slots__ = ("state",)

    def __init__(self, seed: int, stream_id: int = 0):
        self.state = derive_stream_seed(seed, stream_id)

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & MASK64
        x ^= x >> 27
        self.state = x
        return (x * _STAR_MULTIPLIER) & MASK64

    def random(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def bernoulli(self, p: float) -> bool:
        if p >= 1.0:
            return True
        if p <= 0.0:
            return False
        return self.random() < p

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next_u64() % n


class BernoulliLanes:
    """One `bernoulli(p)` draw per step for each entry n of `rates` with
    0 < p < 1, from stream `first_stream + n`, whose xorshift64* state sits
    in its own 128-bit lane of one int.  The shifts are masked back to each
    lane's low 64 bits, and a 64-bit state times the star multiplier fits in
    128, so no lane spills into the next.  A draw hits when its output is
    below T = ceil(p * 2**53) << 11: taken from 2**64 + T - 1, it leaves the
    lane's bit 64 set exactly then.
    """

    __slots__ = ("ids", "x", "lo", "goal", "hit_bits")

    def __init__(self, seed: int, rates: list[float], first_stream: int = 0):
        self.ids = [n for n, p in enumerate(rates) if 0.0 < p < 1.0]
        self.x = self.lo = self.goal = self.hit_bits = 0
        for j, n in enumerate(self.ids):
            shift = 128 * j
            self.x |= derive_stream_seed(seed, first_stream + n) << shift
            self.lo |= MASK64 << shift
            self.goal |= ((1 << 64) + (math.ceil(rates[n] * 2.0 ** 53) << 11) - 1) << shift
            self.hit_bits |= 1 << (shift + 64)

    def step(self) -> list[int]:
        """The entries whose draw hit, in ascending order."""
        x, lo = self.x, self.lo
        x ^= (x >> 12) & lo
        x ^= (x << 25) & lo
        x ^= (x >> 27) & lo
        self.x = x
        hits = (self.goal - ((x * _STAR_MULTIPLIER) & lo)) & self.hit_bits
        out = []
        while hits:
            low = hits & -hits
            out.append(self.ids[low.bit_length() >> 7])
            hits ^= low
        return out
