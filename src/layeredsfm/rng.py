"""Seeded randomness from the splitmix64 recurrence.

The generator is spelled out here rather than taken from a library so that
any implementation, in any language, reproduces the exact same instances
and experiment streams from the same 64-bit seed:

    state <- state + 0x9E3779B97F4A7C15            (mod 2^64)
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9    (mod 2^64)
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB    (mod 2^64)
    output z XOR (z >> 31)

Bounded draws use rejection sampling, so they are exactly uniform.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .sets import Subset, scatter

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_CHUNK = 4096  # draws mixed at once by count_matches, one per 128-bit lane; a power of two


@functools.cache
def _lanes() -> tuple[int, int, int]:
    """Lane constants of a full chunk of ``_CHUNK`` 128-bit lanes: 1 in
    every lane, d in lane d, and 2^64 - 1 in every lane."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * _CHUNK, "little")
    ramp, half = 0, 1
    while half < _CHUNK:  # lanes half..2 half - 1 are lanes 0..half - 1 plus half
        ramp |= (ramp + half * (ones & ((1 << (half << 7)) - 1))) << (half << 7)
        half <<= 1
    return ones, ramp, ones * _MASK64


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit stream; every draw method is exactly uniform."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        # A seed is a 64-bit word: a wider one would alias another seed's stream.
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        if seed >> 64:
            raise ValueError(f"seed must be below 2**64, got {seed}")
        self._state = seed

    def next(self) -> int:
        """Next raw 64-bit output."""
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) for bound in 1..2^64, via rejection (no modulo bias)."""
        if not 0 < bound <= 1 << 64:
            raise ValueError(f"bound must be in 1..2^64, got {bound}")
        threshold = ((1 << 64) // bound) * bound
        while True:
            v = self.next()
            if v < threshold:
                return v % bound

    def bits(self, count: int) -> int:
        """Integer with ``count`` independent fair random bits."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        out = 0
        filled = 0
        while filled < count:
            out |= self.next() << filled
            filled += 64
        return out & ((1 << count) - 1)

    def count_matches(self, count: int, mask: int, target: int, draws: int) -> int:
        """How many of the next ``draws`` values of ``bits(count)`` satisfy
        ``draw & mask == target``, leaving the state where those draws would.

        Word i of draw d is the output of state ``s + d * stride + (i + 1) *
        GOLDEN``, with ``s`` the state before the first draw and ``stride``
        the GOLDEN steps one draw takes, so only the 64-bit words that
        ``mask`` touches are mixed.  They are mixed a chunk of up to
        ``_CHUNK`` draws at a time, one draw per 128-bit lane of one int:
        the lanes' states come from the cached ``_lanes`` constants, and
        each shift or multiply is ANDed back to the low 64 bits of every
        lane.  A 64 x 64-bit product fits in its 128-bit lane, so no lane
        carries into the next.  A draw misses when some touched word
        differs from the target's; ``lanes - misses`` are the hits.  A
        ``target`` with a bit outside ``mask & (2^count - 1)`` matches none.
        """
        if count < 0 or draws < 0:
            raise ValueError(f"count and draws must be non-negative, got {count} and {draws}")
        state = self._state
        stride = ((count + 63) >> 6) * _GOLDEN
        self._state = (state + draws * stride) & _MASK64
        mask &= (1 << count) - 1
        if target & ~mask:
            return 0
        words = []  # (state offset, mask word, target word) of each touched word
        offset = 0
        while mask:
            offset += _GOLDEN
            if mask & _MASK64:
                words.append((offset, mask & _MASK64, target & _MASK64))
            mask >>= 64
            target >>= 64
        full_ones, full_ramp, full_m64 = _lanes()
        hits = 0
        for done in range(0, draws, _CHUNK):
            lanes = min(_CHUNK, draws - done)
            if lanes == _CHUNK:
                ones, ramp, m64 = full_ones, full_ramp, full_m64
            else:
                low = (1 << (lanes << 7)) - 1
                ones, ramp, m64 = full_ones & low, full_ramp & low, full_m64 & low
            steps = state * ones + stride * ramp  # lane d: s + d * stride, below 2^77 per word of a draw
            diff = 0
            for offset, mask_word, target_word in words:
                z = (steps + offset * ones) & m64
                z = ((z ^ ((z >> 30) & m64)) * 0xBF58476D1CE4E5B9) & m64
                z = ((z ^ ((z >> 27) & m64)) * 0x94D049BB133111EB) & m64
                diff |= ((z ^ (z >> 31)) & mask_word * ones) ^ target_word * ones
            # Adding 2^64 - 1 carries into bit 64 of exactly the lanes that differ.
            hits += lanes - (((diff + m64) >> 64) & ones).bit_count()
            state = (state + lanes * stride) & _MASK64
        return hits

    def sample(self, seq: Sequence[int], k: int) -> list[int]:
        """Uniform size-k subset of ``seq`` (as a sorted list), partial shuffle.

        Step i swaps position i with a uniform position j >= i of the
        shuffled sequence.  Only the positions a swap has moved are stored
        (``moved``), so a draw costs O(k) rather than a copy of ``seq``.
        """
        size = len(seq)
        if not 0 <= k <= size:
            raise ValueError(f"cannot sample {k} of {size} items")
        moved: dict[int, int] = {}
        out = []
        for i in range(k):
            j = i + self.below(size - i)
            out.append(moved.get(j, seq[j]))
            moved[j] = moved.get(i, seq[i])
        return sorted(out)

    def subset_of(self, carrier: Subset) -> Subset:
        """Uniform subset of ``carrier``: bit p of one ``bits(len(carrier))`` draw
        keeps its p-th lowest member (:func:`~layeredsfm.sets.scatter`)."""
        return Subset(carrier.size, scatter(self.bits(len(carrier)), carrier.bits))

    def spawn_seeds(self, count: int) -> list[int]:
        """Independent child seeds, e.g. one per experiment trial."""
        return [self.next() for _ in range(count)]
