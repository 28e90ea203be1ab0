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

from typing import Sequence

from .sets import Subset, scatter

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit stream; every draw method is exactly uniform."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next(self) -> int:
        """Next raw 64-bit output."""
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), via rejection (no modulo bias)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
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

        Word i of a draw is the output of state ``s + (i + 1) * GOLDEN``, with
        ``s`` the state before it, so only the 64-bit words that ``mask``
        touches are mixed, and a draw stops at the first word that differs.
        A ``target`` with a bit outside ``mask & (2^count - 1)`` matches none.
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
        hits = 0
        for _ in range(draws):
            for offset, mask_word, target_word in words:
                if _mix((state + offset) & _MASK64) & mask_word != target_word:
                    break
            else:
                hits += 1
            state = (state + stride) & _MASK64
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
