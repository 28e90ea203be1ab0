"""Ground-set configuration and exact subset algebra on bit vectors.

Elements are plain indices 0..n-1.  A :class:`Subset` is an immutable bit
vector over those indices; every operation is exact and total.  Any
"arbitrary" choice made elsewhere in the package (dummy elements, canonical
commits) follows lowest-index-first order so runs reproduce exactly.
:class:`GroundConfig` is the one home of the layer-code format, with one
map each way between codes and values: ``code_value`` and ``value_code``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import neg
from typing import Iterable, Iterator

# Bit-vector capacity; large enough for every experiment in the harness.
MAX_GROUND_SIZE = 1024

# Hard cap on full power-set enumeration, to prevent accidental 2^n blowups.
EXHAUSTIVE_CAP = 24


class Relation(Enum):
    """How one subset sits relative to another."""

    EQUAL = "equal"
    STRICT_SUBSET = "strict_subset"
    STRICT_SUPERSET = "strict_superset"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class GroundConfig:
    """A ground set of ``n`` elements carved into layers of width ``2*r``.

    ``layer_count`` is ``n // (2r)``; when ``2r`` does not divide ``n`` the
    trailing ``n - effective_size`` elements are dummies that no constructed
    function ever depends on.
    """

    n: int
    r: int

    def __post_init__(self) -> None:
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (self.n, self.r)):
            raise ValueError(f"n and r must be integers, got n={self.n!r}, r={self.r!r}")
        if self.n < 1:
            raise ValueError(f"ground size must be positive, got {self.n}")
        if self.n > MAX_GROUND_SIZE:
            raise ValueError(f"ground size {self.n} exceeds capacity {MAX_GROUND_SIZE}")
        if self.r < 1:
            raise ValueError(f"layer half-width must be positive, got {self.r}")
        if 2 * self.r > self.n:
            raise ValueError(f"need 2*r <= n, got r={self.r}, n={self.n}")

    @property
    def layer_count(self) -> int:
        return self.n // (2 * self.r)

    @property
    def effective_size(self) -> int:
        """Size of the active prefix of the ground set (a multiple of 2r)."""
        return 2 * self.r * self.layer_count

    @property
    def divides_evenly(self) -> bool:
        """True when 2r divides n: there are no dummies, and the minimizer is unique."""
        return self.effective_size == self.n

    def pool_size(self, layer: int) -> int:
        """Number of still-unclassified elements when ``layer`` (1-based) opens."""
        if not 1 <= layer <= self.layer_count:
            raise ValueError(f"layer must be in 1..{self.layer_count}, got {layer}")
        return self.effective_size - 2 * self.r * (layer - 1)

    @cached_property
    def value_denominator(self) -> int:
        """``D = f_1 * 2 * pool_size(1)``, since ``d_1 = 1``: every instance
        value is a multiple of ``1/D`` (see :attr:`layer_factors`)."""
        return self.layer_factors[0] * 2 * self.effective_size

    @cached_property
    def layer_factors(self) -> tuple[int, ...]:
        """``(f_1, .., f_L)``, the one per-layer scale table.  Layer k is scaled
        by ``1/d_k``, ``d_1 = 1`` and ``d_{k+1} = d_k * 8 * pool_size(k)``: the
        growth hides every deeper layer until a query matches layer k.  Its
        values have denominator ``d_k * 2 * pool_size(k)``, which divides
        ``d_{k+1}`` and so ``D = d_L * 2 * pool_size(L)``; ``f_k`` takes them to
        D.  Built backward: ``f_L = 1``, ``f_k = f_{k+1} * 8 * pool_size(k+1)``."""
        factors = [1]
        for layer in range(self.layer_count, 1, -1):
            factors.append(factors[-1] * 8 * self.pool_size(layer))
        return tuple(reversed(factors))

    # -- layer codes ---------------------------------------------------------
    #
    # A query first diverging at layer k has value f_k * t / D, where the
    # layer price t lies in [1, 4 * pool_size(k)]; its layer code is
    # (L + 1 - k) * M + t with M = code_radix, and a query matching every
    # layer has code 0.  Every layer-k value is at least f_k and every
    # layer-(k+1) value at most f_{k+1} * 4 * pool_size(k+1) = f_k / 2, so
    # codes order exactly as the values they spell.  The quotient
    # L + 1 - k, the layer's level, is pool_size(k) / (2r).

    @cached_property
    def code_radix(self) -> int:
        """``M = 4 * effective_size + 1``, above every layer price."""
        return 4 * self.effective_size + 1

    @cached_property
    def code_lift(self) -> tuple[tuple[int, int], ...]:
        """Per layer k, ``(shift, scale)`` with ``shift + scale * t`` the code of
        layer price ``t``: ``((L + 1 - k) * M, 1)``."""
        radix = self.code_radix
        return tuple(zip(range(self.layer_count * radix, 0, -radix), repeat(1)))

    @cached_property
    def numerator_lift(self) -> tuple[tuple[int, int], ...]:
        """Per layer k, ``(shift, scale)`` with ``shift + scale * t`` the numerator
        over D of layer price ``t``: ``(0, f_k)``."""
        return tuple(zip(repeat(0), self.layer_factors))

    def code_value(self, code: int) -> Fraction:
        """The value that ``code`` spells; a code that spells none (negative,
        level outside 1..L, or price outside ``[1, 4 * pool]``) raises
        ValueError."""
        if code == 0:
            return Fraction(0)
        level, t = divmod(code, self.code_radix)
        if not (1 <= level <= self.layer_count and 0 < t <= 8 * self.r * level):
            raise ValueError(f"{code!r} is no layer code for n={self.n}, r={self.r}")
        return Fraction(self.layer_factors[self.layer_count - level] * t, self.value_denominator)

    def value_code(self, value: Fraction | int) -> int:
        """Inverse of :meth:`code_value`: the code of ``value``.  A value that
        is not ``f_k * t / D`` with ``t`` in ``[1, 4 * pool_size(k)]`` for
        some layer k, nor 0, raises ValueError."""
        if not value:
            return 0
        num, rest = divmod(value.numerator * self.value_denominator, value.denominator)
        factors, ell = self.layer_factors, self.layer_count
        i = bisect_left(factors, -num, key=neg)  # the first layer with f_k <= num
        if i < ell and not rest:
            t, rest = divmod(num, factors[i])
            if not rest and t <= 8 * self.r * (ell - i):
                return (ell - i) * self.code_radix + t
        raise ValueError(f"{value!s} is no value of a layer for n={self.n}, r={self.r}")


@dataclass(frozen=True, slots=True)
class Subset:
    """Immutable subset of ``{0, .., size-1}`` stored as an integer bit mask."""

    size: int
    bits: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.size <= MAX_GROUND_SIZE:
            raise ValueError(f"size must be in 0..{MAX_GROUND_SIZE}, got {self.size}")
        if self.bits < 0 or self.bits >> self.size:
            raise ValueError(f"bits {self.bits:#x} out of range for size {self.size}")

    @classmethod
    def from_indices(cls, size: int, indices: Iterable[int]) -> "Subset":
        bits = 0
        for i in indices:
            if not 0 <= i < size:
                raise ValueError(f"index {i} out of range for size {size}")
            bits |= 1 << i
        return cls(size, bits)

    @classmethod
    def full(cls, size: int) -> "Subset":
        return cls(size, (1 << size) - 1)

    def indices(self) -> list[int]:
        # A sparse mask (under a quarter of its binary digits set) peels off
        # its lowest set bit per member; a denser one scans its binary digits
        # (lowest first) instead of testing each of the ``size`` positions.
        bits = self.bits
        if bits.bit_count() * 4 < bits.bit_length():
            out = []
            while bits:
                low = bits & -bits
                out.append(low.bit_length() - 1)
                bits ^= low
            return out
        return [i for i, c in enumerate(reversed(bin(bits)[2:])) if c == "1"]

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.size and bool((self.bits >> i) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __repr__(self) -> str:
        return f"Subset({self.size}, {{{', '.join(map(str, self.indices()))}}})"

    def _check_peer(self, other: "Subset") -> None:
        if not isinstance(other, Subset):
            raise TypeError(f"expected Subset, got {type(other).__name__}")
        if self.size != other.size:
            raise ValueError(f"mismatched ground sizes: {self.size} vs {other.size}")

    def __or__(self, other: "Subset") -> "Subset":
        self._check_peer(other)
        return Subset(self.size, self.bits | other.bits)

    def __and__(self, other: "Subset") -> "Subset":
        self._check_peer(other)
        return Subset(self.size, self.bits & other.bits)

    def __sub__(self, other: "Subset") -> "Subset":
        self._check_peer(other)
        return Subset(self.size, self.bits & ~other.bits)

    def is_subset_of(self, other: "Subset") -> bool:
        self._check_peer(other)
        return self.bits & ~other.bits == 0

    def to_json(self) -> list[int]:
        """Sorted index list, the wire format used everywhere."""
        return self.indices()

    @classmethod
    def from_json(cls, size: int, data: list[int]) -> "Subset":
        """Inverse of :meth:`to_json`: a strictly increasing list of ``int``
        indices (no ``bool``); anything else raises ValueError."""
        if type(data) is not list or any(type(i) is not int for i in data):
            raise ValueError("subset must be a list of integer indices")
        if any(a >= b for a, b in zip(data, data[1:])):
            raise ValueError("subset indices must strictly increase")
        return cls.from_indices(size, data)


class SingletonBatch:
    """The masks ``base | 1 << e`` for each member ``e`` of ``members``, in
    increasing ``e``: a sized iterable of ints that builds no mask list.

    A singleton round asks one of these.  Consumers that iterate it see
    plain masks; :meth:`LayerTable.values` reads ``base`` and
    ``members`` and prices the whole batch by class.  A plain class, not a
    ``collections.abc`` type: the kernel type-tests every batch it prices,
    and a test against an ABC is the slower one.
    """

    __slots__ = ("base", "members")

    def __init__(self, base: int, members: int):
        if (base | members) < 0:  # a non-int raises TypeError here
            raise ValueError(f"base and members must be non-negative masks, got {base} and {members}")
        self.base = base
        self.members = members

    def __len__(self) -> int:
        return self.members.bit_count()

    def __iter__(self) -> Iterator[int]:
        base, bits = self.base, self.members
        while bits:
            low = bits & -bits
            yield base | low
            bits ^= low


def check_json_keys(data: object, keys: tuple[str, ...], what: str) -> None:
    """The key rule of every wire parser: ``data`` must be a JSON object
    whose keys are among ``keys``, the ones its ``to_json`` writes; anything
    else raises ValueError.  Missing keys are left to the parser."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")


def relate(s: Subset, t: Subset) -> Relation:
    """Exact containment relation between two subsets of the same ground set."""
    s._check_peer(t)
    if s.bits == t.bits:
        return Relation.EQUAL
    if s.bits & ~t.bits == 0:
        return Relation.STRICT_SUBSET
    if t.bits & ~s.bits == 0:
        return Relation.STRICT_SUPERSET
    return Relation.INCOMPARABLE


def scatter(bits: int, carrier: int) -> int:
    """Mask that holds the carrier's p-th lowest member for each set bit p of
    ``bits``: a mask over the carrier's positions placed on its members."""
    out = 0
    while bits and carrier:
        low = carrier & -carrier
        if bits & 1:
            out |= low
        carrier ^= low
        bits >>= 1
    return out


def enumerate_subsets(n: int) -> Iterator[Subset]:
    """Yield all 2^n subsets in increasing integer-encoding order.

    Refuses n above :data:`EXHAUSTIVE_CAP`; the callers that need a full
    power set (brute-force oracles, exhaustive property scans) are all
    desk-scale by design.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"refusing to enumerate 2^{n} subsets (cap is n={EXHAUSTIVE_CAP})")
    for bits in range(1 << n):
        yield Subset(n, bits)
