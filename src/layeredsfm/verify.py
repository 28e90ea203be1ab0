"""Executable structure checks: submodularity, range, minimizer, witnesses.

Exhaustive submodularity verdicts come from the local "diamond" condition
F(S+i) + F(S+j) >= F(S+i+j) + F(S), which on the Boolean lattice is
equivalent to the pairwise inequality and costs O(n^2 * 2^n) instead of
O(4^n).  The diamonds are compared in packed lanes: the table, less its
minimum, is one int of 2^n lanes of ``w = 8 * nb`` bits, with ``nb`` the
fewest bytes that hold the spread and two spare bits.  An instance's table
has minimum 0 and is packed as it is; another is shifted once by its
minimum first.  The marginal gains
along one axis, biased by 2^(w-2), and their differences along a second
axis, biased by 2^(w-1), then stay inside [0, 2^w) in every lane, so no
borrow crosses a lane, and a pair of axes is checked in a shift, a
subtract, a mask and a compare of big ints.  The lane masks for the last
``(n, nb)`` stay in one module slot, about ``n * 2^n * nb`` bytes (235 KiB
at n = 12 with 5-byte lanes).  The pairwise scan
runs only after a diamond fails, to name the canonical first violating
pair.  The marginal-form scan is kept as an independent check of the
definition: the verdicts must agree, which is itself a checkable
property.  Witness search order is canonical (increasing integer
encoding), so any failure reproduces exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import repeat
from typing import Callable, Sequence

from .family import (
    LayeredInstance,
    block_value,
    submodularizer,
    true_minimizer,
)
from .rationals import format_value
from .rng import SplitMix64
from .sets import GroundConfig, Subset, scatter

EXHAUSTIVE_PAIR_CAP = 12

SetFunction = Callable[[Subset], Fraction]


@dataclass(frozen=True)
class ViolationWitness:
    """A concrete, re-verifiable failure of submodularity.

    Pair form (``element`` is None): lhs = F(X) + F(Y) fell strictly below
    rhs = F(X u Y) + F(X n Y).  Marginal form: X lies inside Y, ``element``
    is outside Y, and lhs = marginal at Y strictly exceeds rhs = marginal
    at X.
    """

    x: Subset
    y: Subset
    element: int | None
    lhs: Fraction
    rhs: Fraction

    def to_json(self) -> dict:
        return {
            "X": self.x.to_json(),
            "Y": self.y.to_json(),
            "element": self.element,
            "lhs": format_value(self.lhs),
            "rhs": format_value(self.rhs),
        }

    def reverify(self, fn: SetFunction) -> bool:
        """Recompute the four values and confirm the recorded violation."""
        if self.element is None:
            lhs = fn(self.x) + fn(self.y)
            rhs = fn(self.x | self.y) + fn(self.x & self.y)
            return lhs == self.lhs and rhs == self.rhs and lhs < rhs
        e = Subset.from_indices(self.x.size, [self.element])
        lhs = fn(self.y | e) - fn(self.y)
        rhs = fn(self.x | e) - fn(self.x)
        return (
            self.x.is_subset_of(self.y)
            and self.element not in self.y
            and lhs == self.lhs
            and rhs == self.rhs
            and lhs > rhs
        )


def _instance_prices(inst: LayeredInstance, n: int) -> tuple[Callable[[Sequence[int]], list[int]], int]:
    """``(price, D)``: ``price(masks)`` is the instance's values at ``masks``
    as numerators over ``D = config.value_denominator``, read from its layer table."""
    if n != inst.config.n:
        raise ValueError(f"cannot evaluate an instance on {inst.config.n} elements over {n}")
    config = inst.config
    return partial(inst.table.values, lift=config.numerator_lift), config.value_denominator


def _tabulate(fn: SetFunction | LayeredInstance, n: int) -> tuple[list[int], int]:
    """All 2^n values as integers over a common denominator.

    An instance is read from its layer table, over ``D = config.value_denominator``;
    any other evaluator's values (``Fraction`` or ``int``) over their least
    common denominator.
    """
    if isinstance(fn, LayeredInstance):
        price, den = _instance_prices(fn, n)
        return price(range(1 << n)), den
    values = [fn(Subset(n, bits)) for bits in range(1 << n)]
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


_lane_masks: tuple[int, int, list[int]] | None = None  # (n, nb, masks) of the last scan


def _high_bits(n: int, nb: int) -> list[int]:
    """``masks[j]`` sets the top bit of each of 2^n ``nb``-byte lanes whose
    index has bit j clear.  Only the last ``(n, nb)`` is kept, about
    ``n * 2^n * nb`` bytes, so a new one replaces it."""
    global _lane_masks
    if _lane_masks is not None and _lane_masks[:2] == (n, nb):
        return _lane_masks[2]
    _lane_masks = None  # free the old masks before building the new ones
    on, off = bytes(nb - 1) + b"\x80", bytes(nb)
    masks = [int.from_bytes((on * (1 << j) + off * (1 << j)) * (1 << (n - 1 - j)), "little") for j in range(n)]
    _lane_masks = (n, nb, masks)
    return masks


def _pack(ints: list[int], nb: int) -> int:
    """``sum(v << (8 * nb * S))`` over a non-negative table: one ``nb``-byte
    lane per entry, built 512 entries at a time."""
    packed = bytearray()
    for start in range(0, len(ints), 512):
        packed += b"".join(map(int.to_bytes, ints[start : start + 512], repeat(nb), repeat("little")))
    return int.from_bytes(packed, "little")


def _diamonds_hold(ints: list[int], n: int, lo: int | None = None, hi: int | None = None) -> bool:
    """True when F(S+i) + F(S+j) >= F(S+i+j) + F(S) for every S and i != j outside S.

    That is, each marginal gain G_i(S) = F(S+i) - F(S) over S not holding i
    is non-increasing along every axis j > i (the pair {i, j} needs one of
    its two axes).  Checked in packed lanes of ``w`` bits (module docstring).
    ``lo`` and ``hi``, the table's minimum and maximum, are computed when
    ``lo`` is not given.  A table whose minimum is 0 (every instance's) is
    packed as it is; any other is shifted by ``lo`` first.
    """
    if n < 2:
        return True
    if lo is None:
        lo, hi = min(ints), max(ints)
    if lo:
        ints = list(map((-lo).__add__, ints))
    nb = ((hi - lo).bit_length() + 9) // 8  # the fewest bytes with spread < 2^(w-2)
    w = 8 * nb
    masks = _high_bits(n, nb)
    top = masks[0] + (masks[0] << w)  # the top bit of every lane
    packed = _pack(ints, nb)
    neg = (3 * top >> 1) - packed  # lane S: 3 * 2^(w-2) - (F(S) - lo)
    for i in range(n - 1):
        m = masks[i]
        xt = (packed >> (w << i)) + neg  # lane S: G_i(S) + 3 * 2^(w-2), in (2^(w-1), 2^w)
        g = xt & (m - (m >> (w - 1)))  # lane S: G_i(S) + 2^(w-2) where S lacks i, else 0
        for j in range(i + 1, n):
            m = masks[j]
            # Lane S: 2^(w-1) + G_i(S) - G_i(S+j) where S lacks i and j; over 2^(w-1) where S holds i.
            if (xt - (g >> (w << j))) & m != m:
                return False
    return True


def _first_violating_pair(ints: list[int], den: int, n: int, lo: int, hi: int) -> ViolationWitness | None:
    """Exhaustive verdict over a :func:`_tabulate` table with minimum ``lo``
    and maximum ``hi``: None when every diamond holds, else the first
    violating pair in increasing encoding.  A failed diamond with no
    failing pair raises ``RuntimeError``: the two scans disagree, so one of
    them is wrong."""
    if _diamonds_hold(ints, n, lo, hi):
        return None
    size = 1 << n
    for x in range(size):
        vx = ints[x]
        for y in range(x, size):
            if vx + ints[y] < ints[x | y] + ints[x & y]:
                return ViolationWitness(
                    x=Subset(n, x),
                    y=Subset(n, y),
                    element=None,
                    lhs=Fraction(vx + ints[y], den),
                    rhs=Fraction(ints[x | y] + ints[x & y], den),
                )
    raise RuntimeError("the diamond and pair scans disagree: a diamond fails but no pair does")


def check_submodular_pairs(
    fn: SetFunction | LayeredInstance, n: int, *, samples: int = 10_000, seed: int = 0
) -> ViolationWitness | None:
    """First violating pair of F(X)+F(Y) >= F(XuY)+F(XnY), or None.

    Exhaustive for n <= 12: the verdict comes from the diamond condition
    (every pair holds exactly when every diamond does), and only when a
    diamond fails are the unordered pairs scanned in increasing encoding
    (the inequality is symmetric in X and Y, so they cover the full 4^n
    scan) to return the canonical first violating pair.  For larger n a
    seeded sample of ``samples`` pairs is checked instead; an instance's
    pairs are priced as numerators over D from its layer table.
    """
    if n <= EXHAUSTIVE_PAIR_CAP:
        ints, den = _tabulate(fn, n)
        return _first_violating_pair(ints, den, n, min(ints), max(ints))

    if isinstance(fn, LayeredInstance):
        price, den = _instance_prices(fn, n)
    else:
        price, den = (lambda masks: [fn(Subset(n, m)) for m in masks]), 1
    rng = SplitMix64(seed)
    full = (1 << n) - 1
    for _ in range(samples):
        x = rng.bits(n) & full
        y = rng.bits(n) & full
        vx, vy, vu, vi = price((x, y, x | y, x & y))
        if vx + vy < vu + vi:
            return ViolationWitness(Subset(n, x), Subset(n, y), None, Fraction(vx + vy, den), Fraction(vu + vi, den))
    return None


def check_marginal_submodular(fn: SetFunction, n: int) -> ViolationWitness | None:
    """First (X, Y, e) with X inside Y, e outside Y, and a larger marginal at Y.

    Exhaustive (n <= 12); gives the same verdict as the pair scan, in
    marginal-witness form.
    """
    if n > EXHAUSTIVE_PAIR_CAP:
        raise ValueError(f"marginal scan is exhaustive-only (n <= {EXHAUSTIVE_PAIR_CAP})")
    ints, den = _tabulate(fn, n)
    for y in range(1 << n):
        submasks = []
        sub = y
        while True:
            submasks.append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & y
        submasks.reverse()  # ascending encoding order
        for e in range(n):
            bit = 1 << e
            if y & bit:
                continue
            dy = ints[y | bit] - ints[y]
            for x in submasks:
                if dy > ints[x | bit] - ints[x]:
                    return ViolationWitness(
                        x=Subset(n, x),
                        y=Subset(n, y),
                        element=e,
                        lhs=Fraction(dy, den),
                        rhs=Fraction(ints[x | bit] - ints[x], den),
                    )
    return None


@dataclass(frozen=True)
class PropertyReport:
    """Range, unique-minimizer, and submodularity verdicts for one function."""

    range_ok: bool
    unique_min_ok: bool
    submodular_ok: bool
    minimizer: Subset
    witness: ViolationWitness | None = None

    @property
    def all_ok(self) -> bool:
        return self.range_ok and self.unique_min_ok and self.submodular_ok

    def to_json(self) -> dict:
        return {
            "range_ok": self.range_ok,
            "unique_min_ok": self.unique_min_ok,
            "submodular_ok": self.submodular_ok,
            "minimizer": self.minimizer.to_json(),
            "witness": None if self.witness is None else self.witness.to_json(),
        }


def check_function_properties(
    fn: SetFunction | LayeredInstance, n: int, predicted_min: Subset
) -> PropertyReport:
    """Range/minimizer/submodularity verdict for an arbitrary evaluator, or
    for an instance's own values (n <= 12)."""
    if n > EXHAUSTIVE_PAIR_CAP:
        raise ValueError(f"exhaustive verification capped at n={EXHAUSTIVE_PAIR_CAP}")
    ints, den = _tabulate(fn, n)  # F(S) = ints[S] / den, den > 0
    lowest, highest = min(ints), max(ints)
    range_ok = 0 <= lowest and highest <= 2 * den
    minimizer = ints.index(lowest)  # the first of the argmin set
    unique_min_ok = ints.count(lowest) == 1 and minimizer == predicted_min.bits
    witness = _first_violating_pair(ints, den, n, lowest, highest)
    return PropertyReport(
        range_ok=range_ok,
        unique_min_ok=unique_min_ok,
        submodular_ok=witness is None,
        minimizer=Subset(n, minimizer),
        witness=witness,
    )


def check_instance_properties(inst: LayeredInstance) -> PropertyReport:
    """Exhaustively verify one instance: values in [0,2], unique minimizer
    equal to the union of hidden sets, and submodularity (n <= 12)."""
    return check_function_properties(inst, inst.config.n, true_minimizer(inst))


def check_block_properties(
    universe: Subset,
    block: Subset,
    hidden: Subset,
    inner_bound: Fraction,
    inner: SetFunction,
) -> PropertyReport:
    """Exhaustively verify one building block over ``universe``.

    The predicted unique minimizer is the hidden set joined with the inner
    function's own minimizer (found by enumeration over the elements below
    the block).
    """
    n = universe.size
    if len(universe) > EXHAUSTIVE_PAIR_CAP:
        raise ValueError(f"exhaustive verification capped at {EXHAUSTIVE_PAIR_CAP} elements")
    if universe.bits != (1 << n) - 1:
        raise ValueError("building-block verification expects universe == full ground set")
    below = universe - block
    best_bits, best_val = 0, None
    for mask in range(1 << len(below)):
        bits = scatter(mask, below.bits)
        v = inner(Subset(n, bits))
        if best_val is None or v < best_val:
            best_bits, best_val = bits, v
    predicted = Subset(n, hidden.bits | best_bits)
    return check_function_properties(
        lambda s: block_value(universe, block, hidden, inner_bound, inner, s),
        n,
        predicted,
    )


def find_submodularizer_violation(
    config: GroundConfig, block: Subset | None = None, hidden: Subset | None = None
) -> ViolationWitness:
    """Construct (and verify) a marginal violation for the bare submodularizer.

    The pattern needs the block to have at least two elements outside the
    hidden set, hence r >= 2: take X = hidden + one element below the
    block, Y = X + one block element outside the hidden set (keeping Y's
    block part strictly between hidden and block), and e a block element
    outside Y.  Adding e to X drops the submodularizer by |X below block|
    while adding it to Y changes nothing.
    """
    if config.r < 2:
        raise ValueError("the violation pattern needs r >= 2 (block strictly larger than hidden + 1)")
    n = config.n
    if block is None:
        block = Subset.from_indices(n, range(2 * config.r))
    if hidden is None:
        hidden = Subset.from_indices(n, block.indices()[: config.r])
    if not hidden.is_subset_of(block) or len(block) < len(hidden) + 2:
        raise ValueError("need hidden inside block with at least two block elements to spare")
    universe = Subset.full(n)
    outside = (universe - block).indices()
    if not outside:
        raise ValueError("need at least one element below the block")
    spare = (block - hidden).indices()

    x = hidden | Subset.from_indices(n, [outside[0]])
    y = x | Subset.from_indices(n, [spare[0]])
    e = spare[1]
    fn = lambda s: submodularizer(universe, block, hidden, s)
    e_set = Subset.from_indices(n, [e])
    witness = ViolationWitness(
        x=x, y=y, element=e, lhs=fn(y | e_set) - fn(y), rhs=fn(x | e_set) - fn(x)
    )
    if not witness.reverify(fn):
        raise RuntimeError("constructed pattern failed re-verification")  # pragma: no cover
    return witness
