"""Construction and exact evaluation of the layered hard function family.

An instance is a partition of the (effective) ground set into blocks
A_1..A_L of size 2r, each hiding a half-size subset R_k inside A_k.  The
value of a query S is decided entirely by the first layer k where
S does not match the hidden set (S cap A_k != R_k): a 0/1/2 containment
score on that block, a cardinality correction on the elements below it,
and a geometric per-layer scale factor.  Sets matching every layer score
exactly 0 and the union of the hidden sets is the unique minimizer.

Two evaluators are provided: the definition's recursion through nested
building blocks (kept for cross-checking) and a closed form that reads
:class:`LayerTable`, the one evaluator core: it finds a query's first
divergent layer k and its small integer layer price t, the value being
``f_k * t / D``.  The price is lifted per layer, to a layer code
(:attr:`~layeredsfm.sets.GroundConfig.code_radix`: small, order-preserving
ints) for oracle answers, transcripts and replays, or to a numerator over
D for verify's tables.  The two evaluators agree exactly on every subset.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .rationals import format_value
from .rng import SplitMix64
from .sets import GroundConfig, Relation, SingletonBatch, Subset, check_json_keys, relate

ZERO = Fraction(0)

# Inner values are gated behind an exact match with the hidden set, and the
# recursion always re-uses the same bound for them.
INNER_BOUND = Fraction(2)


def containment_score(block: Subset, hidden: Subset, s_in_block: Subset) -> Fraction:
    """Score a block query: 0 on exact match, 1 strictly inside/outside, 2 otherwise.

    ``hidden`` and ``s_in_block`` must both lie inside ``block``.
    """
    if not hidden.is_subset_of(block):
        raise ValueError("hidden set must lie inside the block")
    if not s_in_block.is_subset_of(block):
        raise ValueError("query restriction must lie inside the block")
    rel = relate(s_in_block, hidden)
    if rel is Relation.EQUAL:
        return ZERO
    if rel is Relation.INCOMPARABLE:
        return Fraction(2)
    return Fraction(1)


def submodularizer(universe: Subset, block: Subset, hidden: Subset, s: Subset) -> Fraction:
    """Signed count of queried elements below the block.

    Positive (+|S below block|) when the block part of the query sits
    strictly inside the hidden set, negative when strictly outside, zero
    otherwise.  Not submodular on its own; added at small scale it makes
    the gated construction submodular.
    """
    if not block.is_subset_of(universe):
        raise ValueError("block must lie inside the universe")
    if not hidden.is_subset_of(block):
        raise ValueError("hidden set must lie inside the block")
    if not s.is_subset_of(universe):
        raise ValueError("query must lie inside the universe")
    rel = relate(s & block, hidden)
    if rel is Relation.STRICT_SUBSET:
        return Fraction(len(s - block))
    if rel is Relation.STRICT_SUPERSET:
        return Fraction(-len(s - block))
    return ZERO


def block_value(
    universe: Subset,
    block: Subset,
    hidden: Subset,
    inner_bound: Fraction,
    inner: Callable[[Subset], Fraction],
    s: Subset,
) -> Fraction:
    """One layer of the construction over ``universe``.

    Returns ``containment_score + submodularizer/(2|universe|)`` plus, only
    when the query matches the hidden set exactly, the inner function on
    the elements below the block scaled by ``1/(4*inner_bound*|universe|)``.
    ``inner`` is required to take values in [0, inner_bound]; a value seen
    outside that range voids the construction's guarantees and raises.
    """
    if not hidden or not block or not universe:
        raise ValueError("universe, block, and hidden set must be non-empty")
    if inner_bound <= 0:
        raise ValueError(f"inner bound must be positive, got {inner_bound}")
    score = containment_score(block, hidden, s & block)
    value = score + Fraction(1, 2 * len(universe)) * submodularizer(universe, block, hidden, s)
    if (s & block) == hidden:
        inner_value = inner(s - block)
        if not 0 <= inner_value <= inner_bound:
            raise ValueError(
                f"inner function value {format_value(inner_value)} outside "
                f"[0, {format_value(Fraction(inner_bound))}]; construction contract violated"
            )
        value += Fraction(1, 4 * len(universe)) / inner_bound * inner_value
    return value


class LayeredInstance:
    """One member of the family: blocks A_1..A_L and hidden sets R_k inside them.

    Blocks are pairwise disjoint, each of size 2r, and together cover the
    effective prefix of the ground set; each hidden set has size r.  When
    2r does not divide n the trailing dummy elements never affect values,
    so the minimizer is unique only up to dummies.  Built from lists of
    layers, each checked by :meth:`LayerTable.push`, or adopted from a
    full table with :meth:`from_table`.
    """

    __slots__ = ("config", "blocks", "hidden_sets", "table", "pools")

    def __init__(self, config: GroundConfig, blocks: Sequence[Subset], hidden_sets: Sequence[Subset]):
        ell = config.layer_count
        if len(blocks) != ell or len(hidden_sets) != ell:
            raise ValueError(f"expected {ell} layers, got {len(blocks)} blocks / {len(hidden_sets)} hidden sets")
        table = LayerTable(config)
        _push_layers(table, zip(blocks, hidden_sets))
        self._adopt(table)

    @classmethod
    def from_table(cls, table: LayerTable) -> "LayeredInstance":
        """The instance whose layers are ``table``'s rows; the instance keeps
        ``table`` itself.  A table missing layers raises ValueError."""
        inst = cls.__new__(cls)
        inst._adopt(table)
        return inst

    def _adopt(self, table: LayerTable) -> None:
        config, rows = table.config, table.rows
        if len(rows) != config.layer_count:
            raise ValueError(f"table holds {len(rows)} of {config.layer_count} layers")
        self.config, self.table = config, table
        self.blocks = [Subset(config.n, row[0]) for row in rows]
        self.hidden_sets = [Subset(config.n, row[1]) for row in rows]
        self.pools = [Subset(config.n, row[2]) for row in rows]

    def layer_scale(self, layer: int) -> Fraction:
        """``1/d_k = f_k * 2 * pool_size(k) / D``, the scale of layer ``layer``'s score (1-based)."""
        config = self.config
        return Fraction(2 * config.pool_size(layer) * config.layer_factors[layer - 1], config.value_denominator)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LayeredInstance)
            and self.config == other.config
            and self.blocks == other.blocks
            and self.hidden_sets == other.hidden_sets
        )

    def __hash__(self) -> int:
        return hash((self.config, tuple(self.blocks), tuple(self.hidden_sets)))

    def __repr__(self) -> str:
        layers = ", ".join(
            f"A{k}={a.indices()}/R{k}={r.indices()}"
            for k, (a, r) in enumerate(zip(self.blocks, self.hidden_sets), start=1)
        )
        return f"LayeredInstance(n={self.config.n}, r={self.config.r}, {layers})"

    def to_json(self) -> dict:
        return {
            "n": self.config.n,
            "r": self.config.r,
            "layers": [
                {"A": a.to_json(), "R": r.to_json()}
                for a, r in zip(self.blocks, self.hidden_sets)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LayeredInstance":
        """Inverse of :meth:`to_json`; malformed input raises ValueError."""
        try:
            check_json_keys(data, ("n", "r", "layers"), "instance")
            config = GroundConfig(n=data["n"], r=data["r"])
            for layer in data["layers"]:
                check_json_keys(layer, ("A", "R"), "instance layer")
            blocks = [Subset.from_json(config.n, layer["A"]) for layer in data["layers"]]
            hidden = [Subset.from_json(config.n, layer["R"]) for layer in data["layers"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed instance JSON: {exc!r}") from exc
        return cls(config, blocks, hidden)


def _divergent_layer(prefix_unions: Sequence[int], mismatch: int) -> int | None:
    """Smallest k (1-based) with ``mismatch & prefix_unions[k-1] != 0``, or None.

    With ``prefix_unions[k-1] = A_1 | .. | A_k`` over disjoint blocks and
    ``mismatch = s ^ (R_1 | .. | R_L)``, that k is the first layer with
    ``s cap A_k != R_k``: the mismatch meets A_k exactly when layer k
    diverges.  A mask that meets no block costs one AND; otherwise, as the
    test is monotone in k, k is bisected below L, in at most ceil(log2 L)
    + 1 big-int ANDs in all.  Bits outside every block (dummies, or layers
    not yet committed) never count.
    """
    if not prefix_unions or not mismatch & prefix_unions[-1]:
        return None
    return bisect_left(prefix_unions, 1, 0, len(prefix_unions) - 1, key=mismatch.__and__) + 1


def _layer_price(row: tuple[int, int, int, int], s_bits: int) -> int:
    """The layer price ``t = score * 2 * |pool_k| + corr`` of the value at
    ``s_bits``, for a query that diverges at the layer of :class:`LayerTable`
    row ``row = (A_k, R_k, pool_k, |pool_k|)``; ``t`` lies in ``[1, 4 *
    |pool_k|]``, and the value is ``f_k * t / D``.

    The one home of the layer rule: :meth:`LayerTable.values` lifts its
    prices per layer, to codes or numerators over D, the adversary
    prices the candidate block's row with it, and the test reference
    :func:`_layer_value` divides it by the layer's scale.  Raises
    ValueError unless the query diverges here.
    """
    block_bits, hidden_bits, pool_bits, pool_card = row
    sa = s_bits & block_bits
    if sa == hidden_bits:
        raise ValueError("layer does not diverge on this query")
    below = (s_bits & pool_bits).bit_count() - sa.bit_count()  # the block lies inside the pool
    if sa | hidden_bits == hidden_bits:
        score, corr = 1, below
    elif sa | hidden_bits == sa:
        score, corr = 1, -below
    else:
        score, corr = 2, 0
    return score * 2 * pool_card + corr


class LayerTable:
    """The layer lookup over the committed layers 1..k of an instance.

    ``rows[k-1] = (A_k, R_k, pool_k, |pool_k|)``: layer k's block, hidden
    set and pool (the elements still unclassified when it opens) as
    masks, and the pool's size.
    ``prefix_unions[k-1] = A_1 | .. | A_k``, ``hidden_union`` joins the
    committed R's, ``pool`` is the next layer's pool and ``pool_card`` its
    size.  Every layer
    enters through :meth:`push`.  An instance adopts a full table; the
    halving adversary pushes each layer as it commits, and its finalized
    instance adopts that table.  ``_hints`` holds the last two distinct
    layers that :meth:`layer_of` placed, the later first (0 before there
    is one): the next lookup tries both before it searches.  They steer
    the lookup only, so lookups that race on one table cost speed, never a
    wrong layer.  ``_subcube_index`` keeps ``(width, plan)`` for the last
    width :meth:`_subcube` tabulated (:meth:`_subcube_plan`).
    """

    __slots__ = ("config", "rows", "prefix_unions", "hidden_union", "pool", "pool_card", "_hints",
                 "_subcube_index")

    def __init__(self, config: GroundConfig):
        self.config = config
        self.rows: list[tuple[int, int, int, int]] = []
        self.prefix_unions: list[int] = []
        self.hidden_union = 0
        self.pool = (1 << config.effective_size) - 1
        self.pool_card = config.effective_size
        self._hints = (0, 0)
        self._subcube_index: tuple[int, tuple[Callable, list[Callable]]] | None = None

    def next_row(self, block: int, hidden: int) -> tuple[int, int, int, int]:
        """The row that ``push(block, hidden)`` appends as the next layer."""
        return block, hidden, self.pool, self.pool_card

    def push(self, block: int, hidden: int) -> None:
        """Commit the next layer's block and hidden set, as masks.

        The one validator of a layer: the block is 2r members of ``pool``
        and the hidden set r members of the block, so blocks never overlap
        or hold a dummy, L pushes cover the effective prefix exactly, and a
        push past layer L finds the pool empty.  Anything else raises
        ValueError and leaves the table as it was.
        """
        k, r = len(self.rows) + 1, self.config.r
        if block.bit_count() != 2 * r:
            raise ValueError(f"layer {k} block has {block.bit_count()} elements, expected {2 * r}")
        if hidden.bit_count() != r:
            raise ValueError(f"layer {k} hidden set has {hidden.bit_count()} elements, expected {r}")
        if hidden & ~block:
            raise ValueError(f"layer {k} hidden set must lie inside its block")
        if block & ~self.pool:  # past layer L the pool is empty
            raise ValueError(f"layer {k} block overlaps an earlier block or holds a dummy element")
        self.rows.append(self.next_row(block, hidden))
        self.prefix_unions.append((self.prefix_unions[-1] if self.prefix_unions else 0) | block)
        self.hidden_union |= hidden
        self.pool &= ~block
        self.pool_card -= 2 * r

    def layer_of(self, s_bits: int) -> int | None:
        """First committed layer k (1-based) with ``s cap A_k != R_k``, or None.

        The one home of the hinted lookup.  With ``x = s ^ hidden_union``,
        two ANDs (``x`` meets A_1 | .. | A_k but not A_1 | .. | A_(k-1))
        prove that k is the layer, since that test is monotone in k.  The
        mask tries the two hints, the later first; only a mask that fails
        both is bisected (:func:`_divergent_layer`).  A layer found that is
        not the later hint becomes it, and the later becomes the earlier; a
        mask matching every committed layer leaves the hints alone.  So the
        family-aware solver's queries, whose layer alternates between k and
        k + 1, rarely search.
        """
        unions, x = self.prefix_unions, s_bits ^ self.hidden_union
        last, before = self._hints
        if last and x & unions[last - 1] and (last == 1 or not x & unions[last - 2]):
            return last
        if before and x & unions[before - 1] and (before == 1 or not x & unions[before - 2]):
            k = before
        else:
            k = _divergent_layer(unions, x)
            if k is None:
                return None
        self._hints = (k, last)
        return k

    def values(self, masks: Sequence[int], lift: Sequence[tuple[int, int]]) -> list[int]:
        """The values at ``masks``: each mask's layer price t at its first
        divergent layer k, lifted by ``(shift, scale) = lift[k-1]`` to
        ``shift + scale * t``; 0 where every committed layer matches.  With
        ``config.code_lift`` these are layer codes, what the oracles answer
        and transcripts keep; with ``config.numerator_lift``, numerators over
        ``config.value_denominator``, verify's tables.

        A :class:`~layeredsfm.sets.SingletonBatch` is priced by class
        (:meth:`_singletons`).  On a full table, an aligned sub-cube (a
        step-1 ``range`` of 2^b masks whose start is a multiple of 2^b) is
        tabulated by :meth:`_subcube`.  Mask lists, other ranges and other
        sequences are priced mask by mask: :meth:`layer_of` places each
        mask, trying the two layers placed last (in this call or an earlier
        one) before it searches, and its layer's row prices it.
        """
        rows = self.rows
        if not isinstance(masks, list):
            if isinstance(masks, SingletonBatch):
                return self._singletons(masks.base, masks.members, lift)
            if isinstance(masks, range) and masks.step == 1 and len(rows) == self.config.layer_count:
                size = len(masks)
                if size and not size & (size - 1) and not masks.start % size:
                    return self._subcube(masks.start, size.bit_length() - 1, lift)
        layer_of = self.layer_of
        out = []
        for m in masks:
            k = layer_of(m)
            if k:
                shift, scale = lift[k - 1]
                out.append(shift + scale * _layer_price(rows[k - 1], m))
            else:
                out.append(0)
        return out

    def _singletons(self, base: int, members: int, lift: Sequence[tuple[int, int]]) -> list[int]:
        """The lifted values at ``base | 1 << e`` for each member ``e``, in increasing ``e``.

        With k the layer of ``base``, a "far" member (outside ``base`` and
        outside A_1..A_k, or outside every committed block when k is None)
        leaves base's match with layers 1..k-1 and its part of A_k as they
        were.  So it diverges at k and adds one element below the block
        (pool_k holds it): every far member takes one price.  A dummy
        member, in ``base`` or not, is worth base's own price, and every far
        member and dummy is worth 0 when k is None.  Dummies are the top
        indices, so each price fills one run.  The "near" members (in
        ``base`` or in A_1..A_k, below the dummies) go through the mask loop
        and are written at their positions.  A round costs |near| + 2
        prices, not one per member.
        """
        k = self.layer_of(base)
        inside = members & ((1 << self.config.effective_size) - 1)
        dummies = (members ^ inside).bit_count()
        if k is None:
            near = inside & (base | (self.prefix_unions[-1] if self.rows else 0))
            out = [0] * (inside.bit_count() + dummies)
        else:
            row = self.rows[k - 1]
            shift, scale = lift[k - 1]
            near = inside & (base | self.prefix_unions[k - 1])
            far = inside ^ near
            out = [shift + scale * _layer_price(row, base | (far & -far)) if far else 0] * inside.bit_count()
            if dummies:
                out += [shift + scale * _layer_price(row, base)] * dummies
        if near:
            positions, masks = [], []
            while near:
                bit = near & -near
                positions.append((members & (bit - 1)).bit_count())
                masks.append(base | bit)
                near ^= bit
            for i, value in zip(positions, self.values(masks, lift)):
                out[i] = value
        return out

    def _subcube(self, start: int, width: int, lift: Sequence[tuple[int, int]]) -> list[int]:
        """The lifted values at ``range(start, start + 2^width)``, ``start`` a
        multiple of 2^width, on a full table: the low ``width`` bits are free
        and the others fixed at ``start``'s.

        Built layer by layer from the deepest, with list copies and no
        Python step per mask.  Each layer's free block bits take the next
        coordinates, so the table over layers k..L holds, for each assignment
        of A_k's free bits in turn (submasks in increasing order), one
        segment over the deeper coordinates: the deeper table where the
        block part equals R_k, and otherwise the lifted layer price of each
        deeper popcount (plus the fixed bits below A_k).  That price line,
        from :func:`_layer_price` at two sample masks and lifted once,
        depends only on whether the block part (which holds nothing below
        A_k) is a strict subset or superset of R_k or neither, so each such
        segment is built once per layer.  Free bits outside every block take
        the top coordinates.  The gathers of :meth:`_subcube_plan` spread
        each line over the deeper popcounts and map the table to mask order.
        """
        free = (1 << width) - 1
        index_gather, pop_gathers = self._subcube_plan(width)
        table = [0]  # values over the coordinates taken so far
        depth = 0
        for row, (shift, scale), pop_gather in zip(reversed(self.rows), reversed(lift), pop_gathers):
            block, hidden, pool = row[0], row[1], row[2]
            below = pool & ~block
            sample = below & -below  # an element below the block, if there is one
            fixed, base = start & block, (start & below).bit_count()
            loose = block & free
            deeper, table = table, []
            segments: dict[tuple[bool, bool], tuple[int, ...]] = {}
            sub = 0
            while True:
                s_bits = sub | fixed
                if s_bits == hidden:
                    table += deeper
                else:
                    kind = (not s_bits & ~hidden, not hidden & ~s_bits)
                    segment = segments.get(kind)
                    if segment is None:
                        t0 = _layer_price(row, s_bits)
                        slope = scale * (_layer_price(row, s_bits | sample) - t0)
                        v0 = shift + scale * t0 + slope * base
                        segment = segments[kind] = pop_gather([v0 + slope * c for c in range(depth + 1)])
                    table += segment
                sub = (sub - loose) & loose
                if not sub:
                    break
            depth += loose.bit_count()
        table *= 1 << (free & ~self.prefix_unions[-1]).bit_count()
        del deeper  # as large as the table when the top layer has no free bit
        table = index_gather(table)  # in mask order; the coordinate-order list is freed
        return list(table)

    def _subcube_plan(self, width: int) -> tuple[Callable, list[Callable]]:
        """``(index_gather, pop_gathers)`` for :meth:`_subcube` at ``width``.

        ``index_gather(table)`` reads the 2^width values of a sub-cube, in
        mask order, off :meth:`_subcube`'s table.  ``pop_gathers[i]``, for
        the i-th layer from the deepest, reads ``prices[popcount(c)]`` for
        each of the 2^depth coordinates ``c`` that the deeper layers took;
        layers starting at one depth share it.  The plan depends on the
        width and the rows only, so the table keeps the last width's: brute
        force asks one width for every chunk, and the memory held stays that
        of the largest sub-cube asked.
        """
        cached = self._subcube_index
        if cached is not None and cached[0] == width:
            return cached[1]
        free = (1 << width) - 1
        coords = [0] * width  # coordinate of each free bit
        depth, pop_gathers = 0, []
        gathers = {0: tuple}  # by depth; depth 0 reads one price (itemgetter(0) would return it bare)
        for row in reversed(self.rows):
            if depth not in gathers:
                gathers[depth] = itemgetter(*map(int.bit_count, range(1 << depth)))
            pop_gathers.append(gathers[depth])
            depth = _take_coordinates(coords, row[0] & free, depth)
        _take_coordinates(coords, free & ~self.prefix_unions[-1], depth)
        index = [0]
        for c in coords:
            index += list(map((1 << c).__add__, index))
        plan = (itemgetter(*index) if width else tuple, pop_gathers)
        self._subcube_index = (width, plan)
        return plan


def _take_coordinates(coords: list[int], bits: int, depth: int) -> int:
    """Give the members of ``bits``, in increasing order, the coordinates
    ``depth, depth + 1, ..`` in ``coords``; return the next free coordinate."""
    while bits:
        low = bits & -bits
        coords[low.bit_length() - 1] = depth
        depth += 1
        bits ^= low
    return depth


def first_divergent_layer(inst: LayeredInstance, s: Subset) -> int | None:
    """Smallest layer k (1-based) with ``s cap A_k != R_k``, or None if all match."""
    if s.size != inst.config.n:
        raise ValueError(f"query must live on the {inst.config.n}-element ground set")
    return inst.table.layer_of(s.bits)


def _layer_value(
    block_bits: int, hidden_bits: int, pool_bits: int, pool_card: int, denom: int, s_bits: int
) -> Fraction:
    """Scaled score of one divergent layer, given raw masks, as a ``Fraction``
    over ``denom * 2 * pool_card``.  No evaluator calls it; tests use it as
    the per-layer reference for the kernel.  Assumes the query diverges here.
    """
    return Fraction(_layer_price((block_bits, hidden_bits, pool_bits, pool_card), s_bits), denom * 2 * pool_card)


def evaluate_closed_form(inst: LayeredInstance, s: Subset) -> Fraction:
    """Value of the instance at ``s`` via the first-divergent-layer formula:
    the :meth:`LayerTable.values` numerator at ``s`` over
    ``config.value_denominator``.  It serves :meth:`HonestOracle.answer`
    and agrees exactly with :func:`evaluate_recursive`.
    """
    if s.size != inst.config.n:
        raise ValueError(f"query must live on the {inst.config.n}-element ground set")
    config = inst.config
    (num,) = inst.table.values([s.bits], config.numerator_lift)
    return Fraction(num, config.value_denominator)


def evaluate_recursive(inst: LayeredInstance, s: Subset) -> Fraction:
    """Value of the instance at ``s`` by the definition's recursion through block values.

    Layer k is a :func:`block_value` over the pool of still-unclassified
    elements, whose gated inner function is layer k + 1; the last layer is a
    bare containment score.  Dummy elements are ignored.  Kept as the
    independent cross-check for the closed form.  An inner function is read
    only on a match, so the query is walked down to its first divergent
    layer and the values are folded back up, each block's inner a constant:
    the stack does not grow with L.
    """
    if s.size != inst.config.n:
        raise ValueError(f"query must live on the {inst.config.n}-element ground set")
    last, depth = inst.config.layer_count, 1
    while depth < last and s.bits & inst.blocks[depth - 1].bits == inst.hidden_sets[depth - 1].bits:
        depth += 1
    value = ZERO  # the deepest layer reached never reads its inner function
    for k in range(depth, 0, -1):
        block, hidden, part = inst.blocks[k - 1], inst.hidden_sets[k - 1], s & inst.pools[k - 1]
        if k == last:
            value = containment_score(block, hidden, part & block)
        else:
            value = block_value(inst.pools[k - 1], block, hidden, INNER_BOUND, lambda _, v=value: v, part)
    return value


def true_minimizer(inst: LayeredInstance) -> Subset:
    """Union of the hidden sets: the minimizer of the instance.

    Unique when 2r divides n; otherwise it is the minimal minimizer over
    the effective prefix (adding dummies never changes the value).
    """
    return Subset(inst.config.n, inst.table.hidden_union)


def lowest_first(items: Sequence[int], count: int) -> list[int]:
    """Pick rule of canonical completions: the ``count`` first (lowest) items."""
    return list(items[:count])


def draw_layer(
    config: GroundConfig, pool: list[int], pick: Callable[[Sequence[int], int], list[int]]
) -> tuple[int, int]:
    """Draw one layer from ``pool``, the unclassified elements in increasing
    order: ``pick(pool, 2r)`` is the block and ``pick(block, r)`` the hidden
    set.  Removes the block from ``pool`` in place; returns both as masks.

    The one home of the per-layer draw, so every completion of the same
    pool with the same ``pick`` stream draws the same layers.
    """
    a_idx = pick(pool, 2 * config.r)
    for e in a_idx:
        del pool[bisect_left(pool, e)]
    return sum(1 << e for e in a_idx), sum(1 << e for e in pick(a_idx, config.r))


def _push_layers(table: LayerTable, layers: Iterable[tuple[Subset, Subset]]) -> None:
    """Push (block, hidden) ``Subset`` pairs, which must live on the table's ground set."""
    n = table.config.n
    for a, r in layers:
        if a.size != n or r.size != n:
            raise ValueError(f"layer {len(table.rows) + 1} sets must live on the {n}-element ground set")
        table.push(a.bits, r.bits)


def complete_instance(
    config: GroundConfig,
    prefix: Iterable[tuple[Subset, Subset]],
    pick: Callable[[Sequence[int], int], list[int]],
) -> LayeredInstance:
    """Extend ``prefix`` (pinned (block, hidden) pairs) to a full instance.

    Each remaining layer is :func:`draw_layer` over the unclassified
    elements, kept as one increasing list for the whole completion.
    """
    table = LayerTable(config)
    _push_layers(table, prefix)
    pool = Subset(config.n, table.pool).indices()
    while len(table.rows) < config.layer_count:
        table.push(*draw_layer(config, pool, pick))
    return LayeredInstance.from_table(table)


def sample_instance(
    config: GroundConfig,
    seed: int,
    prefix: Iterable[tuple[Subset, Subset]] = (),
) -> LayeredInstance:
    """Uniformly random instance, deterministic given ``seed``.

    Layer by layer, the block is uniform among size-2r subsets of the
    remaining pool and the hidden set uniform among its size-r subsets.
    ``prefix`` optionally pins the first layers to given (block, hidden)
    pairs; the remaining layers are sampled uniformly, which yields a
    uniform draw among the instances extending that prefix.
    """
    return complete_instance(config, prefix, SplitMix64(seed).sample)


def canonical_instance(
    config: GroundConfig,
    prefix: Iterable[tuple[Subset, Subset]] = (),
) -> LayeredInstance:
    """Lowest-index completion: each remaining layer takes the smallest
    pool indices as its block and the smallest of those as hidden."""
    return complete_instance(config, prefix, lowest_first)
