import itertools
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from layeredsfm import family
from layeredsfm.family import (
    LayeredInstance,
    LayerTable,
    _divergent_layer,
    _layer_price,
    block_value,
    canonical_instance,
    containment_score,
    draw_layer,
    evaluate_closed_form,
    evaluate_recursive,
    first_divergent_layer,
    lowest_first,
    sample_instance,
    submodularizer,
    true_minimizer,
)
from layeredsfm.oracles import HalvingAdversary, HonestOracle
from layeredsfm.rng import SplitMix64
from layeredsfm.sets import GroundConfig, SingletonBatch, Subset, enumerate_subsets
from layeredsfm.solvers import brute_force_minimize
from layeredsfm.verify import check_instance_properties
from test_sets import scale_denominators


def subset(n, *indices):
    return Subset.from_indices(n, indices)


@pytest.fixture
def two_layer_instance():
    """n=4, r=1 instance with blocks {0,1}/{2,3} hiding {0}/{2}."""
    cfg = GroundConfig(4, 1)
    return LayeredInstance(
        cfg,
        [subset(4, 0, 1), subset(4, 2, 3)],
        [subset(4, 0), subset(4, 2)],
    )


class TestContainmentScore:
    def test_cases(self):
        block, hidden = subset(2, 0, 1), subset(2, 0)
        assert containment_score(block, hidden, Subset(2)) == 1
        assert containment_score(block, hidden, subset(2, 0)) == 0
        assert containment_score(block, hidden, subset(2, 1)) == 2

    def test_containment_enforced(self):
        with pytest.raises(ValueError):
            containment_score(subset(3, 0), subset(3, 1), Subset(3))
        with pytest.raises(ValueError):
            containment_score(subset(3, 0), subset(3, 0), subset(3, 2))


class TestSubmodularizer:
    def test_cases(self):
        universe = Subset.full(4)
        block, hidden = subset(4, 0, 1), subset(4, 0)
        assert submodularizer(universe, block, hidden, subset(4, 2, 3)) == 2
        assert submodularizer(universe, block, hidden, subset(4, 0, 1, 2)) == -1
        assert submodularizer(universe, block, hidden, subset(4, 1, 3)) == 0

    def test_zero_on_exact_match(self):
        universe = Subset.full(4)
        block, hidden = subset(4, 0, 1), subset(4, 0)
        assert submodularizer(universe, block, hidden, subset(4, 0, 2, 3)) == 0

    def test_containment_enforced(self):
        with pytest.raises(ValueError, match="block must lie inside the universe"):
            submodularizer(subset(4, 0, 1), subset(4, 0, 2), subset(4, 0), Subset(4))
        with pytest.raises(ValueError, match="hidden set must lie inside the block"):
            submodularizer(Subset.full(4), subset(4, 0, 1), subset(4, 2), Subset(4))
        with pytest.raises(ValueError, match="query must lie inside the universe"):
            submodularizer(subset(4, 0, 1, 2), subset(4, 0, 1), subset(4, 0), subset(4, 3))


class TestBlockValue:
    def setup_method(self):
        self.universe = Subset.full(4)
        self.block = subset(4, 0, 1)
        self.hidden = subset(4, 0)
        inner_block, inner_hidden = subset(4, 2, 3), subset(4, 2)
        self.inner = lambda s: containment_score(inner_block, inner_hidden, s & inner_block)

    def value(self, *indices):
        return block_value(
            self.universe, self.block, self.hidden, Fraction(2), self.inner, subset(4, *indices)
        )

    def test_minimizer_value_is_zero(self):
        assert self.value(0, 2) == 0

    def test_hand_evaluated_examples(self):
        assert self.value(2) == Fraction(9, 8)
        assert self.value(1, 2) == 2

    def test_inner_called_only_on_exact_match(self):
        calls = []

        def probe(s):
            calls.append(s)
            return Fraction(0)

        block_value(self.universe, self.block, self.hidden, Fraction(2), probe, subset(4, 1))
        assert calls == []
        block_value(self.universe, self.block, self.hidden, Fraction(2), probe, subset(4, 0, 3))
        assert calls == [subset(4, 3)]

    def test_inner_out_of_range_is_contract_violation(self):
        bad = lambda s: Fraction(3)
        with pytest.raises(ValueError, match="contract"):
            block_value(self.universe, self.block, self.hidden, Fraction(2), bad, subset(4, 0))

    def test_rejects_an_empty_set_and_a_non_positive_bound(self):
        u, a, r = self.universe, self.block, self.hidden
        for universe, block, hidden in ((Subset(4), a, r), (u, Subset(4), r), (u, a, Subset(4))):
            with pytest.raises(ValueError, match="must be non-empty"):
                block_value(universe, block, hidden, Fraction(2), self.inner, subset(4, 0))
        for bound in (Fraction(0), Fraction(-1, 2)):
            with pytest.raises(ValueError, match=f"inner bound must be positive, got {bound}"):
                block_value(u, a, r, bound, self.inner, subset(4, 0))

    def test_generic_bound_scales_gate(self):
        # Same inner function but a larger declared bound shrinks its weight:
        # the gate coefficient is 1/(4 * bound * |universe|).
        v2 = self.value(0)  # inner sees empty set -> score 1, bound 2
        v4 = block_value(self.universe, self.block, self.hidden, Fraction(4), self.inner, subset(4, 0))
        assert v2 == Fraction(1, 32) and v4 == Fraction(1, 64)


class TestEvaluators:
    def test_hand_computed_values(self, two_layer_instance):
        inst = two_layer_instance
        for s, expected in [
            (subset(4, 0, 2), Fraction(0)),
            (subset(4, 0, 3), Fraction(1, 16)),
            (subset(4, 1), Fraction(2)),
        ]:
            assert evaluate_recursive(inst, s) == expected
            assert evaluate_closed_form(inst, s) == expected

    def test_first_divergent_layer(self, two_layer_instance):
        inst = two_layer_instance
        assert first_divergent_layer(inst, subset(4, 0, 2)) is None
        assert first_divergent_layer(inst, Subset(4)) == 1
        assert first_divergent_layer(inst, subset(4, 0, 3)) == 2

    def test_every_evaluator_rejects_a_query_of_another_ground_size(self):
        inst = sample_instance(GroundConfig(4, 1), 1)
        s = Subset(8, true_minimizer(inst).bits)  # matches every layer on the low 4 bits
        for evaluate in (first_divergent_layer, evaluate_closed_form, evaluate_recursive):
            with pytest.raises(ValueError, match="query must live on the 4-element ground set"):
                evaluate(inst, s)
        for oracle in (HonestOracle(inst), HalvingAdversary(inst.config)):
            with pytest.raises(ValueError, match="query must live on the 4-element ground set"):
                oracle.answer(s)
            assert (oracle.queries, oracle.rounds) == (0, 0)

    @pytest.mark.parametrize("n,r", [(2, 1), (5, 2), (6, 3), (7, 1), (11, 3), (16, 1), (23, 2), (64, 1)])
    def test_first_divergent_layer_matches_linear_scan(self, n, r):
        # Covers L = 1, 2r not dividing n (dummy bits set in the query), a
        # divergence at every depth, random queries and the minimizer itself.
        def linear_scan(inst, s):
            for k, (a, h) in enumerate(zip(inst.blocks, inst.hidden_sets), start=1):
                if s.bits & a.bits != h.bits:
                    return k
            return None

        cfg = GroundConfig(n, r)
        dummies = Subset.full(n) - Subset.from_indices(n, range(cfg.effective_size))
        rng = SplitMix64(100 * n + r)
        for seed in range(3):
            inst = sample_instance(cfg, seed)
            minimizer = true_minimizer(inst)
            assert first_divergent_layer(inst, minimizer) is None
            assert first_divergent_layer(inst, minimizer | dummies) is None
            for k in range(1, cfg.layer_count + 1):
                deeper = inst.pools[k - 1] - inst.blocks[k - 1]
                for e in inst.blocks[k - 1]:
                    noise = rng.subset_of(deeper | dummies)
                    s = Subset(n, (minimizer.bits ^ 1 << e) & ~deeper.bits) | noise
                    assert first_divergent_layer(inst, s) == k == linear_scan(inst, s)
            for _ in range(50):
                s = rng.subset_of(Subset.full(n))
                assert first_divergent_layer(inst, s) == linear_scan(inst, s)

    @pytest.mark.parametrize("n,r,seeds", [(4, 1, 5), (6, 1, 5), (8, 2, 5), (12, 3, 2), (12, 1, 2)])
    def test_closed_form_equals_recursion_exhaustive(self, n, r, seeds):
        cfg = GroundConfig(n, r)
        for seed in range(seeds):
            inst = sample_instance(cfg, seed)
            for s in enumerate_subsets(n):
                assert evaluate_closed_form(inst, s) == evaluate_recursive(inst, s)

    @pytest.mark.parametrize("n,r,layers", [(1024, 1, (1, 256, 331, 512)), (1024, 14, (1, 18, 36))])
    def test_recursion_equals_the_kernel_at_n1024(self, n, r, layers):
        # The recursion at the paper's scale, at layer 1, the middle, past
        # the depth where nested calls would reach the recursion limit, layer
        # L, and the minimizer, each with deeper elements and dummies set.
        cfg = GroundConfig(n, r)
        inst, rng = sample_instance(cfg, 5), SplitMix64(n + r)
        dummies = Subset.full(n) - Subset.from_indices(n, range(cfg.effective_size))
        minimizer = true_minimizer(inst)
        queries = [minimizer, minimizer | dummies]
        for k in layers:
            block, hidden = inst.blocks[k - 1], inst.hidden_sets[k - 1]
            deeper = inst.pools[k - 1] - block
            matched = minimizer - inst.pools[k - 1]
            other = (block - hidden).indices()[0]
            for part in (hidden - subset(n, hidden.indices()[0]),  # strictly inside R_k
                         hidden | subset(n, other),  # strictly outside
                         (hidden - subset(n, hidden.indices()[0])) | subset(n, other)):  # neither
                s = matched | part | rng.subset_of(deeper | dummies)
                assert first_divergent_layer(inst, s) == k
                queries.append(s)
        den = cfg.value_denominator
        for s, num in zip(queries, _numerators(inst.table, [s.bits for s in queries])):
            assert evaluate_recursive(inst, s) == Fraction(num, den)

    def test_closed_form_equals_recursion_with_dummies(self):
        # 2r does not divide n: trailing elements must never affect values.
        cfg = GroundConfig(11, 2)
        inst = sample_instance(cfg, 3)
        for s in enumerate_subsets(11):
            v = evaluate_closed_form(inst, s)
            assert v == evaluate_recursive(inst, s)
            stripped = s & Subset.from_indices(11, range(cfg.effective_size))
            assert v == evaluate_closed_form(inst, stripped)

    def test_range_bounds(self):
        cfg = GroundConfig(8, 1)
        inst = sample_instance(cfg, 9)
        for s in enumerate_subsets(8):
            assert 0 <= evaluate_closed_form(inst, s) <= 2

    def test_unique_minimizer(self):
        cfg = GroundConfig(8, 2)
        for seed in range(5):
            inst = sample_instance(cfg, seed)
            zeros = [s for s in enumerate_subsets(8) if evaluate_closed_form(inst, s) == 0]
            assert zeros == [true_minimizer(inst)]
            assert inst.config.divides_evenly

    def test_range_and_unique_minimizer_n12(self):
        cfg = GroundConfig(12, 2)
        inst = sample_instance(cfg, 5)
        zeros = []
        for s in enumerate_subsets(12):
            v = evaluate_closed_form(inst, s)
            assert 0 <= v <= 2
            if v == 0:
                zeros.append(s)
        assert zeros == [true_minimizer(inst)]

    def test_layer_scale_factors(self):
        # Nonzero values at layer k all carry the product of earlier pool scales,
        # and dividing it out lands back in the single-layer value set.
        cfg = GroundConfig(10, 1)
        inst = sample_instance(cfg, 4)
        for s in enumerate_subsets(10):
            k = first_divergent_layer(inst, s)
            if k is None:
                continue
            v = evaluate_closed_form(inst, s) / inst.layer_scale(k)
            pool = len(inst.pools[k - 1])
            assert v == 2 or abs(v - 1) * 2 * pool == int(abs(v - 1) * 2 * pool)
            assert Fraction(1, 2) <= v <= Fraction(3, 2) or v == 2

    @pytest.mark.parametrize("n,r", [(2, 1), (10, 1), (12, 3), (64, 2), (1024, 1)])
    def test_layer_scale_is_one_over_d_k(self, n, r):
        # layer_scale reads layer_factors; d_k here comes from the forward recurrence.
        inst = canonical_instance(GroundConfig(n, r))
        for k, d in enumerate(scale_denominators(inst.config), start=1):
            assert inst.layer_scale(k) == Fraction(1, d)
        for k in (0, inst.config.layer_count + 1):
            with pytest.raises(ValueError, match="layer must be in"):
                inst.layer_scale(k)

    def test_information_hiding_exact(self):
        # Instances sharing a layer prefix answer identically on any query
        # diverging within that prefix.
        cfg = GroundConfig(10, 1)
        base = sample_instance(cfg, 1)
        for depth in (1, 2, 3):
            prefix = list(zip(base.blocks[:depth], base.hidden_sets[:depth]))
            other = sample_instance(cfg, 999, prefix=prefix)
            for s in enumerate_subsets(10):
                k = first_divergent_layer(base, s)
                if k is not None and k <= depth:
                    assert evaluate_closed_form(base, s) == evaluate_closed_form(other, s)


class TestTrueMinimizer:
    def test_examples(self, two_layer_instance):
        assert true_minimizer(two_layer_instance) == subset(4, 0, 2)
        base = LayeredInstance(GroundConfig(2, 1), [subset(2, 0, 1)], [subset(2, 1)])
        assert true_minimizer(base) == subset(2, 1)

    def test_union_of_hidden_sets(self):
        cfg = GroundConfig(8, 2)
        inst = LayeredInstance(
            cfg,
            [subset(8, 0, 1, 2, 3), subset(8, 4, 5, 6, 7)],
            [subset(8, 0, 1), subset(8, 4, 5)],
        )
        assert true_minimizer(inst) == subset(8, 0, 1, 4, 5)

    def test_not_unique_with_dummies(self):
        inst = canonical_instance(GroundConfig(5, 1))
        assert not inst.config.divides_evenly
        best = true_minimizer(inst)
        padded = best | subset(5, 4)
        assert evaluate_closed_form(inst, best) == evaluate_closed_form(inst, padded) == 0


class TestInstanceValidation:
    def test_rejects_overlapping_blocks(self):
        cfg = GroundConfig(4, 1)
        with pytest.raises(ValueError, match="overlap"):
            LayeredInstance(cfg, [subset(4, 0, 1), subset(4, 1, 2)], [subset(4, 0), subset(4, 1)])

    def test_rejects_wrong_sizes(self):
        cfg = GroundConfig(4, 1)
        with pytest.raises(ValueError):
            LayeredInstance(cfg, [subset(4, 0, 1, 2), subset(4, 3)], [subset(4, 0), subset(4, 3)])

    def test_rejects_hidden_outside_block(self):
        cfg = GroundConfig(4, 1)
        with pytest.raises(ValueError):
            LayeredInstance(cfg, [subset(4, 0, 1), subset(4, 2, 3)], [subset(4, 2), subset(4, 3)])

    def test_rejects_wrong_cover(self):
        cfg = GroundConfig(6, 1)
        with pytest.raises(ValueError):
            LayeredInstance(cfg, [subset(6, 0, 1), subset(6, 4, 5)], [subset(6, 0), subset(6, 4)])

    def test_json_round_trip(self, two_layer_instance):
        data = two_layer_instance.to_json()
        assert data == {"n": 4, "r": 1, "layers": [
            {"A": [0, 1], "R": [0]}, {"A": [2, 3], "R": [2]}]}
        assert LayeredInstance.from_json(data) == two_layer_instance

    def test_repr_lists_each_layer(self, two_layer_instance):
        assert repr(two_layer_instance) == "LayeredInstance(n=4, r=1, A1=[0, 1]/R1=[0], A2=[2, 3]/R2=[2])"


class TestLayerTable:
    @pytest.mark.parametrize("n,r", [(4, 1), (11, 3), (16, 2), (64, 1)])
    def test_rows_hold_each_layer(self, n, r):
        inst = sample_instance(GroundConfig(n, r), n)
        table = inst.table
        assert len(table.rows) == inst.config.layer_count
        seen = hidden = 0
        for k in range(1, inst.config.layer_count + 1):
            a, h, pool = inst.blocks[k - 1], inst.hidden_sets[k - 1], inst.pools[k - 1]
            assert pool.bits == (1 << inst.config.effective_size) - 1 & ~seen
            assert table.rows[k - 1] == (a.bits, h.bits, pool.bits, len(pool))
            seen, hidden = seen | a.bits, hidden | h.bits
            assert table.prefix_unions[k - 1] == seen
        assert table.hidden_union == hidden


def _assert_aligned_subcubes_match_the_mask_loop(table):
    # Every range of 2^b masks starting at a multiple of 2^b, b = 0..n, in
    # numerators over D and in layer codes.
    n = table.config.n
    for lift in (table.config.numerator_lift, table.config.code_lift):
        reference = table.values(list(range(1 << n)), lift)
        for b in range(n + 1):
            for start in range(0, 1 << n, 1 << b):
                assert table.values(range(start, start + (1 << b)), lift) == reference[start : start + (1 << b)]


@st.composite
def _aligned_subcubes(draw):
    # (n, r, seed, width, start): a random instance and one of its aligned
    # sub-cubes; 2r need not divide n, and start's fixed bits may cut a block.
    n = draw(st.integers(2, 12))
    r = draw(st.integers(1, n // 2))
    width = draw(st.integers(0, n))
    start = draw(st.integers(0, (1 << (n - width)) - 1)) << width
    return n, r, draw(st.integers(0, 2**64 - 1)), width, start


class TestSubcubeNumerators:
    """A step-1 range of 2^b masks starting at a multiple of 2^b, on a full
    table, is tabulated layer by layer; a list of the same masks is priced
    mask by mask, the reference."""

    # 2r does not divide n in (5, 1), (7, 2), (11, 3), (13, 2) and (14, 3): dummies.
    @pytest.mark.parametrize("n,r", [(2, 1), (5, 1), (8, 1), (12, 1), (4, 2), (7, 2), (12, 2),
                                     (6, 3), (11, 3), (12, 3), (13, 2), (14, 3)])
    def test_every_aligned_subcube_matches_the_mask_loop(self, n, r):
        table = sample_instance(GroundConfig(n, r), 7 * n + r).table
        _assert_aligned_subcubes_match_the_mask_loop(table)

    def test_canonical_instance_subcubes(self):
        _assert_aligned_subcubes_match_the_mask_loop(canonical_instance(GroundConfig(12, 2)).table)

    def test_brute_force_chunks_match_the_mask_loop(self):
        # The 16 chunks of one brute-force round at (16, 2) share one width,
        # so one coordinate map.
        table = sample_instance(GroundConfig(16, 2), 16).table
        for start in range(0, 1 << 16, 1 << 12):
            chunk = range(start, start + (1 << 12))
            assert _numerators(table, chunk) == _numerators(table, list(chunk)), start
            if not start:
                cached = table._subcube_index
            assert table._subcube_index is cached

    def test_widths_asked_in_turn_match_the_mask_loop(self):
        # The table keeps one width's plan; a new width replaces it.
        table = sample_instance(GroundConfig(14, 1), 3).table
        for width, start in [(12, 1 << 12), (8, 3 << 8), (12, 0), (12, 3 << 12), (8, 0), (3, 8)]:
            masks = range(start, start + (1 << width))
            assert _numerators(table, masks) == _numerators(table, list(masks)), (width, start)
            held_width, (index_gather, _) = table._subcube_index
            assert held_width == width
            assert sorted(index_gather(range(1 << width))) == list(range(1 << width))

    # (11, 2) has 3 dummies. With 5 free bits, one of its two 4-element
    # blocks over 0..7 has members on both sides of bit 5.
    @example((11, 2, 5, 5, 3 << 5))
    @example((11, 2, 5, 11, 0))
    @settings(max_examples=150, deadline=None)
    @given(_aligned_subcubes())
    def test_aligned_subcubes_match_the_linear_scan(self, case):
        n, r, seed, width, start = case
        table = sample_instance(GroundConfig(n, r), seed).table
        masks = range(start, start + (1 << width))
        assert _numerators(table, masks) == _scan_numerators(table, masks)
        assert _codes(table, masks) == _scan_codes(table, masks)

    @pytest.mark.parametrize("masks", [range(1, 5), range(3, 11), range(0, 12), range(5, 6), range(0, 16, 2),
                                       range(15, -1, -1), range(8, 8), range(-4, 0)])
    def test_other_ranges_match_the_mask_loop(self, masks):
        table = sample_instance(GroundConfig(8, 2), 4).table
        assert _numerators(table, masks) == _numerators(table, list(masks))

    # 0, 3, 12 and 40 random queries leave 0, 1, 2 and 3 of the 4 layers committed.
    @pytest.mark.parametrize("queries", [0, 3, 12, 40])
    def test_partial_adversary_table_matches_the_mask_loop(self, queries):
        adversary = HalvingAdversary(GroundConfig(8, 1))
        rng = SplitMix64(queries)
        adversary.answer_batch([rng.bits(8) & 0xFF for _ in range(queries)])
        table = adversary.table
        assert len(table.rows) == [0, 3, 12, 40].index(queries)
        _assert_aligned_subcubes_match_the_mask_loop(table)


def _numerators(table, masks):
    return table.values(masks, table.config.numerator_lift)


def _codes(table, masks):
    return table.values(masks, table.config.code_lift)


def _scan_prices(table, masks):
    # Independent of the mask loop: a linear scan over the rows for the first
    # layer k whose block part differs from its hidden set, and that row's
    # price t; (None, 0) where every committed layer matches.
    for m in masks:
        k = next((k for k, row in enumerate(table.rows, start=1) if m & row[0] != row[1]), None)
        yield k, 0 if k is None else _layer_price(table.rows[k - 1], m)


def _scan_numerators(table, masks):
    """The scanned values as numerators over D: f_k * t."""
    factors = table.config.layer_factors
    return [0 if k is None else factors[k - 1] * t for k, t in _scan_prices(table, masks)]


def _scan_codes(table, masks):
    """The scanned values as layer codes, (L + 1 - k) * (4 * effective_size + 1) + t."""
    cfg = table.config
    radix = 4 * cfg.effective_size + 1
    return [0 if k is None else (cfg.layer_count + 1 - k) * radix + t for k, t in _scan_prices(table, masks)]


def _mask_at_layer(table, k, rng):
    """A random mask whose first divergent layer is ``k``, or that matches
    every committed layer when ``k`` is None."""
    rows, n = table.rows, table.config.n
    matched = 0
    for block, hidden, *_ in rows[: len(rows) if k is None else k - 1]:
        matched |= hidden
    if k is None:
        return matched | rng.bits(n) & ~(table.prefix_unions[-1] if rows else 0)
    block, hidden = rows[k - 1][0], rows[k - 1][1]
    part = hidden
    while part == hidden:
        part = rng.bits(n) & block
    return matched | part | rng.bits(n) & ~table.prefix_unions[k - 1]


class TestMaskLoopNumerators:
    """Mask lists are priced mask by mask, each first trying the last two
    distinct layers placed; a linear scan over the rows is the reference.  The orders
    below change layer in every way that test can get wrong."""

    ORDERS = {
        "alternating": [1, 3, 1, 3, 2, 5, 2, 5, 6, 1, 6],
        "deeper then shallower": [6, 5, 4, 3, 2, 1, 4, 2, 6, 5],
        "shallower then deeper": [1, 2, 3, 4, 5, 6, 6, 1],
        "all-match between layered": [3, None, 3, 2, None, 5, None, None, 1, None, 6],
        "first at layer 1": [1, 1, 1, 2, 2],
        "first all-match": [None, 4, 4, None],
        "runs": [4] * 6 + [5] * 6 + [1] * 3 + [6] * 3,
        "one mask at layer 1": [1],
        "one mask at layer 6": [6],
        "one all-match mask": [None],
        "empty": [],
    }

    # Six layers each; 2r does not divide 26, so (26, 2) has two dummies.
    @pytest.mark.parametrize("n,r", [(12, 1), (24, 2), (26, 2), (36, 3)])
    @pytest.mark.parametrize("order", list(ORDERS), ids=list(ORDERS))
    def test_layer_orders_match_a_linear_scan(self, n, r, order):
        table = sample_instance(GroundConfig(n, r), n + r).table
        rng = SplitMix64(len(order) * n + r)
        masks = [_mask_at_layer(table, k, rng) for k in self.ORDERS[order]]
        assert [table.layer_of(m) for m in masks] == self.ORDERS[order]
        assert _numerators(table, masks) == _scan_numerators(table, masks)
        assert _codes(table, masks) == _scan_codes(table, masks)

    @pytest.mark.parametrize("n,r", [(12, 1), (26, 2), (64, 2), (256, 2)])
    def test_singleton_batches_and_random_masks_match_a_linear_scan(self, n, r):
        inst = sample_instance(GroundConfig(n, r), 3 * n + r)
        table, prefix = inst.table, 0
        for pool, hidden in zip(inst.pools, inst.hidden_sets):
            batch = [prefix | 1 << e for e in pool.indices()]
            assert _numerators(table, batch) == _scan_numerators(table, batch)
            assert _numerators(table, SingletonBatch(prefix, pool.bits)) == _scan_numerators(table, batch)
            assert _codes(table, SingletonBatch(prefix, pool.bits)) == _scan_codes(table, batch)
            prefix |= hidden.bits
        rng = SplitMix64(n)
        masks = [rng.bits(n) for _ in range(200)]
        assert _numerators(table, masks) == _scan_numerators(table, masks)

    # 0, 3, 12 and 40 random queries leave 0, 1, 2 and 3 of the 4 layers committed.
    @pytest.mark.parametrize("queries", [0, 3, 12, 40])
    def test_partial_adversary_table_matches_a_linear_scan(self, queries):
        adversary = HalvingAdversary(GroundConfig(8, 1))
        rng = SplitMix64(queries)
        adversary.answer_batch([rng.bits(8) for _ in range(queries)])
        table = adversary.table
        committed = [0, 3, 12, 40].index(queries)
        assert len(table.rows) == committed
        layers = [None] + list(range(1, committed + 1))
        for order in (layers, layers[::-1], layers * 2, layers[::-1] * 2, [None, *layers[1:], None]):
            masks = [_mask_at_layer(table, k, rng) for k in order]
            assert _numerators(table, masks) == _scan_numerators(table, masks)
        masks = list(range(256))
        assert _numerators(table, masks) == _scan_numerators(table, masks)


def _linear_layer(prefix_unions, mismatch):
    return next((k for k, union in enumerate(prefix_unions, start=1) if mismatch & union), None)


def _rebuilt(table):
    """A table with ``table``'s rows and no hint."""
    fresh = LayerTable(table.config)
    for block, hidden, *_ in table.rows:
        fresh.push(block, hidden)
    return fresh


class _CountedReads(list):
    """A list that counts the entries read through ``[]``."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class TestDivergentLayerSearch:
    def test_reads_at_most_log_layers_plus_one_unions(self):
        # A plain bisection on a full (1024, 1) table: at most
        # ceil(log2 512) + 1 = 10 reads, for a mask diverging at any layer
        # and for one matching every layer.
        table = sample_instance(GroundConfig(1024, 1), 3).table
        unions, rng = _CountedReads(table.prefix_unions), SplitMix64(1024)
        bound = (len(unions) - 1).bit_length() + 1
        assert bound == 10
        outside = (1 << 1024) - 1 & ~unions[-1]
        mismatches = [(0, None), (outside, None)]
        for k, (block, *_) in enumerate(table.rows, start=1):
            above = ~(unions[k - 2] if k > 1 else 0)
            mismatches += [(block, k), (block & -block, k), ((rng.bits(1024) | block) & above, k)]
        for mismatch, want in mismatches:
            unions.reads = 0
            assert _divergent_layer(unions, mismatch) == want
            assert unions.reads <= bound, (want, unions.reads)


class TestHintedLookup:
    """Lookups try the last two distinct layers a table placed, across
    calls, before they search by bisection; every pair of hints must give
    the layer a linear scan gives."""

    # L = 0 (no committed layer), 1, 4 and 40; (3, 1) and (81, 1) have one dummy.
    @pytest.mark.parametrize("n,r,layers", [(4, 1, 0), (3, 1, 1), (4, 2, 1), (9, 1, 4), (81, 1, 40), (160, 2, 40)])
    def test_every_hint_gives_the_linear_scan_layer(self, n, r, layers):
        cfg = GroundConfig(n, r)
        table = LayerTable(cfg)
        for block, hidden, *_ in sample_instance(cfg, n + r).table.rows[:layers]:
            table.push(block, hidden)
        unions, rng = table.prefix_unions, SplitMix64(n * r)
        outside = (1 << n) - 1 & ~(unions[-1] if unions else 0)
        mismatches = [0, outside, rng.bits(n) & outside]  # these miss every union
        for k in range(1, layers + 1):
            block = table.rows[k - 1][0]
            below = unions[k - 2] if k > 1 else 0
            mismatches += [block & -block, block, (rng.bits(n) | block & -block) & ~below]
        for mismatch in mismatches:
            want = _linear_layer(unions, mismatch)
            assert _divergent_layer(unions, mismatch) == want, mismatch
            assert _divergent_layer(unions, mismatch | outside) == want, mismatch
            # layer_of with every (later, earlier) pair of hints, 0 for none, equal ones too.
            for hints in itertools.product(range(layers + 1), repeat=2):
                table._hints = hints
                assert table.layer_of(mismatch ^ table.hidden_union) == want, (mismatch, hints)
                assert table._hints == (hints if want in (None, hints[0]) else (want, hints[0]))

    @pytest.mark.parametrize("n,r", [(12, 1), (26, 2), (64, 1), (81, 1), (160, 2)])
    def test_alternating_one_mask_orders_match_a_linear_scan(self, n, r):
        # One-mask batches whose layer alternates between k and k + 1, as the
        # family-aware solver's do, with runs, all-match masks and jumps between.
        inst = sample_instance(GroundConfig(n, r), 2 * n + r)
        table, rng, ell = inst.table, SplitMix64(n + 2 * r), inst.config.layer_count
        order = []
        for k in range(1, ell):
            order += [k, k + 1] * 3 + [k + 1, k + 1, None, k, k + 1, ell + 1 - k, k]
        for i, k in enumerate(order):
            mask = _mask_at_layer(table, k, rng)
            assert _codes(table, [mask]) == _scan_codes(table, [mask]), (i, k)
            assert _numerators(table, [mask]) == _scan_numerators(table, [mask]), (i, k)
            assert table.layer_of(mask) == k, (i, k)
            assert table.layer_of(_mask_at_layer(table, k, rng)) == k, (i, k)

    # 3, 12, 41, 83 and 255 random queries leave 1 to 5 of the 8 layers committed.
    @pytest.mark.parametrize("queries", [3, 12, 41, 83, 255])
    def test_alternating_one_mask_orders_on_a_partial_adversary_table(self, queries):
        adversary = HalvingAdversary(GroundConfig(16, 1))
        rng = SplitMix64(queries + 1)
        adversary.answer_batch([rng.bits(16) for _ in range(queries)])
        table = adversary.table
        committed = len(table.rows)
        assert committed == [3, 12, 41, 83, 255].index(queries) + 1
        order = [None]
        for k in range(1, committed + 1):
            order += [k, min(k + 1, committed)] * 3 + [None, k, 1, committed, k]
        for i, k in enumerate(order):
            mask = _mask_at_layer(table, k, rng)
            assert _numerators(table, [mask]) == _scan_numerators(table, [mask]), (i, k)
            assert table.layer_of(mask) == k, (i, k)

    @pytest.mark.parametrize("n,r", [(26, 2), (128, 1)])
    def test_layer_of_after_numerators_finds_the_layer_without_a_search(self, n, r, monkeypatch):
        # The lookup's hints hold the layer that numerators just placed, so
        # asking again for that mask's layer costs no search.
        inst = sample_instance(GroundConfig(n, r), n * r)
        table, rng = inst.table, SplitMix64(n)
        order = [None, *range(1, inst.config.layer_count + 1)] * 2
        random.Random(n).shuffle(order)
        searches = []
        monkeypatch.setattr(family, "_divergent_layer", lambda *args: searches.append(args) or _divergent_layer(*args))
        for k in order:
            mask = _mask_at_layer(table, k, rng)
            _numerators(table, [mask])
            before = len(searches)
            assert table.layer_of(mask) == k
            if k is not None:
                assert len(searches) == before, k

    @pytest.mark.parametrize("n,r", [(24, 2), (64, 1), (81, 1)])
    def test_one_table_across_calls_matches_a_fresh_table_per_call(self, n, r):
        inst = sample_instance(GroundConfig(n, r), 5 * n + r)
        shared, rng = inst.table, SplitMix64(n)
        order = [None, *range(1, inst.config.layer_count + 1)] * 3
        random.Random(n + r).shuffle(order)
        for i, k in enumerate(order):
            # One-mask batches, as one query per round asks, and some longer ones.
            masks = [_mask_at_layer(shared, k, rng)] if i % 3 else [
                _mask_at_layer(shared, j, rng) for j in (k, order[i - 1], k)]
            assert _numerators(shared, masks) == _numerators(_rebuilt(shared), masks) == _scan_numerators(shared, masks)
            assert shared.layer_of(masks[0]) == k

    def test_a_hint_set_before_later_pushes_prices_correctly(self):
        adversary = HalvingAdversary(GroundConfig(16, 1))
        rng = SplitMix64(16)
        table = adversary.table
        while len(table.rows) < 2:
            adversary.answer_batch([rng.bits(16)])
        masks = [_mask_at_layer(table, 2, rng), _mask_at_layer(table, 1, rng)]
        assert _numerators(table, masks) == _scan_numerators(table, masks)  # the hints are layers 1 and 2
        while len(table.rows) < 6:
            adversary.answer_batch([rng.bits(16)])
        for k in [None, 6, 1, 5, 3, 2, 4, 6, None]:
            masks = [_mask_at_layer(table, k, rng)]
            assert _numerators(table, masks) == _scan_numerators(table, masks)
            assert table.layer_of(_mask_at_layer(table, k, rng)) == k

    def test_two_threads_on_one_honest_oracle_get_the_sequential_answers(self):
        inst = sample_instance(GroundConfig(256, 2), 11)
        rng = SplitMix64(11)
        shallow = [[_mask_at_layer(inst.table, k % 8 + 1, rng)] for k in range(400)]
        deep = [[_mask_at_layer(inst.table, 64 - k % 8, rng) for _ in range(2)] for k in range(400)]
        want = {id(b): _scan_codes(inst.table, b) for b in shallow + deep}
        oracle, got = HonestOracle(inst), {}
        start = threading.Barrier(2)

        def answer(batches):
            start.wait()
            for batch in batches:
                got[id(batch)] = oracle.answer_batch(batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            threads = [threading.Thread(target=answer, args=(b,)) for b in (shallow, deep)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert oracle.queries == 400 + 800


def _assert_singleton_batches_match_the_mask_loop(table, seed):
    """Price singleton batches by class and as mask lists, each on a fresh
    table (the hints steer both), against a linear scan too.  Bases diverge
    at every committed layer and at none; members are empty, the base's
    own bits, each pool, the whole ground set (earlier blocks and dummies)
    and random masks."""
    n, rng = table.config.n, SplitMix64(seed)
    ground = (1 << n) - 1
    pools = [row[2] for row in table.rows] + [table.pool]
    for k in [None, *range(1, len(table.rows) + 1)]:
        base = _mask_at_layer(table, k, rng)
        for members in [0, base, ground, ground & ~base, rng.bits(n), rng.bits(n) & ~base, *pools]:
            batch = SingletonBatch(base, members)
            masks = list(batch)
            got = _numerators(_rebuilt(table), batch)
            assert got == _numerators(_rebuilt(table), masks) == _scan_numerators(table, masks), (k, members)
            got = _codes(_rebuilt(table), batch)
            assert got == _codes(_rebuilt(table), masks) == _scan_codes(table, masks), (k, members)


class TestSingletonBatchNumerators:
    """A :class:`SingletonBatch` is priced by class: far members share one
    price, dummies take the base's, and the rest go through the mask loop."""

    # 2r does not divide 13, 26 or 67: dummies.
    @pytest.mark.parametrize("n,r", [(2, 1), (12, 1), (13, 2), (24, 2), (26, 2), (67, 3)])
    def test_full_tables_match_the_mask_loop(self, n, r):
        table = sample_instance(GroundConfig(n, r), 9 * n + r).table
        _assert_singleton_batches_match_the_mask_loop(table, n + r)

    @pytest.mark.parametrize("committed", range(9))
    def test_adversary_tables_match_the_mask_loop(self, committed):
        adversary = HalvingAdversary(GroundConfig(16, 1))
        rng = SplitMix64(committed)
        while len(adversary.table.rows) < committed:
            adversary.answer_batch([rng.bits(16)])
        assert len(adversary.table.rows) == committed
        _assert_singleton_batches_match_the_mask_loop(adversary.table, committed)


def _assert_codes_spell_the_numerators(cfg, codes, nums):
    """Each code maps to its numerator and back, and codes order as the
    numerators do: distinct (code, numerator) pairs sorted by code have
    strictly increasing numerators."""
    assert [cfg.code_value(c) * cfg.value_denominator for c in codes] == nums
    assert [cfg.value_code(Fraction(v, cfg.value_denominator)) for v in nums] == codes
    pairs = sorted(set(zip(codes, nums)))
    assert len({c for c, _ in pairs}) == len({v for _, v in pairs}) == len(pairs)
    assert all(a[1] < b[1] for a, b in zip(pairs, pairs[1:]))


class TestLayerCodes:
    """The kernel's two lifts of one price: a layer code and a numerator
    over D spell the same value, and codes order as values."""

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(2, 13) for r in range(1, n // 2 + 1)])
    def test_every_mask_codes_its_numerator_in_order(self, n, r):
        cfg = GroundConfig(n, r)
        table = sample_instance(cfg, 5 * n + r).table
        masks = range(1 << n)
        codes, nums = _codes(table, masks), _numerators(table, masks)
        assert codes == _scan_codes(table, masks)
        _assert_codes_spell_the_numerators(cfg, codes, nums)
        # The least code is the minimizer's, 0, and only there when 2r | n.
        assert codes.index(0) == table.hidden_union and codes.count(0) == 1 << (n - cfg.effective_size)

    @pytest.mark.parametrize("n,r", [(1024, 1), (1024, 14)])
    def test_deep_masks(self, n, r):
        cfg = GroundConfig(n, r)
        table = sample_instance(cfg, n + r).table
        rng = SplitMix64(r)
        layers = [None, 1, 2, cfg.layer_count // 4, cfg.layer_count // 2, cfg.layer_count - 1, cfg.layer_count]
        masks = [_mask_at_layer(table, k, rng) for k in layers for _ in range(40)]
        codes, nums = _codes(table, masks), _numerators(table, masks)
        assert codes == _scan_codes(table, masks)
        _assert_codes_spell_the_numerators(cfg, codes, nums)
        assert max(c // cfg.code_radix for c in codes) == cfg.layer_count  # layer 1 is the top level


class TestExhaustiveScanMemory:
    # Chunks are priced with transient lists a small multiple of their output:
    # a table of all 2^16 values would hold about 512 KiB of list slots alone.
    PEAK_BOUND = 320 * 1024

    def _peak(self, run):
        run()  # lazily built config values are not the scan's
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_brute_force_n16_peak(self):
        inst = sample_instance(GroundConfig(16, 2), 3)
        assert self._peak(lambda: brute_force_minimize(HonestOracle(inst))) < self.PEAK_BOUND

    def test_verify_n12_peak(self):
        inst = sample_instance(GroundConfig(12, 1), 3)
        assert self._peak(lambda: check_instance_properties(inst)) < self.PEAK_BOUND


class TestLayerTablePush:
    # n = 5, r = 1: layers over {0, 1, 2, 3}, and 4 is a dummy.
    CFG = GroundConfig(5, 1)

    def _one_layer(self):
        table = LayerTable(self.CFG)
        table.push(0b0011, 0b0001)
        return table

    @pytest.mark.parametrize("block,hidden,match", [
        (0b00110, 0b00100, "overlaps an earlier block"),
        (0b10100, 0b00100, "dummy"),
        (0b11100, 0b00100, "block has 3 elements, expected 2"),
        (0b01100, 0b01100, "hidden set has 2 elements, expected 1"),
        (0b01100, 0b00000, "hidden set has 0 elements, expected 1"),
        (0b01100, 0b00001, "hidden set must lie inside its block"),
        (-0b0101, 0b01000, "overlaps"),  # a negative mask has endless high bits
    ])
    def test_rejects_a_malformed_layer_and_keeps_the_table(self, block, hidden, match):
        table = self._one_layer()
        with pytest.raises(ValueError, match=match):
            table.push(block, hidden)
        assert len(table.rows) == 1 and table.pool == 0b1100
        table.push(0b1100, 0b1000)  # the table still takes a valid layer

    def test_rejects_one_layer_too_many(self):
        table = self._one_layer()
        table.push(0b1100, 0b0100)
        with pytest.raises(ValueError, match="layer 3 block overlaps"):
            table.push(0b10001, 0b10000)
        assert len(table.rows) == 2

    def test_instance_adopts_a_full_table(self):
        table = self._one_layer()
        with pytest.raises(ValueError, match="1 of 2 layers"):
            LayeredInstance.from_table(table)
        with pytest.raises(ValueError, match="0 of 2 layers"):
            LayeredInstance.from_table(LayerTable(self.CFG))
        table.push(0b1100, 0b0100)
        inst = LayeredInstance.from_table(table)
        assert inst.table is table
        assert inst == LayeredInstance(self.CFG, [subset(5, 0, 1), subset(5, 2, 3)], [subset(5, 0), subset(5, 2)])
        assert inst.pools == [subset(5, 0, 1, 2, 3), subset(5, 2, 3)]

    def test_instance_rejects_sets_of_another_ground_size(self):
        with pytest.raises(ValueError, match="4-element ground set"):
            LayeredInstance(GroundConfig(4, 1), [subset(4, 0, 1), subset(5, 2, 3)], [subset(4, 0), subset(4, 2)])

    def test_draw_layer_removes_the_block_from_the_pool(self):
        pool = [1, 3, 4, 6, 7, 9]
        assert draw_layer(GroundConfig(10, 2), pool, lowest_first) == (0b1011010, 0b1010)
        assert pool == [7, 9]


def _list_filtering_completion(config, prefix, pick):
    """Reference completion: filter a pool list after every layer and hand
    ``Subset`` lists to the constructor, as completions were first written."""
    blocks, hidden_sets = [], []
    pool = list(range(config.effective_size))
    for a, r in prefix:
        blocks.append(a)
        hidden_sets.append(r)
        pool = [e for e in pool if e not in a]
    for _ in range(config.layer_count - len(blocks)):
        a_idx = pick(pool, 2 * config.r)
        r_idx = pick(a_idx, config.r)
        blocks.append(Subset.from_indices(config.n, a_idx))
        hidden_sets.append(Subset.from_indices(config.n, r_idx))
        chosen = set(a_idx)
        pool = [e for e in pool if e not in chosen]
    return LayeredInstance(config, blocks, hidden_sets)


class TestCompletionMatchesReference:
    # (7, 1), (9, 2), (13, 3) and (20, 3) have dummies (2r does not divide n).
    @pytest.mark.parametrize("n,r", [(2, 1), (7, 1), (16, 1), (64, 1), (9, 2), (12, 2), (40, 2),
                                     (6, 3), (13, 3), (20, 3), (36, 3)])
    def test_sampled_and_canonical_completions(self, n, r):
        cfg = GroundConfig(n, r)
        for seed in range(4):
            # Pin the first layers of another draw, so the prefix is not lowest-first.
            other = _list_filtering_completion(cfg, (), SplitMix64(1000 + seed).sample)
            for depth in range(min(3, cfg.layer_count + 1)):
                prefix = list(zip(other.blocks[:depth], other.hidden_sets[:depth]))
                ref = _list_filtering_completion(cfg, prefix, SplitMix64(seed).sample)
                inst = sample_instance(cfg, seed, prefix=prefix)
                assert inst == ref and inst.pools == ref.pools and inst.table.rows == ref.table.rows
                assert canonical_instance(cfg, prefix) == _list_filtering_completion(cfg, prefix, lowest_first)

    def test_malformed_prefix_raises(self):
        cfg = GroundConfig(8, 1)
        with pytest.raises(ValueError, match="overlaps"):
            sample_instance(cfg, 1, prefix=[(subset(8, 0, 1), subset(8, 0)), (subset(8, 1, 2), subset(8, 2))])
        with pytest.raises(ValueError, match="8-element ground set"):
            sample_instance(cfg, 1, prefix=[(subset(9, 0, 1), subset(9, 0))])


class TestSampler:
    def test_same_seed_same_instance(self):
        cfg = GroundConfig(12, 2)
        assert sample_instance(cfg, 77) == sample_instance(cfg, 77)
        assert hash(sample_instance(cfg, 77)) == hash(sample_instance(cfg, 77))
        assert len({sample_instance(cfg, seed) for seed in (77, 77, 78)}) == 2

    def test_base_case_frequencies(self):
        # n=2, r=1: the hidden singleton is {0} or {1}, half the time each.
        cfg = GroundConfig(2, 1)
        ones = sum(
            true_minimizer(sample_instance(cfg, seed)) == subset(2, 1)
            for seed in range(10_000)
        )
        assert abs(ones / 10_000 - 0.5) <= 0.02

    def test_first_layer_membership_rate(self):
        # n=8, r=2: Pr[element 0 in first hidden set] = (2r/n) * (1/2) = 1/4.
        cfg = GroundConfig(8, 2)
        hits = sum(
            0 in sample_instance(cfg, seed).hidden_sets[0] for seed in range(100_000)
        )
        assert abs(hits / 100_000 - 0.25) <= 0.01

    def test_prefix_is_respected(self):
        cfg = GroundConfig(8, 1)
        a1, r1 = subset(8, 3, 6), subset(8, 6)
        inst = sample_instance(cfg, 5, prefix=[(a1, r1)])
        assert inst.blocks[0] == a1 and inst.hidden_sets[0] == r1

    def test_canonical_instance_layout(self):
        inst = canonical_instance(GroundConfig(6, 1))
        assert [a.indices() for a in inst.blocks] == [[0, 1], [2, 3], [4, 5]]
        assert [r.indices() for r in inst.hidden_sets] == [[0], [2], [4]]
