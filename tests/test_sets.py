import functools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from layeredsfm.sets import (
    EXHAUSTIVE_CAP,
    GroundConfig,
    Relation,
    SingletonBatch,
    Subset,
    enumerate_subsets,
    relate,
    scatter,
)


def subset(n, *indices):
    return Subset.from_indices(n, indices)


@functools.cache
def scale_denominators(cfg):
    """``(d_1, .., d_L)`` by the paper's forward recurrence: ``d_1 = 1`` and
    ``d_{k+1} = d_k * 8 * pool_size(k)``.  Independent of ``cfg.layer_factors``,
    which the package builds backward; layer k's values are scaled by ``1/d_k``."""
    denoms = [1]
    for layer in range(1, cfg.layer_count):
        denoms.append(denoms[-1] * 8 * cfg.pool_size(layer))
    return tuple(denoms)


class TestGroundConfig:
    def test_derived_fields(self):
        cfg = GroundConfig(10, 2)
        assert cfg.layer_count == 2
        assert cfg.effective_size == 8
        assert not cfg.divides_evenly
        assert cfg.pool_size(1) == 8
        assert cfg.pool_size(2) == 4
        assert scale_denominators(cfg) == (1, 8 * 8)
        assert cfg.value_denominator == 8 * 8 * 2 * 4
        assert cfg.layer_factors == (8 * 4, 1)

    @pytest.mark.parametrize("n,r", [(2, 1), (7, 1), (16, 2), (12, 3), (1024, 1), (512, 2)])
    def test_value_denominator_is_a_multiple_of_every_layer_denominator(self, n, r):
        cfg = GroundConfig(n, r)
        assert len(cfg.layer_factors) == cfg.layer_count
        for k, d in enumerate(scale_denominators(cfg), start=1):
            assert cfg.value_denominator % (d * 2 * cfg.pool_size(k)) == 0
            assert cfg.layer_factors[k - 1] == cfg.value_denominator // (d * 2 * cfg.pool_size(k))

    def test_layer_codes(self):
        # (10, 2): L = 2, effective size 8, M = 33; layer 1 sits at level 2.
        cfg = GroundConfig(10, 2)
        assert cfg.code_radix == 33
        assert cfg.code_lift == ((2 * 33, 1), (33, 1))
        assert cfg.numerator_lift == ((0, 32), (0, 1))
        big_d = cfg.value_denominator
        assert cfg.code_value(0) == 0 and cfg.value_code(Fraction(0)) == 0
        assert cfg.code_value(2 * 33 + 5) == Fraction(32 * 5, big_d)
        assert cfg.value_code(Fraction(32 * 5, big_d)) == 2 * 33 + 5
        assert cfg.code_value(33 + 16) == Fraction(16, cfg.value_denominator)

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(2, 13) for r in range(1, n // 2 + 1)])
    def test_codes_spell_every_layer_value_in_order(self, n, r):
        # Every code of every level, in increasing order, maps to a strictly
        # larger numerator (f_k * t, t in [1, 4 * pool_size(k)]) and back.
        cfg = GroundConfig(n, r)
        previous = 0
        assert cfg.code_value(0) == 0
        for level in range(1, cfg.layer_count + 1):
            k = cfg.layer_count + 1 - level
            for t in range(1, 4 * cfg.pool_size(k) + 1):
                code = level * cfg.code_radix + t
                num = cfg.code_value(code) * cfg.value_denominator
                assert num == cfg.layer_factors[k - 1] * t > previous
                assert cfg.value_code(cfg.code_value(code)) == code
                previous = num
        assert previous == 2 * cfg.value_denominator

    @pytest.mark.parametrize("n,r", [(1024, 1), (1024, 14), (1000, 3)])
    def test_deep_levels_do_not_overlap(self, n, r):
        # The top of each level lies below the bottom of the next one up.
        cfg = GroundConfig(n, r)
        radix = cfg.code_radix
        for level in range(1, cfg.layer_count + 1):
            k = cfg.layer_count + 1 - level
            low, high = level * radix + 1, level * radix + 4 * cfg.pool_size(k)
            assert cfg.code_value(low) * cfg.value_denominator == cfg.layer_factors[k - 1]
            assert cfg.value_code(cfg.code_value(high)) == high
            if level < cfg.layer_count:  # f_(k-1) = 2 * f_k * 4 * pool_size(k)
                assert 2 * cfg.code_value(high) == cfg.code_value(low + radix)
            for code in (low - 1, high + 1):
                with pytest.raises(ValueError, match="is no layer code"):
                    cfg.code_value(code)

    @pytest.mark.parametrize("n,r", [(4, 1), (6, 1)])
    def test_numerator_code_rejects_every_non_price(self, n, r):
        # Every multiple of 1/D in [0, 2], and a step past either end: the
        # layer prices map to codes, every other numerator raises.
        cfg = GroundConfig(n, r)
        prices = {0} | {f * t for k, f in enumerate(cfg.layer_factors, start=1)
                        for t in range(1, 4 * cfg.pool_size(k) + 1)}
        rejected = 0
        for num in range(-1, 2 * cfg.value_denominator + 2):
            value = Fraction(num, cfg.value_denominator)
            if num in prices:
                assert cfg.code_value(cfg.value_code(value)) == value
            else:
                with pytest.raises(ValueError, match="is no value of a layer"):
                    cfg.value_code(value)
                rejected += 1
        assert rejected == 2 * cfg.value_denominator + 3 - len(prices)

    # (4, 1), M = 17: a negative code, level 0 but not 0, price 0 at a
    # level, a price past 4 * pool (8 at level 1), levels past L = 2.
    @pytest.mark.parametrize("code", [-1, 1, 16, 17, 17 + 9, 3 * 17 + 1, 10**40])
    def test_code_numerator_rejects_codes_that_spell_nothing(self, code):
        with pytest.raises(ValueError, match="is no layer code"):
            GroundConfig(4, 1).code_value(code)

    def test_even_division(self):
        cfg = GroundConfig(8, 2)
        assert cfg.effective_size == 8
        assert cfg.divides_evenly

    @pytest.mark.parametrize("n,r", [(0, 1), (4, 0), (4, 3), (-1, 1)])
    def test_rejects_bad_parameters(self, n, r):
        with pytest.raises(ValueError):
            GroundConfig(n, r)

    @pytest.mark.parametrize("n,r", [("4", 1), (4.0, 1), (4, True), (None, 1), (4, [1])],
                             ids=["str-n", "float-n", "bool-r", "none-n", "list-r"])
    def test_rejects_non_integer_parameters(self, n, r):
        with pytest.raises(ValueError):
            GroundConfig(n, r)

    def test_layer_count_at_least_one(self):
        assert GroundConfig(2, 1).layer_count == 1
        assert GroundConfig(1024, 512).layer_count == 1

    @pytest.mark.parametrize("layer", [0, -1, 3, 4])
    def test_pool_size_rejects_a_layer_out_of_range(self, layer):
        with pytest.raises(ValueError, match=rf"layer must be in 1\.\.2, got {layer}$"):
            GroundConfig(10, 2).pool_size(layer)


class TestRelate:
    def test_equal(self):
        assert relate(subset(1, 0), subset(1, 0)) is Relation.EQUAL

    def test_empty_is_strict_subset_of_nonempty(self):
        assert relate(Subset(1), subset(1, 0)) is Relation.STRICT_SUBSET

    def test_incomparable(self):
        assert relate(subset(3, 1), subset(3, 0, 2)) is Relation.INCOMPARABLE

    def test_strict_superset(self):
        assert relate(subset(3, 0, 1), subset(3, 0)) is Relation.STRICT_SUPERSET

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            relate(Subset(2), Subset(3))

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_strict_cases_antisymmetric_exhaustive(self, n):
        for sb in range(1 << n):
            s = Subset(n, sb)
            for tb in range(1 << n):
                t = Subset(n, tb)
                fwd, bwd = relate(s, t), relate(t, s)
                if fwd is Relation.STRICT_SUBSET:
                    assert bwd is Relation.STRICT_SUPERSET
                elif fwd is Relation.STRICT_SUPERSET:
                    assert bwd is Relation.STRICT_SUBSET
                else:
                    assert fwd is bwd


class TestAlgebra:
    def test_intersection(self):
        assert subset(3, 0, 1) & subset(3, 1, 2) == subset(3, 1)

    def test_union_with_empty_is_identity(self):
        assert subset(2, 0, 1) | Subset(2) == subset(2, 0, 1)

    def test_difference_cardinality(self):
        assert len(subset(3, 0, 1, 2) - subset(3, 1)) == 2

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            subset(2, 0) | subset(3, 0)

    @pytest.mark.parametrize("op", [
        lambda s, t: s | t, lambda s, t: s & t, lambda s, t: s - t, Subset.is_subset_of])
    def test_every_binary_operation_rejects_mismatched_sizes(self, op):
        with pytest.raises(ValueError, match="mismatched ground sizes: 2 vs 3"):
            op(subset(2, 0), subset(3, 0))

    @pytest.mark.parametrize("op", [lambda s, t: s | t, lambda s, t: s & t, lambda s, t: s - t])
    def test_set_operators_reject_a_non_subset(self, op):
        with pytest.raises(TypeError, match="^expected Subset, got int$"):
            op(subset(2, 0), 1)

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_inclusion_exclusion_exhaustive(self, n):
        for sb in range(1 << n):
            s = Subset(n, sb)
            for tb in range(1 << n):
                t = Subset(n, tb)
                assert len(s | t) + len(s & t) == len(s) + len(t)

    @given(st.integers(1, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1), st.integers(0, 2**n - 1))))
    def test_difference_via_complement(self, args):
        n, sb, tb = args
        s, t = Subset(n, sb), Subset(n, tb)
        assert s - t == s & (Subset.full(n) - t)

    def test_membership_and_iteration(self):
        s = subset(6, 1, 4)
        assert 1 in s and 4 in s and 0 not in s
        assert list(s) == [1, 4]
        assert s.indices() == [1, 4]

    def test_hash_and_repr(self):
        s = subset(6, 1, 4)
        assert hash(s) == hash(Subset(6, 0b10010)) and len({s, Subset(6, 0b10010), Subset(7, 0b10010)}) == 2
        assert repr(s) == "Subset(6, {1, 4})" and repr(Subset(3)) == "Subset(3, {})"

    @pytest.mark.parametrize("size", [-1, 1025])
    def test_rejects_a_size_outside_capacity(self, size):
        with pytest.raises(ValueError, match=rf"size must be in 0\.\.1024, got {size}$"):
            Subset(size)

    @pytest.mark.parametrize("size,bits,text", [(4, -1, "-0x1"), (4, 1 << 4, "0x10"), (0, 1, "0x1")])
    def test_rejects_bits_out_of_range(self, size, bits, text):
        with pytest.raises(ValueError, match=rf"^bits {text} out of range for size {size}$"):
            Subset(size, bits)

    def test_immutability(self):
        s = subset(3, 0)
        with pytest.raises(AttributeError):
            s.bits = 7
        with pytest.raises(AttributeError):
            s.size = 4
        assert not hasattr(s, "__dict__")
        # The hash is the (size, bits) pair's, so set and dict order, and with
        # them every report, do not depend on how Subset spells its hash.
        for n, bits in ((0, 0), (5, 0b10110), (1024, (1 << 1024) - 1)):
            assert hash(Subset(n, bits)) == hash((n, bits))
        assert Subset(3, 1) != (3, 1)
        assert Subset(3, 1) == Subset.from_indices(3, [0]) == Subset.from_json(3, [0])

    def test_json_round_trip(self):
        s = subset(8, 0, 2, 5)
        assert s.to_json() == [0, 2, 5]
        assert Subset.from_json(8, [0, 2, 5]) == s
        assert Subset.from_json(8, []) == Subset(8)

    @pytest.mark.parametrize("data", [
        [2, 0], [0, 2, 2], [0, True], [False], [0, 1.0], ["1"], (0, 2), "02", {"0": 1}, None, [8], [-1],
    ])
    def test_from_json_rejects_what_to_json_never_writes(self, data):
        with pytest.raises(ValueError):
            Subset.from_json(8, data)

    @given(st.integers(0, 70).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))))
    def test_indices_are_the_set_bits_ascending(self, args):
        n, bits = args
        assert Subset(n, bits).indices() == [i for i in range(n) if (bits >> i) & 1]

    # Masks of up to 1024 elements with 0 to 400 members: sparse ones peel
    # their set bits, denser ones scan their binary digits.
    @given(st.integers(1, 1024).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n - 1), max_size=min(n, 400)))))
    def test_indices_of_sparse_and_dense_masks(self, args):
        n, members = args
        bits = sum(1 << i for i in members)
        assert Subset(n, bits).indices() == sorted(members)


class TestEnumerateSubsets:
    def test_n2_order(self):
        got = [s.indices() for s in enumerate_subsets(2)]
        assert got == [[], [0], [1], [0, 1]]

    def test_n1(self):
        assert [s.indices() for s in enumerate_subsets(1)] == [[], [0]]

    def test_n3_endpoints(self):
        subsets = list(enumerate_subsets(3))
        assert len(subsets) == 8
        assert subsets[0] == Subset(3)
        assert subsets[-1] == Subset.full(3)

    @pytest.mark.parametrize("n", [0, 1, 4, 8])
    def test_yields_distinct_power_set(self, n):
        seen = set(s.bits for s in enumerate_subsets(n))
        assert len(seen) == 1 << n

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match=r"n must be non-negative, got -1$"):
            next(enumerate_subsets(-1))

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            next(enumerate_subsets(EXHAUSTIVE_CAP + 1))


def test_scatter_places_bit_p_on_the_carriers_pth_member():
    carrier = Subset.from_indices(10, [1, 4, 5, 9]).bits
    assert scatter(0b1010, carrier) == (1 << 4) | (1 << 9)
    assert scatter(0, carrier) == 0
    assert scatter(0b111111, carrier) == carrier  # bits past the last member drop
    assert scatter(0b1, 0) == 0


class TestSingletonBatch:
    """An iterable of ``base | 1 << e`` over the members, in increasing e, with a length."""

    @pytest.mark.parametrize("base,members", [(0, 0), (0, 0b1), (0b1010, 0b0110), (0b1, 1 << 70 | 0b101), (7, 7)])
    def test_iterates_as_the_mask_list(self, base, members):
        want = [base | 1 << e for e in range(members.bit_length()) if members >> e & 1]
        batch = SingletonBatch(base, members)
        assert len(batch) == len(want) and bool(batch) == bool(want)
        assert list(batch) == want

    @pytest.mark.parametrize("base,members", [(-1, 3), (3, -1), (-2, -8)])
    def test_negative_inputs_raise(self, base, members):
        with pytest.raises(ValueError):
            SingletonBatch(base, members)
