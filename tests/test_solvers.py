import itertools
import math
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from layeredsfm import family, solvers

from layeredsfm.family import (
    LayeredInstance,
    evaluate_closed_form,
    evaluate_recursive,
    first_divergent_layer,
    sample_instance,
    true_minimizer,
)
from layeredsfm.oracles import HalvingAdversary, HonestOracle, _Oracle
from layeredsfm.rationals import format_value
from layeredsfm.sets import GroundConfig, Relation, Subset, enumerate_subsets
from layeredsfm.solvers import (
    SOLVERS,
    CorruptedOracleError,
    LayerAnswer,
    SolverResult,
    _singleton_class,
    brute_force_minimize,
    decode_layer_answer,
    family_aware_minimize,
    singleton_parallel_minimize,
)
from test_sets import scale_denominators


def subset(n, *indices):
    return Subset.from_indices(n, indices)


@pytest.fixture
def two_layer_instance():
    cfg = GroundConfig(4, 1)
    return LayeredInstance(
        cfg,
        [subset(4, 0, 1), subset(4, 2, 3)],
        [subset(4, 0), subset(4, 2)],
    )


class TestBruteForce:
    def test_two_layers(self, two_layer_instance):
        res = brute_force_minimize(HonestOracle(two_layer_instance))
        assert res.minimizer == subset(4, 0, 2)
        assert res.min_value == 0
        assert res.queries == 16
        assert res.rounds == 1

    def test_base_case(self):
        inst = LayeredInstance(GroundConfig(2, 1), [subset(2, 0, 1)], [subset(2, 1)])
        res = brute_force_minimize(HonestOracle(inst))
        assert res.minimizer == subset(2, 1)
        assert res.min_value == 0
        assert res.queries == 4

    def test_against_adversary_matches_finalized_instance(self):
        adv = HalvingAdversary(GroundConfig(4, 1))
        res = brute_force_minimize(adv)
        inst = adv.finalize()
        assert res.minimizer == true_minimizer(inst)
        assert res.min_value == 0

    def test_cap(self):
        class Dummy:
            config = GroundConfig(30, 1)

        with pytest.raises(ValueError):
            brute_force_minimize(Dummy())

    def test_lexicographic_tie_break(self):
        # Constant oracle: every subset ties, the least index list wins
        # (empty set first).
        class Flat:
            config = GroundConfig(3, 1)

            def begin_round(self):
                pass

            answer_batch = _Oracle.answer_batch

            def answer(self, s):
                return Fraction(1)

        res = brute_force_minimize(Flat())
        assert res.minimizer == Subset(3)

    def test_tie_break_prefers_later_least_index_list(self):
        # {1} is enumerated before {0, 2} but [0, 2] < [1] wins the tie.
        class TwoMinima:
            config = GroundConfig(3, 1)

            def begin_round(self):
                pass

            answer_batch = _Oracle.answer_batch

            def answer(self, s):
                return Fraction(0) if s.indices() in ([1], [0, 2]) else Fraction(1)

        res = brute_force_minimize(TwoMinima())
        assert res.minimizer == subset(3, 0, 2)

    @pytest.mark.parametrize("first,second,winner", [
        ([1], [0, 12], [0, 12]),  # the later batch's tie wins
        ([0, 1], [0, 12], [0, 1]),  # the earlier batch's tie is kept
    ])
    def test_tie_break_spans_batches(self, first, second, winner):
        # n = 13 is two batches; masks of sets with element 12 lie in the second.
        assert _mask(first) < solvers.BRUTE_FORCE_CHUNK <= _mask(second) < 2 * solvers.BRUTE_FORCE_CHUNK
        minima = {_mask(first), _mask(second)}

        class TwoBatchMinima(_Oracle):
            def answer(self, s):
                self._count_queries()
                return Fraction(0) if s.bits in minima else Fraction(1)

        oracle = TwoBatchMinima(GroundConfig(13, 1))
        res = brute_force_minimize(oracle)
        assert res.minimizer == subset(13, *winner)
        assert res.min_value == 0
        assert (res.queries, res.rounds) == (oracle.queries, oracle.rounds) == (1 << 13, 1)

    def test_off_lattice_answer_raises(self, two_layer_instance):
        off = Fraction(1, 7 * two_layer_instance.config.value_denominator)

        class OffLattice(HonestOracle):
            answer_batch = _Oracle.answer_batch

            def answer(self, s):
                value = super().answer(s)
                return value + off if s.bits == 0b1010 else value

        with pytest.raises(CorruptedOracleError):
            brute_force_minimize(OffLattice(two_layer_instance))

    def test_a_least_code_that_spells_no_value_raises(self):
        # A batch-only oracle's answers reach brute force unchecked; the
        # least one is read back as a value, and a code that spells none raises.
        class Junk:
            config = GroundConfig(3, 1)

            def begin_round(self):
                pass

            def answer_batch(self, masks):
                return [-1] * len(masks)

        with pytest.raises(CorruptedOracleError, match="^least answer code -1 is no value of a layer$"):
            brute_force_minimize(Junk())

    @pytest.mark.parametrize("n,r", [(6, 1), (8, 1), (8, 2), (9, 2), (12, 3)])
    def test_a_least_code_above_zero(self, n, r):
        # The minimizer is answered the table's largest code, so the least
        # code is another mask's: the least value of the rest by the
        # recursion, ties to the least index list.
        cfg = GroundConfig(n, r)
        inst = sample_instance(cfg, n + r)
        top = max(inst.table.values(range(1 << n), cfg.code_lift))
        sunk = true_minimizer(inst).bits

        class Sunk(HonestOracle):
            def answer_batch(self, masks):
                codes = super().answer_batch(masks)
                return [top if m == sunk else code for m, code in zip(masks, codes)]

        rest = [s for s in enumerate_subsets(n) if s.bits != sunk]
        values = [evaluate_recursive(inst, s) for s in rest]
        low = min(values)
        want = min((s for s, v in zip(rest, values) if v == low), key=Subset.indices)
        res = brute_force_minimize(Sunk(inst))
        assert (res.minimizer, res.min_value) == (want, low)
        assert low > 0 or not cfg.divides_evenly

    def test_value_and_minimizer_match_per_query_scan(self):
        for n, r in [(7, 1), (12, 3), (13, 2)]:
            cfg = GroundConfig(n, r)
            inst = sample_instance(cfg, n)
            values = [evaluate_closed_form(inst, s) for s in enumerate_subsets(n)]
            low = min(values)
            want = min((s for s, v in zip(enumerate_subsets(n), values) if v == low), key=Subset.indices)
            res = brute_force_minimize(HonestOracle(inst))
            assert (res.minimizer, res.min_value) == (want, low)


def _code(cfg, layer, t):
    """The layer code of price ``t`` at ``layer``, written out: (L + 1 - k) * M + t."""
    return (cfg.layer_count + 1 - layer) * (4 * cfg.effective_size + 1) + t


def _reference_decode(value, layer_scale, pool_size, queried_in_pool, r):
    """The decoder by Fraction division, kept as the reference."""
    v = Fraction(value) / layer_scale
    if v < 0 or v > 2:
        raise CorruptedOracleError(f"normalized value {format_value(v)} outside [0, 2]")
    if v == 2:
        return LayerAnswer(relation=Relation.INCOMPARABLE, outside_block=None)
    if v == 1:
        # Nothing below the block: the queried pool part is the block part.
        if queried_in_pool == r:
            raise CorruptedOracleError("comparable answer with r queried pool elements would be an exact match")
        rel = Relation.STRICT_SUBSET if queried_in_pool < r else Relation.STRICT_SUPERSET
        return LayerAnswer(relation=rel, outside_block=0)
    if v <= Fraction(1, 4 * pool_size):
        return LayerAnswer(relation=Relation.EQUAL, outside_block=None)
    if v > 1:
        rel, count = Relation.STRICT_SUBSET, 2 * pool_size * (v - 1)
    else:
        rel, count = Relation.STRICT_SUPERSET, 2 * pool_size * (1 - v)
    if count.denominator != 1 or count > pool_size:
        raise CorruptedOracleError(f"normalized value {format_value(v)} matches no layer case")
    return LayerAnswer(relation=rel, outside_block=int(count))


def _assert_decodes_as_its_value(cfg, code, layer, queried):
    """``code`` decodes at ``layer`` as the Fraction reference decodes the
    value it spells, or, where it spells none or the reference raises,
    raises CorruptedOracleError.  Returns whether it decoded."""
    pool, r = cfg.pool_size(layer), cfg.r
    try:
        want = _reference_decode(cfg.code_value(code), Fraction(1, scale_denominators(cfg)[layer - 1]),
                                 pool, queried, r)
    except (ValueError, CorruptedOracleError):
        with pytest.raises(CorruptedOracleError):
            decode_layer_answer(code, cfg.code_radix, pool, queried, r)
        return False
    assert decode_layer_answer(code, cfg.code_radix, pool, queried, r) == want, (code, layer, queried)
    return True


class TestDecode:
    @pytest.mark.parametrize("n,r", [(4, 1), (8, 1), (12, 3)])
    def test_every_code_decodes_as_its_value_or_raises(self, n, r):
        # Totality: every int in [-1, (L + 1) * M], at every layer and count.
        cfg = GroundConfig(n, r)
        outcomes = Counter()
        for code in range(-1, (cfg.layer_count + 1) * cfg.code_radix + 1):
            for layer in range(1, cfg.layer_count + 1):
                for queried in range(cfg.pool_size(layer) + 1):
                    outcomes[_assert_decodes_as_its_value(cfg, code, layer, queried)] += 1
        assert outcomes[True] and outcomes[False]

    @pytest.mark.parametrize("n,r,layer", [(6, 1, 2), (16, 2, 3), (1024, 1, 400), (1024, 1, 512)])
    def test_matches_fraction_reference(self, n, r, layer):
        # Every price at the decoded level, the two levels below it and the
        # one above, plus 0 and the ends of the range, against the reference.
        cfg = GroundConfig(n, r)
        level = cfg.layer_count + 1 - layer
        codes = [-1, 0, (cfg.layer_count + 1) * cfg.code_radix]
        codes += [hi * cfg.code_radix + t for hi in range(max(level - 2, 0), level + 2) for t in range(cfg.code_radix)]
        outcomes = Counter()
        for code in codes:
            for queried in (r - 1, r, r + 1):
                outcomes[_assert_decodes_as_its_value(cfg, code, layer, queried)] += 1
        assert outcomes[True] and outcomes[False]

    def test_strict_subset_with_count(self):
        cfg = GroundConfig(4, 1)  # layer 1: pool 4, normalized value t / 8
        ans = decode_layer_answer(_code(cfg, 1, 9), cfg.code_radix, 4, 1, 1)
        assert ans.relation is Relation.STRICT_SUBSET
        assert ans.outside_block == 1

    def test_incomparable(self):
        cfg = GroundConfig(4, 1)
        ans = decode_layer_answer(_code(cfg, 1, 16), cfg.code_radix, 4, 1, 1)
        assert ans.relation is Relation.INCOMPARABLE
        assert ans.outside_block is None

    def test_exact_match_is_unique_zero_region(self):
        cfg = GroundConfig(4, 1)
        ans = decode_layer_answer(0, cfg.code_radix, 4, 1, 1)
        assert ans.relation is Relation.EQUAL
        # Layer 2's price 4 is 1/32 normalized at layer 1: a residual.
        ans = decode_layer_answer(_code(cfg, 2, 4), cfg.code_radix, 4, 1, 1)
        assert ans.relation is Relation.EQUAL

    def test_rejects_residual_above_exact_match_bound(self):
        # At layer 1 of (8, 1) (pool 8) an exact match's residual is a layer-2
        # price, at most 4 * 6 = 24; a price above it, or a small price at
        # layer 1 itself, is no residual.
        cfg = GroundConfig(8, 1)
        assert decode_layer_answer(_code(cfg, 2, 24), cfg.code_radix, 8, 1, 1).relation is Relation.EQUAL
        for code in (_code(cfg, 2, 25), _code(cfg, 1, 1), _code(cfg, 1, 0)):
            with pytest.raises(CorruptedOracleError):
                decode_layer_answer(code, cfg.code_radix, 8, 1, 1)

    @pytest.mark.parametrize("radix,pool_size,r", [(0, 4, 1), (-8, 4, 1), (17, 0, 1), (17, -4, 1), (16, 4, 1),
                                                   (17, 3, 1), (17, 2, 2), (17, 4, 0), (17, 4, -1)])
    def test_rejects_a_bad_radix_or_pool(self, radix, pool_size, r):
        # A caller's error, not an oracle's, so not CorruptedOracleError.
        with pytest.raises(ValueError, match="pool size must be a positive multiple of 2r"):
            decode_layer_answer(1, radix, pool_size, 1, r)

    def test_strict_superset_with_count(self):
        cfg = GroundConfig(4, 1)
        ans = decode_layer_answer(_code(cfg, 1, 7), cfg.code_radix, 4, 3, 1)
        assert ans.relation is Relation.STRICT_SUPERSET
        assert ans.outside_block == 1

    def test_ambiguous_comparable_disambiguates(self):
        # Price 2 * pool (normalized value 1, nothing below the block): the pool count decides.
        cfg = GroundConfig(4, 1)
        code = _code(cfg, 1, 8)
        assert decode_layer_answer(code, cfg.code_radix, 4, 0, 1) == (Relation.STRICT_SUBSET, 0)
        assert decode_layer_answer(code, cfg.code_radix, 4, 2, 1) == (Relation.STRICT_SUPERSET, 0)
        with pytest.raises(CorruptedOracleError):
            decode_layer_answer(code, cfg.code_radix, 4, 1, 1)

    def test_pool_count_decides_only_the_comparable_case(self):
        # At r = 2, pool 8: price 16 against r queried pool elements would be an
        # exact match; every other code decodes the same at every count.
        cfg = GroundConfig(8, 2)
        radix = cfg.code_radix
        assert decode_layer_answer(_code(cfg, 1, 16), radix, 8, 1, 2) == LayerAnswer(Relation.STRICT_SUBSET, 0)
        assert decode_layer_answer(_code(cfg, 1, 16), radix, 8, 3, 2) == LayerAnswer(Relation.STRICT_SUPERSET, 0)
        with pytest.raises(CorruptedOracleError, match="exact match"):
            decode_layer_answer(_code(cfg, 1, 16), radix, 8, 2, 2)
        for code, decided in [(_code(cfg, 1, 17), LayerAnswer(Relation.STRICT_SUBSET, 1)),
                              (0, LayerAnswer(Relation.EQUAL, None)),
                              (_code(cfg, 1, 15), LayerAnswer(Relation.STRICT_SUPERSET, 1)),
                              (_code(cfg, 1, 32), LayerAnswer(Relation.INCOMPARABLE, None))]:
            for queried in range(9):
                assert decode_layer_answer(code, radix, 8, queried, 2) == decided, (code, queried)

    def test_scaled_layers(self):
        # Same cases one layer deeper (n=6, layer 2: pool of 4): price 10 is
        # normalized value 5/4, two queried elements below the block.
        cfg = GroundConfig(6, 1)
        ans = decode_layer_answer(_code(cfg, 2, 10), cfg.code_radix, 4, 2, 1)
        assert ans.relation is Relation.STRICT_SUBSET
        assert ans.outside_block == 2

    # (4, 1), M = 17: at layer 2 (pool 2) a price above 4 * pool; at layer 1
    # (pool 4) a count above the pool, price 0, a negative code, a level
    # above every layer's, and a layer-2 code whose price is above 4 * 2.
    @pytest.mark.parametrize("code,pool", [(17 + 9, 2), (2 * 17 + 14, 4), (2 * 17, 4), (-1, 4), (3 * 17 + 8, 4),
                                           (17 + 9, 4)])
    def test_rejects_codes_no_instance_produces(self, code, pool):
        with pytest.raises(CorruptedOracleError):
            decode_layer_answer(code, GroundConfig(4, 1).code_radix, pool, 0, 1)

    @pytest.mark.parametrize("n,r,seed", [(6, 1, 0), (8, 2, 1), (10, 1, 2)])
    def test_round_trip_against_real_instances(self, n, r, seed):
        # Decoding the code of any query reproduces the true relation and
        # the true count of queried elements below the block.
        cfg = GroundConfig(n, r)
        inst = sample_instance(cfg, seed)
        codes = HonestOracle(inst).answer_batch(range(1 << n))
        for s, code in zip(enumerate_subsets(n), codes):
            k = first_divergent_layer(inst, s)
            if k is None:
                continue
            pool = inst.pools[k - 1]
            ans = decode_layer_answer(code, cfg.code_radix, len(pool), len(s & pool), r)
            block = inst.blocks[k - 1]
            from layeredsfm.sets import relate

            true_rel = relate(s & block, inst.hidden_sets[k - 1])
            assert ans.relation is true_rel
            if true_rel in (Relation.STRICT_SUBSET, Relation.STRICT_SUPERSET):
                assert ans.outside_block == len((s & pool) - block)

    @pytest.mark.parametrize("n,r,seed", [(6, 1, 0), (8, 2, 1), (12, 3, 2)])
    def test_answer_codes_decode_as_values(self, n, r, seed):
        # The solvers' pair: an answer code against the radix decodes as the
        # reference decodes the value over the layer's scale 1/d_k.
        cfg = GroundConfig(n, r)
        inst = sample_instance(cfg, seed)
        codes = HonestOracle(inst).answer_batch(range(1 << n))
        for m, code in enumerate(codes):
            s = Subset(n, m)
            k = first_divergent_layer(inst, s)
            if k is None:
                continue
            pool, queried = len(inst.pools[k - 1]), len(s & inst.pools[k - 1])
            assert inst.layer_scale(k) == Fraction(1, scale_denominators(cfg)[k - 1])
            got = decode_layer_answer(code, cfg.code_radix, pool, queried, r)
            assert got == _reference_decode(evaluate_closed_form(inst, s), inst.layer_scale(k), pool, queried, r)


class TestLayerAnswer:
    def test_fields_in_order(self):
        ans = LayerAnswer(Relation.STRICT_SUBSET, 3)
        assert LayerAnswer._fields == ("relation", "outside_block")
        assert (ans.relation, ans.outside_block) == (Relation.STRICT_SUBSET, 3)
        assert ans == LayerAnswer(relation=Relation.STRICT_SUBSET, outside_block=3)

    @pytest.mark.parametrize("field", ["relation", "outside_block", "other"])
    def test_attributes_cannot_be_set(self, field):
        ans = LayerAnswer(Relation.STRICT_SUBSET, 0)
        with pytest.raises(AttributeError):
            setattr(ans, field, 2)

    def test_equal_by_fields(self):
        ans = LayerAnswer(Relation.EQUAL, None)
        assert ans == LayerAnswer(Relation.EQUAL, None)
        assert hash(ans) == hash(LayerAnswer(Relation.EQUAL, None))
        for other in (LayerAnswer(Relation.INCOMPARABLE, None), LayerAnswer(Relation.EQUAL, 0)):
            assert ans != other


class TestDecodedAnswersAreNamedTuples:
    """The decoder builds answers with ``tuple.__new__``; each must behave
    as the keyword-built ``LayerAnswer`` of its fields."""

    def _assert_named_tuple(self, ans, relation, outside_block):
        want = LayerAnswer(relation=relation, outside_block=outside_block)
        assert type(ans) is LayerAnswer
        assert ans._fields == ("relation", "outside_block")
        assert (ans.relation, ans.outside_block) == tuple(ans) == tuple(want)
        assert ans == want and hash(ans) == hash(want) and repr(ans) == repr(want)
        assert ans._replace(outside_block=7) == want._replace(outside_block=7)
        assert ans._asdict() == want._asdict()

    @pytest.mark.parametrize("pool", [2, 4, 6, 1008])
    def test_every_decoder_case(self, pool):
        radix = 4 * 1024 + 1
        level = pool // 2  # r = 1
        cases = [
            (level * radix + 4 * pool, Relation.INCOMPARABLE, None),  # v = 2
            (level * radix + 2 * pool, None, 0),  # v = 1: the pool count against r decides
            (0, Relation.EQUAL, None),
            *(((level - 1) * radix + 1, Relation.EQUAL, None),) * (level > 1),  # an exact match's residual
            *((level * radix + 2 * pool + c, Relation.STRICT_SUBSET, c) for c in range(1, pool + 1)),
            *((level * radix + 2 * pool - c, Relation.STRICT_SUPERSET, c) for c in range(1, pool + 1)),
        ]
        for code, relation, count in cases:
            for queried, comparable in ((0, Relation.STRICT_SUBSET), (2, Relation.STRICT_SUPERSET)):
                ans = decode_layer_answer(code, radix, pool, queried, 1)
                self._assert_named_tuple(ans, relation or comparable, count)

    def test_every_family_aware_answer(self, monkeypatch):
        cfg = GroundConfig(64, 2)
        calls, decode = [], solvers.decode_layer_answer
        monkeypatch.setattr(solvers, "decode_layer_answer",
                            lambda *args: calls.append((args, decode(*args))) or calls[-1][1])
        family_aware_minimize(HonestOracle(sample_instance(cfg, 9)), cfg)
        # The comparable case, price 2 * pool at the decoded level, decided by the count.
        assert any(divmod(code, radix) == (pool // (2 * r), 2 * pool) for (code, radix, pool, _, r), _ in calls)
        assert {ans.relation for _, ans in calls} >= {Relation.EQUAL, Relation.STRICT_SUBSET}
        for _, ans in calls:
            assert ans.relation is not None
            self._assert_named_tuple(ans, *ans)


@st.composite
def _decoder_inputs(draw):
    """``(cfg, layer, code)``: a config of up to 40 layers (dummies or not),
    a layer, and a code at or next to that layer's level, any price and one
    past either end, or an arbitrary int."""
    r = draw(st.integers(1, 3))
    ell = draw(st.integers(1, 40))
    cfg = GroundConfig(2 * r * ell + draw(st.integers(0, 2 * r - 1)), r)
    layer = draw(st.integers(1, ell))
    level = ell + 1 - layer
    code = draw(st.one_of(
        st.builds(lambda hi, t: hi * cfg.code_radix + t, st.integers(level - 2, level + 1),
                  st.integers(-1, cfg.code_radix)),
        st.integers(-(1 << 40), 1 << 40),
        st.just(0),
    ))
    return cfg, layer, code


@settings(max_examples=2000, deadline=None)
@given(_decoder_inputs(), st.integers(0, 4))
def test_decoder_matches_fraction_reference(args, queried):
    # The same LayerAnswer, or CorruptedOracleError where the reference
    # raises or the code spells no value.
    cfg, layer, code = args
    _assert_decodes_as_its_value(cfg, code, layer, queried)


class TestFamilyAware:
    def test_two_layer_example(self, two_layer_instance):
        res = family_aware_minimize(HonestOracle(two_layer_instance), two_layer_instance.config)
        assert res.minimizer == subset(4, 0, 2)
        assert res.min_value == 0
        assert res.queries <= 8 * 4 * 2

    @pytest.mark.parametrize("n,r", [(16, 1), (16, 2), (12, 3), (64, 8), (32, 2)])
    def test_correct_on_random_instances(self, n, r):
        cfg = GroundConfig(n, r)
        for seed in range(20):
            inst = sample_instance(cfg, seed)
            res = family_aware_minimize(HonestOracle(inst), cfg)
            assert res.minimizer == true_minimizer(inst)
            assert res.min_value == 0
            assert res.queries <= 8 * n * math.log2(n)

    def test_16_2_hundred_seeds_brute_checked(self):
        cfg = GroundConfig(16, 2)
        for seed in range(100):
            inst = sample_instance(cfg, seed)
            res = family_aware_minimize(HonestOracle(inst), cfg)
            brute = brute_force_minimize(HonestOracle(inst))
            assert res.minimizer == brute.minimizer == true_minimizer(inst)
            assert res.min_value == brute.min_value == 0

    def test_matches_brute_force_with_dummies(self):
        cfg = GroundConfig(11, 1)  # 2r does not divide n
        for seed in range(10):
            inst = sample_instance(cfg, seed)
            res = family_aware_minimize(HonestOracle(inst), cfg)
            brute = brute_force_minimize(HonestOracle(inst))
            assert res.minimizer == brute.minimizer == true_minimizer(inst)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_adversary_floor(self, n):
        cfg = GroundConfig(n, 1)
        adv = HalvingAdversary(cfg)
        res = family_aware_minimize(adv, cfg)
        inst = adv.finalize()
        assert res.minimizer == true_minimizer(inst)
        assert res.queries >= (n / 2) * math.log2(n / 4)

    def test_rounds_do_not_exceed_queries(self, two_layer_instance):
        res = family_aware_minimize(HonestOracle(two_layer_instance), two_layer_instance.config)
        assert 1 <= res.rounds <= res.queries

    def test_minimal_ground_set(self):
        cfg = GroundConfig(2, 1)
        inst = LayeredInstance(cfg, [subset(2, 0, 1)], [subset(2, 1)])
        res = family_aware_minimize(HonestOracle(inst), cfg)
        assert res.minimizer == subset(2, 1)
        assert res.min_value == 0


class TestFamilyAwareHotPath:
    """Counts, not wall time: ``sys.setprofile`` over one solve (n = 64, seed 5)
    counts the Python calls each one-query round makes."""

    # Measured 9.125 calls per query with one decoder call per answer (9.188
    # with a second call for the comparable case, 9.645 with one hint and a
    # keyword-built LayerAnswer, 12.07 when every query bisected and built a
    # frozen dataclass) and 0.111 lookups past the two hints (0.507 past one
    # hint, 1.000 with no hint).
    CALLS_PER_QUERY = 9.2
    LOOKUPS_PER_QUERY = 0.12

    def test_calls_per_query(self):
        cfg = GroundConfig(64, 1)
        oracle = HonestOracle(sample_instance(cfg, 5))
        calls = Counter()

        def profile(frame, event, arg):
            if event == "call":
                calls[frame.f_code.co_name] += 1

        sys.setprofile(profile)
        try:
            result = family_aware_minimize(oracle, cfg)
        finally:
            sys.setprofile(None)
        assert result.queries == 521
        assert calls.total() / result.queries <= self.CALLS_PER_QUERY
        assert calls["_divergent_layer"] / result.queries <= self.LOOKUPS_PER_QUERY

    def test_deepest_solve_rarely_searches(self, monkeypatch):
        # The layer of family_aware's queries alternates between k and k + 1;
        # with two hints 874 of the 14,455 lookups search (7,569 with one).
        cfg = GroundConfig(1024, 1)
        oracle = HonestOracle(sample_instance(cfg, 5))
        searches, search = [], family._divergent_layer
        monkeypatch.setattr(family, "_divergent_layer", lambda *args: searches.append(args) or search(*args))
        result = family_aware_minimize(oracle, cfg)
        assert result.queries == 14455
        assert len(searches) <= 1000


class TestSingletonParallel:
    @pytest.mark.parametrize("n,r,expected_rounds", [(8, 2, 2), (4, 1, 2), (32, 8, 2), (32, 4, 4)])
    def test_round_count(self, n, r, expected_rounds):
        cfg = GroundConfig(n, r)
        inst = sample_instance(cfg, 13)
        res = singleton_parallel_minimize(HonestOracle(inst), cfg)
        assert res.rounds == expected_rounds == cfg.layer_count
        assert res.minimizer == true_minimizer(inst)

    def test_query_count_is_sum_of_pool_sizes(self):
        cfg = GroundConfig(12, 2)
        inst = sample_instance(cfg, 3)
        res = singleton_parallel_minimize(HonestOracle(inst), cfg)
        assert res.queries == sum(cfg.pool_size(k) for k in range(1, cfg.layer_count + 1))

    def test_agrees_with_brute_force(self):
        cfg = GroundConfig(4, 1)
        for seed in range(10):
            inst = sample_instance(cfg, seed)
            par = singleton_parallel_minimize(HonestOracle(inst), cfg)
            brute = brute_force_minimize(HonestOracle(inst))
            assert par.minimizer == brute.minimizer

    def test_corrupted_oracle_detected(self):
        cfg = GroundConfig(4, 1)
        inst = sample_instance(cfg, 1)

        class Corrupted(HonestOracle):
            answer_batch = _Oracle.answer_batch

            def answer(self, s):
                value = super().answer(s)
                return value + Fraction(1, 3) if len(s) == 1 else value

        with pytest.raises(CorruptedOracleError):
            singleton_parallel_minimize(Corrupted(inst), cfg)

    @pytest.mark.parametrize("v", [Fraction(1, 3), Fraction(-1, 5), Fraction(1, 16)])
    def test_r1_hidden_answer_outside_residual_window_detected(self, v):
        # n = 8, seed 3: layer 1 has block {4, 5}, hidden {5}, pool 8 and
        # scale 1, so the query {5} must answer a residual in [0, 1/32].
        cfg = GroundConfig(8, 1)
        inst = sample_instance(cfg, 3)
        with pytest.raises(CorruptedOracleError):
            singleton_parallel_minimize(_Rewrite(inst, {inst.hidden_sets[0].bits: v}), cfg)

    @pytest.mark.parametrize("v,label", [
        (Fraction(1, 64), "hidden"), (Fraction(1, 32), "hidden"),
        (Fraction(1, 31), None), (Fraction(-1, 64), None),
    ])
    def test_r1_hidden_window_is_the_exact_match_residual(self, v, label):
        # Pool 8 at scale 1: the exact-match residual window is [0, 1/32].
        assert _reference_classify_singleton(v, 1, 8, 1) == label
        assert _solver_label(GroundConfig(8, 1), v) == label

    @pytest.mark.parametrize("first,second", [(-3, -5), (-5, -3), (3, 5), (5, 3)])
    def test_the_first_bad_answer_in_the_batch_is_named(self, first, second):
        # Layer 1 of n = 8 has scale 1, so each value is its own normalized
        # value: c/D with c < 0 lies below [0, 2], and 2 + c/D with c > 0
        # above it.  No layer takes either, and the batch names the first.
        cfg = GroundConfig(8, 1)
        inst = sample_instance(cfg, 3)
        big_d = cfg.value_denominator
        bad = [Fraction(c, big_d) + (2 if c > 0 else 0) for c in (first, second)]
        oracle = _Rewrite(inst, {0b1: bad[0], 0b10: bad[1]})
        message = f"answer {format_value(bad[0])} to query mask 0x1 is no value of a layer"
        with pytest.raises(CorruptedOracleError, match=f"^{re.escape(message)}$"):
            singleton_parallel_minimize(oracle, cfg)


class TestSolversAgree:
    @pytest.mark.parametrize("n,r", [(4, 1), (6, 1), (8, 2), (12, 2), (12, 1)])
    def test_all_three_return_identical_minimizer(self, n, r):
        cfg = GroundConfig(n, r)
        for seed in range(5):
            inst = sample_instance(cfg, seed)
            res_b = brute_force_minimize(HonestOracle(inst))
            res_f = family_aware_minimize(HonestOracle(inst), cfg)
            res_p = singleton_parallel_minimize(HonestOracle(inst), cfg)
            assert res_b.minimizer == res_f.minimizer == res_p.minimizer
            assert res_b.min_value == res_f.min_value == res_p.min_value == 0

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_each_run_counts_only_its_own_queries(self, name):
        # The oracle's counters add up every run it serves; a result reports its own run.
        cfg = GroundConfig(8, 1)
        oracle = HonestOracle(sample_instance(cfg, 0))
        first = SOLVERS[name](oracle, cfg)
        second = SOLVERS[name](oracle, cfg)
        assert (second.queries, second.rounds) == (first.queries, first.rounds)
        assert (oracle.queries, oracle.rounds) == (2 * first.queries, 2 * first.rounds)


def test_solver_result_json(two_layer_instance):
    res = brute_force_minimize(HonestOracle(two_layer_instance))
    assert res.to_json() == {
        "solver": "brute_force",
        "minimizer": [0, 2],
        "value": "0",
        "queries": 16,
        "rounds": 1,
    }


def _reference_family_aware(oracle, config):
    """The list-based solver (index-list blocks split by slicing), kept as
    the reference for the bit-mask one."""
    n, r = config.n, config.r
    budget = 8 * n * math.log2(max(n, 2))
    queries = 0

    def ask(s):
        nonlocal queries
        oracle.begin_round()
        queries += 1
        [code] = oracle.answer_batch([s.bits])
        value = config.code_value(code)
        if queries > budget:
            raise RuntimeError(f"query budget exceeded: {queries} > {budget:.0f} at n={n}, r={r}")
        return value

    def split(indices):
        mid = len(indices) // 2
        return indices[:mid], indices[mid:]

    prefix = Subset(n)
    pool = Subset.from_indices(n, range(config.effective_size))
    for layer in range(1, config.layer_count + 1):
        pool_size = len(pool)
        scale = Fraction(1, scale_denominators(config)[layer - 1])

        def decode(value, queried_in_pool):
            return _reference_decode(value, scale, pool_size, queried_in_pool, r)

        accepted = Subset(n)
        bad = []
        blocks = [pool.indices()]
        while blocks and len(bad) < r:
            w = blocks.pop()
            ans = decode(ask(prefix | accepted | Subset.from_indices(n, w)), len(accepted) + len(w))
            if ans.relation in (Relation.EQUAL, Relation.STRICT_SUBSET):
                accepted = accepted | Subset.from_indices(n, w)
            elif len(w) == 1:
                bad.append(w[0])
            else:
                first, second = split(w)
                blocks += [second, first]
        if len(bad) != r:
            raise CorruptedOracleError(
                f"layer {layer}: found {len(bad)} off-pattern block elements, expected {r}"
            )
        while blocks:
            accepted = accepted | Subset.from_indices(n, blocks.pop())

        hidden = []
        blocks = [accepted.indices()]
        while blocks and len(hidden) < r:
            w = blocks.pop()
            s = prefix | (accepted - Subset.from_indices(n, w))
            ans = decode(ask(s), len(accepted) - len(w))
            if ans.relation is Relation.EQUAL:
                pass
            elif ans.relation is Relation.STRICT_SUBSET:
                if len(w) == 1:
                    hidden.append(w[0])
                else:
                    first, second = split(w)
                    blocks += [second, first]
            else:
                raise CorruptedOracleError(f"layer {layer}: removal query decoded as {ans.relation}")
        if len(hidden) != r:
            raise CorruptedOracleError(
                f"layer {layer}: found {len(hidden)} hidden elements, expected {r}"
            )
        hidden_set = Subset.from_indices(n, hidden)
        prefix = prefix | hidden_set
        pool = accepted - hidden_set

    value = ask(prefix)
    return SolverResult("family_aware", prefix, value, queries, queries)


def _reference_singleton_parallel(oracle, config):
    """The list-based singleton-parallel solver, kept as the reference."""
    n, r = config.n, config.r
    prefix = Subset(n)
    pool = Subset.from_indices(n, range(config.effective_size))
    queries = rounds = 0
    for layer in range(1, config.layer_count + 1):
        pool_size = len(pool)
        denom = scale_denominators(config)[layer - 1]
        oracle.begin_round()
        rounds += 1
        classes = {"hidden": [], "off_block": [], "deeper": []}
        elements = pool.indices()
        codes = oracle.answer_batch([prefix.bits | 1 << e for e in elements])
        for e, code in zip(elements, codes):
            queries += 1
            value = config.code_value(code)
            label = _reference_classify_singleton(value, denom, pool_size, r)
            if label is None:
                raise CorruptedOracleError(
                    f"layer {layer}: singleton value {format_value(value)} matches no class"
                )
            classes[label].append(e)
        hidden, off_block = classes["hidden"], classes["off_block"]
        if len(hidden) != r or len(off_block) != r:
            raise CorruptedOracleError(
                f"layer {layer}: classified {len(hidden)} hidden / {len(off_block)} off-block, expected {r} each"
            )
        prefix = prefix | Subset.from_indices(n, hidden)
        pool = Subset.from_indices(n, classes["deeper"])
    return SolverResult("singleton_parallel", prefix, Fraction(0), queries, rounds)


class _Recording:
    """Forwards to an oracle, logging every round opened and every batch,
    as its list of (ground size, query mask) pairs."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.log = []

    def begin_round(self):
        self.log.append("round")
        self.oracle.begin_round()

    def answer_batch(self, masks):
        self.log.append([(self.oracle.config.n, m) for m in masks])
        return self.oracle.answer_batch(masks)


def _run_recorded(solve, oracle, cfg):
    recorder = _Recording(oracle)
    try:
        outcome = solve(recorder, cfg)
    except CorruptedOracleError as exc:
        outcome = str(exc)
    return recorder.log, outcome


SOLVER_REFERENCES = [
    (family_aware_minimize, _reference_family_aware),
    (singleton_parallel_minimize, _reference_singleton_parallel),
]


class TestMaskSolversMatchListReference:
    """The bit-mask solvers ask the same query sets, in the same order and
    rounds, and return the same result as the list-based reference."""

    @pytest.mark.parametrize("solve,reference", SOLVER_REFERENCES)
    @pytest.mark.parametrize(
        "n,r", [(2, 1), (11, 1), (16, 2), (12, 3), (23, 2), (64, 8), (256, 1)]
    )
    def test_honest_instances(self, solve, reference, n, r):
        cfg = GroundConfig(n, r)
        for seed in range(3):
            inst = sample_instance(cfg, seed)
            log, result = _run_recorded(solve, HonestOracle(inst), cfg)
            want_log, want = _run_recorded(reference, HonestOracle(inst), cfg)
            assert log == want_log
            assert result == want
            assert result.minimizer == true_minimizer(inst)

    @pytest.mark.parametrize("solve,reference", SOLVER_REFERENCES)
    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_halving_adversary_transcripts(self, solve, reference, n):
        cfg = GroundConfig(n, 1)
        adversary, ref_adversary = HalvingAdversary(cfg), HalvingAdversary(cfg)
        log, result = _run_recorded(solve, adversary, cfg)
        want_log, want = _run_recorded(reference, ref_adversary, cfg)
        assert log == want_log
        assert result == want
        assert adversary.transcript.to_json() == ref_adversary.transcript.to_json()
        assert adversary.finalize().to_json() == ref_adversary.finalize().to_json()


def _mask(indices):
    return sum(1 << i for i in indices)


def _split_mask(w):
    """Split a block mask at its median set bit: the ``popcount // 2``
    lowest elements, then the rest (the halves of the ascending index list).
    The bisection over bit positions that the solver used before it split
    runs of its pool list, kept as the reference.
    """
    half = w.bit_count() // 2
    lo, hi = 0, w.bit_length()
    while lo < hi:  # least p with ``half`` set bits below position p
        mid = (lo + hi) // 2
        if (w & ((1 << mid) - 1)).bit_count() < half:
            lo = mid + 1
        else:
            hi = mid
    low = w & ((1 << lo) - 1)
    return low, w ^ low


@given(
    st.one_of(
        st.integers(min_value=0, max_value=(1 << 1024) - 1),
        st.sets(st.integers(min_value=0, max_value=1023), max_size=40).map(_mask),
    )
)
def test_median_split_matches_list_halves(w):
    indices = [i for i in range(w.bit_length()) if w >> i & 1]
    mid = len(indices) // 2
    assert _split_mask(w) == (_mask(indices[:mid]), _mask(indices[mid:]))


class _Rewrite(HonestOracle):
    """Honest answers, except for the query masks listed in ``values``."""

    answer_batch = _Oracle.answer_batch

    def __init__(self, inst, values):
        super().__init__(inst)
        self.values = values

    def answer(self, s):
        value = super().answer(s)
        return self.values.get(s.bits, value)


class TestFamilyAwareErrorExits:
    # n = 2, block {0, 1}, hidden {1}: the honest run asks {0, 1} (superset,
    # split), {0} (incomparable: the off-pattern element), then removes {1}
    # from T = {1}, asking {} (strict subset: 1 is hidden), and finally {1}.
    @pytest.fixture
    def inst(self):
        return LayeredInstance(GroundConfig(2, 1), [subset(2, 0, 1)], [subset(2, 1)])

    def test_honest_query_sequence(self, inst):
        log, result = _run_recorded(family_aware_minimize, HonestOracle(inst), inst.config)
        assert [q for batch in log if batch != "round" for q in batch] == [
            (2, 0b11), (2, 0b01), (2, 0), (2, 0b10)]
        assert result.minimizer == subset(2, 1)

    @pytest.mark.parametrize(
        "values,message",
        [
            # {0, 1} answered as an exact match: the whole pool is accepted.
            ({0b11: Fraction(0)}, "layer 1: found 0 off-pattern block elements, expected 1"),
            ({0: Fraction(2)}, "layer 1: removal query decoded as Relation.INCOMPARABLE"),
            # Removing {1} answered as an exact match: 1 looks clean.
            ({0: Fraction(0)}, "layer 1: found 0 hidden elements, expected 1"),
        ],
    )
    def test_corrupted_answers_raise(self, inst, values, message):
        with pytest.raises(CorruptedOracleError) as exc:
            family_aware_minimize(_Rewrite(inst, values), inst.config)
        assert str(exc.value) == message

    @pytest.mark.parametrize("bad", [0.5, 1.0, None, "1/2", True])
    def test_an_answer_of_another_type_raises(self, inst, bad):
        # The sequential batch default takes int (not bool) and Fraction
        # answers only, and names the type of any other.
        message = f"answer {bad!r} to query mask 0x3 is a {type(bad).__name__}, not an int or Fraction"
        with pytest.raises(CorruptedOracleError, match=f"^{re.escape(message)}$"):
            family_aware_minimize(_Rewrite(inst, {0b11: bad}), inst.config)

    def test_int_answers_are_values(self, inst):
        # {0, 1} and the minimizer {1} answered as the ints of their honest values.
        honest = family_aware_minimize(HonestOracle(inst), inst.config)
        assert family_aware_minimize(_Rewrite(inst, {0b11: 1, 0b10: 0}), inst.config) == honest

    def test_nonzero_final_answer_raises(self):
        # The last query is the recovered minimizer, which matches every layer.
        cfg = GroundConfig(16, 2)
        inst = sample_instance(cfg, 0)
        last = family_aware_minimize(HonestOracle(inst), cfg).queries

        class LastAnswerOff(HonestOracle):
            answer_batch = _Oracle.answer_batch

            def answer(self, s):
                value = super().answer(s)
                return Fraction(1, cfg.value_denominator) if self.queries == last else value

        with pytest.raises(CorruptedOracleError, match="^minimizer query answered "):
            family_aware_minimize(LastAnswerOff(inst), cfg)

    def test_query_budget_is_enforced_at_its_edge(self, monkeypatch):
        cfg = GroundConfig(64, 1)
        inst = sample_instance(cfg, 0)
        queries = family_aware_minimize(HonestOracle(inst), cfg).queries
        monkeypatch.setattr(solvers, "query_cap", lambda n: queries)
        assert family_aware_minimize(HonestOracle(inst), cfg).queries == queries
        monkeypatch.setattr(solvers, "query_cap", lambda n: queries - 1)
        with pytest.raises(RuntimeError, match=f"^query budget exceeded: {queries} > "):
            family_aware_minimize(HonestOracle(inst), cfg)

    def test_budget_error_names_the_enforced_cap(self, monkeypatch):
        # At n = 5 the float budget 8 * 5 * log2(5) = 92.88 prints as 93, one
        # above the cap of 92 that is enforced.  No n = 5 solve comes near
        # it, so a 64-element solve is held to n = 5's cap and breaks it.
        cap = solvers.query_cap(5)
        assert (cap, f"{solvers.query_budget(5):.0f}") == (92, "93")
        cfg = GroundConfig(64, 1)
        monkeypatch.setattr(solvers, "query_cap", lambda n: cap)
        with pytest.raises(RuntimeError, match=r"^query budget exceeded: 93 > 92 at n=64, r=1$"):
            family_aware_minimize(HonestOracle(sample_instance(cfg, 0)), cfg)


class TestNoIndexListPath:
    """The solvers' group testing never builds or reads index lists."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        from_indices, indices = Subset.from_indices.__func__, Subset.indices

        def counting_from_indices(cls, size, idx):
            calls["from_indices"] += 1
            return from_indices(cls, size, idx)

        def counting_indices(self):
            calls["indices"] += 1
            return indices(self)

        monkeypatch.setattr(Subset, "from_indices", classmethod(counting_from_indices))
        monkeypatch.setattr(Subset, "indices", counting_indices)
        return calls

    def test_family_aware(self, calls):
        cfg = GroundConfig(256, 1)
        inst = sample_instance(cfg, 0)
        calls.clear()
        res = family_aware_minimize(HonestOracle(inst), cfg)
        assert res.minimizer == true_minimizer(inst)
        assert calls == Counter()

    def test_singleton_parallel_lists_each_pool_once(self, calls):
        cfg = GroundConfig(256, 1)
        inst = sample_instance(cfg, 0)
        calls.clear()
        res = singleton_parallel_minimize(HonestOracle(inst), cfg)
        assert res.minimizer == true_minimizer(inst)
        assert calls["from_indices"] == 0
        assert calls["indices"] <= cfg.layer_count


def _reference_classify_singleton(value, denom, pool_size, r):
    """The singleton classifier the solver had before it read classes off
    :func:`decode_layer_answer`, kept as the reference: 2 is "off_block";
    1 (r >= 2), or at r = 1 a residual in [0, 1/(4 * pool)], is "hidden";
    1 + 1/(2 * pool) is "deeper"; anything else is None."""
    num, den = value.numerator * denom, value.denominator
    if num == 2 * den:
        return "off_block"
    if (num == den) if r >= 2 else (0 <= 4 * pool_size * num <= den):
        return "hidden"
    if 2 * pool_size * num == (2 * pool_size + 1) * den:
        return "deeper"
    return None


def _code_label(cfg, code, layer=1):
    """The solver's class for answer ``code`` at ``layer``, None where it raises."""
    try:
        return _singleton_class(code, cfg.code_radix, cfg.pool_size(layer), layer, cfg.r)
    except CorruptedOracleError:
        return None


def _solver_label(cfg, value, layer=1):
    """The solver's class for answer ``value`` at ``layer``, None where it
    raises: at the decoder, or before it, where no layer takes the value."""
    try:
        code = cfg.value_code(value)
    except ValueError:
        return None
    return _code_label(cfg, code, layer)


class TestSingletonClassification:
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("layer", [1, 2])
    def test_decoder_labels_match_reference_on_a_grid(self, r, layer):
        # Every int in [-1, (L + 1) * M] as the answer at a layer with pool 2r,
        # 4r or 8r: the reference's label of the value it spells, None where
        # it spells none.
        for pool in (2 * r, 4 * r, 8 * r):
            cfg = GroundConfig(pool + 2 * r * (layer - 1), r)
            assert cfg.pool_size(layer) == pool
            denom = scale_denominators(cfg)[layer - 1]
            labels = Counter()
            for code in range(-1, (cfg.layer_count + 1) * cfg.code_radix + 1):
                try:
                    want = _reference_classify_singleton(cfg.code_value(code), denom, pool, r)
                except ValueError:
                    want = None
                assert _code_label(cfg, code, layer) == want, (code, pool)
                labels[want] += 1
            assert set(labels) == {"off_block", "hidden", "deeper", None}


class _BatchOnly:
    """An honest oracle without ``answer``: only ``config``, ``begin_round``
    and ``answer_batch``, logging each batch as (round, size)."""

    def __init__(self, inst):
        self._oracle = HonestOracle(inst)
        self.config = inst.config
        self.rounds = 0
        self.log = []

    def begin_round(self):
        self.rounds += 1
        self._oracle.begin_round()

    def answer_batch(self, masks):
        self.log.append((self.rounds, len(masks)))
        return self._oracle.answer_batch(masks)


class TestOneRoundOneBatch:
    @pytest.mark.parametrize("n,r", [(16, 1), (16, 2), (12, 3)])
    def test_solvers_need_only_the_batch_surface(self, n, r):
        cfg = GroundConfig(n, r)
        for seed in range(3):
            inst = sample_instance(cfg, seed)
            for name, solve in sorted(SOLVERS.items()):
                oracle = _BatchOnly(inst)
                result = solve(oracle, cfg)
                assert result == solve(HonestOracle(inst), cfg)
                if name == "singleton_parallel":
                    want = [(k, cfg.pool_size(k)) for k in range(1, cfg.layer_count + 1)]
                elif name == "family_aware":
                    want = [(i, 1) for i in range(1, result.queries + 1)]
                else:
                    chunks = -(-(1 << n) // solvers.BRUTE_FORCE_CHUNK)
                    assert len(oracle.log) == chunks and sum(size for _, size in oracle.log) == 1 << n
                    want = [(1, size) for _, size in oracle.log]
                assert oracle.log == want, name

    def test_a_singleton_round_prices_by_class(self, monkeypatch):
        # Every far member of a round shares one price, so a round makes at
        # most 2r + 2 layer pricings (A_k's members, one far member and the
        # base), not one per pool element.
        cfg = GroundConfig(256, 2)
        inst = sample_instance(cfg, 3)
        calls = []
        price = family._layer_price

        def counted(row, s_bits):
            calls[-1] += 1
            return price(row, s_bits)

        class Rounds(HonestOracle):
            def begin_round(self):
                calls.append(0)
                super().begin_round()

        monkeypatch.setattr(family, "_layer_price", counted)
        result = singleton_parallel_minimize(Rounds(inst), cfg)
        assert result.minimizer == true_minimizer(inst)
        assert len(calls) == cfg.layer_count
        assert 0 < max(calls) <= 2 * cfg.r + 2


class _OffLatticeAt(HonestOracle):
    """Honest answers through the sequential batch default, except that
    query ``index`` (1-based) is moved off the lattice by ``1/(7 D)``."""

    answer_batch = _Oracle.answer_batch

    def __init__(self, inst, index):
        super().__init__(inst)
        self.index = index

    def answer(self, s):
        value = super().answer(s)
        if self.queries == self.index:
            value += Fraction(1, 7 * self.config.value_denominator)
        return value


class TestOffLatticeSweep:
    @pytest.mark.parametrize("name", ["family_aware", "singleton_parallel"])
    @pytest.mark.parametrize("r", [1, 2])
    def test_every_faulted_query_is_caught(self, name, r):
        cfg = GroundConfig(16, r)
        solve = SOLVERS[name]
        runs = 0
        for seed in range(5):
            inst = sample_instance(cfg, seed)
            queries = solve(HonestOracle(inst), cfg).queries
            for index in range(1, queries + 1):
                with pytest.raises(CorruptedOracleError):
                    solve(_OffLatticeAt(inst, index), cfg)
                runs += 1
        assert runs >= 5 * cfg.n


class _Misfit(HonestOracle):
    """Honest codes, except that the batch asking mask ``at`` holds its code
    ``copies`` times: 0 drops it, 2 repeats it."""

    def __init__(self, inst, at, copies):
        super().__init__(inst)
        self.at, self.copies = at, copies

    def answer_batch(self, masks):
        codes = super().answer_batch(masks)
        for i, m in enumerate(masks):
            if m == self.at:
                codes[i : i + 1] = codes[i : i + 1] * self.copies
                break
        return codes


class TestBatchLength:
    """Every solver refuses an answer list longer or shorter than its batch."""

    def test_brute_force_refuses_a_batch_without_the_minimizer(self):
        # Read as it comes, this batch gives the minimizer {0, 5, 7} at
        # 1/98304; the instance's is {0, 5, 6, 7}.
        cfg = GroundConfig(8, 1)
        inst = sample_instance(cfg, 3)
        assert true_minimizer(inst) == subset(8, 0, 5, 6, 7)
        with pytest.raises(CorruptedOracleError, match="^a batch of 256 masks was answered with 255 codes$"):
            brute_force_minimize(_Misfit(inst, true_minimizer(inst).bits, 0))

    # Masks each solver asks: brute force the last of its last batch,
    # family-aware the whole pool first, singleton-parallel the top pool
    # element's singleton in round 1.  n = 13 is two brute-force batches.
    @pytest.mark.parametrize("copies", [0, 2])
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    @pytest.mark.parametrize("n,r", [(8, 1), (13, 2)])
    def test_every_solver_refuses_a_batch_of_the_wrong_length(self, n, r, name, copies):
        cfg = GroundConfig(n, r)
        inst = sample_instance(cfg, 3)
        at = {"brute_force": (1 << n) - 1, "family_aware": (1 << cfg.effective_size) - 1,
              "singleton_parallel": 1 << (cfg.effective_size - 1)}[name]
        with pytest.raises(CorruptedOracleError, match=r"^a batch of \d+ masks? was answered with \d+ codes$"):
            SOLVERS[name](_Misfit(inst, at, copies), cfg)


def _bisecting_family_aware(oracle, config):
    """The mask solver that split each block by :func:`_split_mask`,
    kept as the reference for the run-splitting one."""
    n, r = config.n, config.r
    budget = solvers.query_budget(n)
    queries = 0

    def ask(mask):
        nonlocal queries
        oracle.begin_round()
        [code] = oracle.answer_batch([mask])
        queries += 1
        if queries > budget:
            raise RuntimeError(f"query budget exceeded: {queries} > {budget:.0f} at n={n}, r={r}")
        return code

    prefix = 0
    pool = (1 << config.effective_size) - 1

    for layer in range(1, config.layer_count + 1):
        pool_size = pool.bit_count()

        def decode(code, queried_in_pool):
            return decode_layer_answer(code, config.code_radix, pool_size, queried_in_pool, r)

        accepted = 0
        bad = 0
        blocks = [pool]
        while blocks and bad < r:
            w = blocks.pop()
            ans = decode(ask(prefix | accepted | w), accepted.bit_count() + w.bit_count())
            if ans.relation in (Relation.EQUAL, Relation.STRICT_SUBSET):
                accepted |= w
            elif w & (w - 1) == 0:
                bad += 1
            else:
                first, second = _split_mask(w)
                blocks.append(second)
                blocks.append(first)
        if bad != r:
            raise CorruptedOracleError(
                f"layer {layer}: found {bad} off-pattern block elements, expected {r}"
            )
        while blocks:
            accepted |= blocks.pop()

        hidden = 0
        blocks = [accepted]
        while blocks and hidden.bit_count() < r:
            w = blocks.pop()
            ans = decode(ask(prefix | (accepted & ~w)), accepted.bit_count() - w.bit_count())
            if ans.relation is Relation.EQUAL:
                pass
            elif ans.relation is Relation.STRICT_SUBSET:
                if w & (w - 1) == 0:
                    hidden |= w
                else:
                    first, second = _split_mask(w)
                    blocks.append(second)
                    blocks.append(first)
            else:
                raise CorruptedOracleError(
                    f"layer {layer}: removal query decoded as {ans.relation}"
                )
        if hidden.bit_count() != r:
            raise CorruptedOracleError(
                f"layer {layer}: found {hidden.bit_count()} hidden elements, expected {r}"
            )

        prefix |= hidden
        pool = accepted & ~hidden

    code = ask(prefix)
    if code != 0:
        raise CorruptedOracleError(f"minimizer query answered code {code}, expected 0")
    return SolverResult("family_aware", Subset(n, prefix), Fraction(0), queries, queries)


class _AnsweredAt(HonestOracle):
    """Honest answers through the sequential batch default, except that
    query ``index`` (1-based) is answered ``value``."""

    answer_batch = _Oracle.answer_batch

    def __init__(self, inst, index, value):
        super().__init__(inst)
        self.index, self.value = index, value

    def answer(self, s):
        value = super().answer(s)
        return self.value if self.queries == self.index else value


def _same_run(oracles):
    """Run the solver and the bisecting reference on a fresh oracle each;
    both must log the same rounds and masks and end the same way."""
    cfg = oracles[0].config
    log, result = _run_recorded(family_aware_minimize, oracles[0], cfg)
    want_log, want = _run_recorded(_bisecting_family_aware, oracles[1], cfg)
    assert log == want_log
    assert result == want
    return result


class TestRunSplitMatchesMaskBisection:
    """Splitting runs of the pool list asks the same masks, in the same
    order, as bisecting masks at their median set bit, with the same
    result or the same error."""

    @pytest.mark.parametrize(
        "n,r", [(n, r) for n in (2, 5, 16, 17, 64, 1024) for r in (1, 2, 3) if 2 * r <= n]
    )
    def test_honest_instances(self, n, r):
        cfg = GroundConfig(n, r)
        for seed in range(1 if n > 64 else 3):
            inst = sample_instance(cfg, seed)
            result = _same_run([HonestOracle(inst), HonestOracle(inst)])
            assert result.minimizer == true_minimizer(inst)

    @pytest.mark.parametrize("n", [4, 16, 64, 512])
    def test_halving_adversary(self, n):
        cfg = GroundConfig(n, 1)
        adversary, ref_adversary = HalvingAdversary(cfg), HalvingAdversary(cfg)
        _same_run([adversary, ref_adversary])
        assert adversary.transcript.to_json() == ref_adversary.transcript.to_json()
        assert adversary.finalize().to_json() == ref_adversary.finalize().to_json()

    @pytest.mark.parametrize("n,r", [(16, 1), (16, 2), (17, 3)])
    def test_each_answer_faulted(self, n, r):
        # Every query in turn answered 0 (an exact match at any layer), 2
        # (incomparable at layer 1, out of range deeper) or off the lattice.
        cfg = GroundConfig(n, r)
        inst = sample_instance(cfg, 0)
        queries = family_aware_minimize(HonestOracle(inst), cfg).queries
        errors = set()
        for index in range(1, queries + 1):
            for make in (
                lambda: _AnsweredAt(inst, index, Fraction(0)),
                lambda: _AnsweredAt(inst, index, Fraction(2)),
                lambda: _OffLatticeAt(inst, index),
            ):
                result = _same_run([make(), make()])
                if isinstance(result, str):  # "[layer k: ]<first word> ..."
                    errors.add(result.split(": ", 1)[-1].split()[0])
        assert {"found", "removal", "code", "answer", "minimizer"} <= errors


class _FreshInt(int):
    """An int answer that is a new object, small or not."""


class _FreshInts(HonestOracle):
    """Honest answers, each re-created as an equal but distinct int object;
    ``batches`` keeps every list answered."""

    def __init__(self, inst):
        super().__init__(inst)
        self.batches = []

    def answer_batch(self, masks):
        self.batches.append([_FreshInt(v) for v in super().answer_batch(masks)])
        return self.batches[-1]


class _FarAnswerAsOffBlock(HonestOracle):
    """Honest answers, except that in round 1 one far answer in the middle
    of a run of far answers is replaced by that round's off-block answer."""

    def answer_batch(self, masks):
        nums = list(super().answer_batch(masks))
        if self.rounds == 1:  # the pool is the whole ground set: positions are elements
            block, hidden = self.instance.blocks[0].bits, self.instance.hidden_sets[0].bits
            off = (block & ~hidden).bit_length() - 1
            middle = next(i for i in range(1, len(nums) - 1) if not block >> (i - 1) & 0b111)
            assert nums[middle - 1] == nums[middle] == nums[middle + 1] != nums[off]
            nums[middle] = nums[off]
        return nums


class _HashCounted(int):
    """An answer that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        _HashCounted.hashes += 1
        return int.__hash__(self)


class TestSingletonRunWalk:
    """A singleton round is classified by runs of equal answers."""

    @pytest.mark.parametrize("n,r", [(11, 1), (23, 2), (64, 8), (256, 1)])
    def test_equal_answers_need_not_be_one_object(self, n, r):
        cfg = GroundConfig(n, r)
        for seed in range(3):
            inst = sample_instance(cfg, seed)
            oracle = _FreshInts(inst)
            fresh = singleton_parallel_minimize(oracle, cfg)
            assert fresh == singleton_parallel_minimize(HonestOracle(inst), cfg)
            assert fresh.minimizer == true_minimizer(inst)
            # No two answers are one object, small codes included.
            answers = [v for codes in oracle.batches for v in codes]
            assert len({id(v) for v in answers}) == len(answers) > cfg.n

    @pytest.mark.parametrize("n,r", [(64, 1), (64, 2), (64, 4), (23, 2)])
    def test_an_off_block_answer_inside_a_far_run_is_counted(self, n, r):
        cfg = GroundConfig(n, r)
        inst = sample_instance(cfg, 5)
        message = f"layer 1: classified {r} hidden / {r + 1} off-block, expected {r} each"
        with pytest.raises(CorruptedOracleError, match=f"^{re.escape(message)}$"):
            singleton_parallel_minimize(_FarAnswerAsOffBlock(inst), cfg)

    @pytest.mark.parametrize("n,r", [(64, 2), (256, 1), (256, 2)])
    def test_each_distinct_answer_is_decoded_once(self, monkeypatch, n, r):
        cfg = GroundConfig(n, r)
        inst = sample_instance(cfg, 3)
        decoded, distinct, runs = [], [], []
        decode = solvers.decode_layer_answer

        def counted(*args):
            decoded[-1] += 1
            return decode(*args)

        class Rounds(HonestOracle):
            def answer_batch(self, masks):
                nums = super().answer_batch(masks)
                decoded.append(0)
                distinct.append(len(set(nums)))
                runs.append(sum(1 for _ in itertools.groupby(nums)))
                return nums

        monkeypatch.setattr(solvers, "decode_layer_answer", counted)
        result = singleton_parallel_minimize(Rounds(inst), cfg)
        assert result.minimizer == true_minimizer(inst)
        assert decoded == distinct and max(distinct) <= 3
        # Some round repeats an answer in runs that are not adjacent.
        assert any(k > d for k, d in zip(runs, distinct))

    @pytest.mark.parametrize("n,r", [(64, 2), (256, 1), (256, 2)])
    def test_a_round_hashes_at_most_two_answers_per_run(self, n, r):
        cfg = GroundConfig(n, r)
        inst = sample_instance(cfg, 3)
        runs, marks = [], []

        class Counted(HonestOracle):
            def answer_batch(self, masks):
                nums = super().answer_batch(masks)
                runs.append(sum(1 for _ in itertools.groupby(nums)))
                marks.append(_HashCounted.hashes)
                return [_HashCounted(v) for v in nums]

        result = singleton_parallel_minimize(Counted(inst), cfg)
        assert result.minimizer == true_minimizer(inst)
        hashes = [b - a for a, b in zip(marks, marks[1:] + [_HashCounted.hashes])]
        assert len(hashes) == cfg.layer_count
        assert all(h <= 2 * k for h, k in zip(hashes, runs)), list(zip(hashes, runs))
        # Hashing every answer would break the bound in the first round.
        assert cfg.pool_size(1) > 2 * runs[0]
