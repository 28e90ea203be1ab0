import sys
import tracemalloc
from fractions import Fraction

import pytest

from layeredsfm import verify
from layeredsfm.family import (
    containment_score,
    evaluate_closed_form,
    sample_instance,
    submodularizer,
    true_minimizer,
)
from layeredsfm.rng import SplitMix64
from layeredsfm.sets import GroundConfig, Subset
from layeredsfm.verify import (
    _diamonds_hold,
    _tabulate,
    check_block_properties,
    check_function_properties,
    check_instance_properties,
    check_marginal_submodular,
    check_submodular_pairs,
    find_submodularizer_violation,
)


def subset(n, *indices):
    return Subset.from_indices(n, indices)


def lifted_score(n, block, hidden):
    return lambda s: containment_score(block, hidden, s & block)


def standalone_submodularizer(n, block, hidden):
    universe = Subset.full(n)
    return lambda s: submodularizer(universe, block, hidden, s)


class TestPairCheck:
    def test_containment_score_is_submodular(self):
        fn = lifted_score(2, subset(2, 0, 1), subset(2, 0))
        assert check_submodular_pairs(fn, 2) is None

    def test_family_instances_are_submodular(self):
        cfg = GroundConfig(6, 1)
        for seed in range(5):
            inst = sample_instance(cfg, seed)
            assert check_instance_properties(inst).submodular_ok

    def test_standalone_submodularizer_is_not(self):
        fn = standalone_submodularizer(6, subset(6, 0, 1, 2, 3), subset(6, 0, 1))
        witness = check_submodular_pairs(fn, 6)
        assert witness is not None
        assert witness.element is None
        assert witness.reverify(fn)

    def test_sampled_mode_beyond_exhaustive_cap(self):
        fn = lifted_score(14, subset(14, 0, 1), subset(14, 0))
        assert check_submodular_pairs(fn, 14, samples=2000, seed=3) is None

    def test_sampled_mode_takes_an_instance(self):
        # Beyond the cap an instance's pairs are priced from its layer table.
        inst = sample_instance(GroundConfig(14, 1), 5)
        assert check_submodular_pairs(inst, 14, samples=2000, seed=3) is None
        with pytest.raises(ValueError):
            check_submodular_pairs(inst, 15, samples=10)

    def test_sampled_mode_catches_a_corrupted_evaluator(self):
        inst = sample_instance(GroundConfig(14, 1), 5)
        honest = lambda s: evaluate_closed_form(inst, s)
        assert check_submodular_pairs(honest, 14, samples=2000, seed=3) is None
        # +3 on every set of 9 or more elements: a sampled pair's union
        # often reaches that size where neither set of the pair does.
        fn = lambda s: honest(s) + (3 if len(s) >= 9 else 0)
        witness = check_submodular_pairs(fn, 14, samples=2000, seed=3)
        assert witness is not None
        assert witness.reverify(fn)

    def test_a_diamond_verdict_without_a_failing_pair_raises(self, monkeypatch):
        fn = lifted_score(4, subset(4, 0, 1), subset(4, 0))
        assert check_submodular_pairs(fn, 4) is None
        monkeypatch.setattr(verify, "_diamonds_hold", lambda ints, n, lo, hi: False)
        with pytest.raises(RuntimeError, match="diamond and pair scans disagree"):
            check_submodular_pairs(fn, 4)

    def test_witness_is_canonical_first(self):
        fn = standalone_submodularizer(6, subset(6, 0, 1, 2, 3), subset(6, 0, 1))
        w1 = check_submodular_pairs(fn, 6)
        w2 = check_submodular_pairs(fn, 6)
        assert (w1.x, w1.y) == (w2.x, w2.y)


def _reference_first_pair(ints, n):
    # The full pairwise scan over x <= y in increasing encoding.
    size = 1 << n
    for x in range(size):
        for y in range(x, size):
            if ints[x] + ints[y] < ints[x | y] + ints[x & y]:
                return x, y
    return None


def _instance_tables():
    # 2r does not divide n in (5, 1), (6, 2), (7, 1) and (8, 3): dummies.
    for n, r in [(4, 1), (5, 1), (6, 1), (6, 2), (7, 1), (8, 2), (8, 3)]:
        for seed in range(2):
            inst = sample_instance(GroundConfig(n, r), seed)
            yield n, _tabulate(lambda s: evaluate_closed_form(inst, s), n)[0]


def _shifted_tables():
    # One entry off by +-1 in the common-denominator integers breaks only
    # the tight diamonds through that entry.  The empty and the full set
    # are always shifted: at the full set every diamond has its top there.
    rng = SplitMix64(5)
    for n, ints in _instance_tables():
        size = 1 << n
        for at in {0, size - 1, *(rng.below(size) for _ in range(6))}:
            for delta in (1, -1):
                shifted = list(ints)
                shifted[at] += delta
                yield n, shifted


def _random_tables():
    rng = SplitMix64(31)
    for n in range(1, 7):
        for _ in range(40):
            yield n, [rng.below(3) for _ in range(1 << n)]


class TestDiamondScan:
    @pytest.mark.parametrize("tables", [_instance_tables, _shifted_tables, _random_tables],
                             ids=["instances", "shifted", "random"])
    def test_matches_pairwise_reference(self, tables):
        verdicts = set()
        for n, ints in tables():
            first = _reference_first_pair(ints, n)
            assert _diamonds_hold(ints, n, min(ints), max(ints)) == (first is None)
            witness = check_submodular_pairs(lambda s: Fraction(ints[s.bits]), n)
            if first is None:
                assert witness is None
            else:
                assert (witness.x.bits, witness.y.bits) == first
                assert witness.reverify(lambda s: Fraction(ints[s.bits]))
            verdicts.add(first is None)
        if tables is _instance_tables:
            assert verdicts == {True}
        else:
            assert verdicts == {True, False}


def _triple_loop_diamonds(ints, n):
    # The diamond scan as a loop over S, i and j, the reference for the packed-lane scan.
    singletons = [1 << e for e in range(n)]
    for s, v in enumerate(ints):
        ups = [s | b for b in singletons if not s & b]  # S+i for every i outside S
        for a, si in enumerate(ups):
            gain = ints[si] - v
            for sj in ups[a + 1 :]:
                if gain + ints[sj] < ints[si | sj]:
                    return False
    return True


class TestSliceDiamonds:
    """The diamond scan gives the triple loop's verdict on kernel tables up
    to n = 12 and on the same tables with one entry moved by 1, D/7 or D."""

    @pytest.mark.parametrize("n,r", [(3, 1), (9, 1), (12, 1), (10, 2), (12, 2), (11, 3), (12, 3)])
    def test_matches_the_triple_loop(self, n, r):
        rng = SplitMix64(3 * n + r)
        ints, den = _tabulate(sample_instance(GroundConfig(n, r), rng.next()), n)
        assert _diamonds_hold(ints, n, min(ints), max(ints)) and _triple_loop_diamonds(ints, n)
        verdicts = set()
        for delta in (1, -1, den // 7 + 1, -den):
            at = rng.below(1 << n)
            moved = list(ints)
            moved[at] += delta
            verdict = _diamonds_hold(moved, n, min(moved), max(moved))
            assert verdict == _triple_loop_diamonds(moved, n)
            verdicts.add(verdict)
        assert False in verdicts


def _lane_edge_tables(n, spread):
    # Two submodular tables with values exactly {0, spread}, less an offset
    # that makes them negative: s * [0 in S] (every diamond tight) and
    # s * [|S & {0, 1}| == 1] (the diamond at S, 0, 1 has slack 2s, where
    # G_0 runs from +s to -s), then each with +1 at the empty set and -1 at
    # {0}.  Neither move changes the spread, and each breaks the tight
    # diamond at the empty set, 0, 1 (modular) or 0, 2 (cut, n >= 3).
    offset = spread // 2 + 1
    for base in (lambda s: s & 1, lambda s: (s ^ (s >> 1)) & 1):
        ints = [spread * base(s) - offset for s in range(1 << n)]
        yield ints
        for at, delta in ((0, 1), (1, -1)):
            moved = list(ints)
            moved[at] += delta
            yield moved


class TestPackedLanes:
    """The packed-lane scan against the triple loop where its lane arithmetic
    is tightest: tiny ground sets, flat and negative tables, and spreads on
    each side of every lane-byte boundary."""

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_ground_sets(self, n):
        rng = SplitMix64(n)
        tables = [[rng.below(7) - 3 for _ in range(1 << n)] for _ in range(60)]
        tables += [[v] * (1 << n) for v in (0, -5, 1 << 70)]
        verdicts = set()
        for ints in tables:
            verdict = _diamonds_hold(ints, n, min(ints), max(ints))
            assert verdict == _triple_loop_diamonds(ints, n)
            verdicts.add(verdict)
        assert verdicts == ({True, False} if n == 2 else {True})

    @pytest.mark.parametrize("n", [3, 6])
    def test_flat_and_negative_tables(self, n):
        for v in (0, -7, -(1 << 90), 1 << 90):
            assert _diamonds_hold([v] * (1 << n), n, v, v)
        rng = SplitMix64(40 + n)
        verdicts = set()
        for _ in range(40):
            ints = [-rng.below(5) for _ in range(1 << n)]
            verdict = _diamonds_hold(ints, n, min(ints), max(ints))
            assert verdict == _triple_loop_diamonds(ints, n)
            verdicts.add(verdict)
        assert False in verdicts

    # nb = ceil((bits + 2) / 8) bytes per lane: 2^(8k-2) - 1 fills k bytes,
    # 2^(8k-2) takes k + 1; 2^(8k-3) sits one bit lower.  k = 9 gives lanes
    # of 72 and 80 bits.
    @pytest.mark.parametrize("k", range(1, 10))
    @pytest.mark.parametrize("n", [3, 4])
    def test_spreads_at_each_lane_byte_boundary(self, n, k):
        for spread in (2 ** (8 * k - 3) - 1, 2 ** (8 * k - 3), 2 ** (8 * k - 2) - 1, 2 ** (8 * k - 2)):
            verdicts = []
            for ints in _lane_edge_tables(n, spread):
                assert max(ints) - min(ints) == spread and min(ints) < 0
                verdict = _diamonds_hold(ints, n, min(ints), max(ints))
                assert verdict == _triple_loop_diamonds(ints, n)
                verdicts.append(verdict)
            assert verdicts == [True, False, False] * 2


class TestRawPacking:
    """A table whose minimum is 0, as every instance table's is, is packed
    as it is; any other table, a large minimum with a small spread among
    them, is shifted by its minimum entry by entry first, so its lanes are
    sized by the spread alone.  Either way the verdict is the triple
    loop's."""

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("lo", [0, 1, 5, (1 << 16) - 3, 1 << 90])
    def test_non_negative_tables(self, n, lo):
        for spread in (1, 63, 64, 1 << 14, (1 << 22) - 1):
            for ints in _lane_edge_tables(n, spread):
                shift = lo - min(ints)
                ints = [v + shift for v in ints]
                want = _triple_loop_diamonds(ints, n)
                assert _diamonds_hold(ints, n, min(ints), max(ints)) == want

    def test_instance_tables(self):
        # Instance tables are non-negative with minimum 0: the raw path.
        for n, r in [(8, 1), (10, 2), (12, 3)]:
            ints, _ = _tabulate(sample_instance(GroundConfig(n, r), n), n)
            assert min(ints) == 0
            assert _diamonds_hold(ints, n, 0, max(ints)) and _triple_loop_diamonds(ints, n)
            ints[3] += 1  # F({0, 1}) up by one: the diamond at S = {} fails
            assert not _diamonds_hold(ints, n, 0, max(ints)) and not _triple_loop_diamonds(ints, n)


class TestLaneMaskSlot:
    """The scan's masks are kept for the last (n, lane width) only."""

    def _slot_bytes(self):
        n, nb, masks = verify._lane_masks
        return (n, nb), sum(map(sys.getsizeof, masks))

    def test_one_width_is_held_and_a_new_one_replaces_it(self, monkeypatch):
        monkeypatch.setattr(verify, "_lane_masks", None)
        insts = [sample_instance(GroundConfig(n, r), 3) for n, r in [(12, 1), (12, 3), (11, 1)]]
        for inst in insts:
            _tabulate(inst, inst.config.n)  # lazily built config and table values are not the slot's
        tracemalloc.start()
        try:
            held = []
            for inst in insts:
                check_instance_properties(inst)
                key, slot = self._slot_bytes()
                n, nb = key
                # n masks of at most 2^n lanes of nb bytes, and little else.
                assert slot <= n * (1 << n) * nb
                assert tracemalloc.get_traced_memory()[0] < slot + 4096
                held.append((key, slot))
        finally:
            tracemalloc.stop()
        assert held[0][0] == (12, 5) and held[0][1] < 240 * 1024
        # (12, 3) has narrower lanes and (11, 1) a smaller n: each replaced the slot.
        assert [key for key, _ in held] == [(12, 5), (12, 2), (11, 4)]


class TestMarginalCheck:
    def test_agrees_on_submodular_function(self):
        fn = lifted_score(4, subset(4, 0, 1), subset(4, 0))
        assert check_marginal_submodular(fn, 4) is None

    def test_constant_zero(self):
        assert check_marginal_submodular(lambda s: Fraction(0), 4) is None

    def test_finds_the_pattern_violation(self):
        # Adding an outside-block element to (hidden + below) drops the value;
        # adding it once the block part is strictly larger does nothing.
        fn = standalone_submodularizer(6, subset(6, 0, 1, 2, 3), subset(6, 0, 1))
        witness = check_marginal_submodular(fn, 6)
        assert witness is not None
        assert witness.element is not None
        assert witness.lhs > witness.rhs
        assert witness.reverify(fn)

    def test_agrees_with_pair_check_on_random_functions(self):
        # 200 random {0,1,2}-valued functions: the two definitions must give
        # the same verdict.
        rng = SplitMix64(77)
        n = 6
        for _ in range(200):
            table = [Fraction(rng.below(3)) for _ in range(1 << n)]
            fn = lambda s, t=table: t[s.bits]
            pair = check_submodular_pairs(fn, n)
            marginal = check_marginal_submodular(fn, n)
            assert (pair is None) == (marginal is None)
            if pair is not None:
                assert pair.reverify(fn) and marginal.reverify(fn)

    def test_cap(self):
        with pytest.raises(ValueError):
            check_marginal_submodular(lambda s: Fraction(0), 13)


class TestPropertyReports:
    def test_instance_report(self):
        cfg = GroundConfig(8, 2)
        inst = sample_instance(cfg, 21)
        report = check_instance_properties(inst)
        assert report.all_ok
        assert report.minimizer.bits == (inst.hidden_sets[0] | inst.hidden_sets[1]).bits

    def test_exhaustive_checks_refuse_what_they_cannot_tabulate(self):
        score = lambda s: Fraction(0)
        with pytest.raises(ValueError, match="capped at n=12"):
            check_function_properties(score, 13, Subset(13))
        with pytest.raises(ValueError, match="capped at 12 elements"):
            check_block_properties(Subset.full(13), subset(13, 0, 1), subset(13, 0), Fraction(2), score)
        with pytest.raises(ValueError, match="expects universe == full ground set"):
            check_block_properties(subset(6, 0, 1, 2, 3), subset(6, 0, 1), subset(6, 0), Fraction(2), score)

    def test_block_report_matches_inner_minimizer(self):
        inner_block, inner_hidden = subset(4, 2, 3), subset(4, 2)
        inner = lambda s: containment_score(inner_block, inner_hidden, s & inner_block)
        report = check_block_properties(
            Subset.full(4), subset(4, 0, 1), subset(4, 0), Fraction(2), inner
        )
        assert report.all_ok
        assert report.minimizer == subset(4, 0, 2)

    def test_adversarially_finalized_instances_pass(self):
        from layeredsfm.oracles import HalvingAdversary

        rng = SplitMix64(4)
        adv = HalvingAdversary(GroundConfig(8, 1))
        ground = Subset.full(8)
        for _ in range(40):
            adv.answer(rng.subset_of(ground))
        inst = adv.finalize()
        assert check_instance_properties(inst).all_ok

    @pytest.mark.parametrize("n,r", [(6, 1), (8, 1), (8, 2), (10, 1)])
    def test_sampled_instance_sweep(self, n, r):
        # 100 seeds per configuration: range, unique minimizer, submodularity.
        cfg = GroundConfig(n, r)
        rng = SplitMix64(n * 31 + r)
        for seed in rng.spawn_seeds(100):
            assert check_instance_properties(sample_instance(cfg, seed)).all_ok

    def test_each_subset_evaluated_once(self):
        from collections import Counter

        from layeredsfm.family import evaluate_closed_form, true_minimizer

        inst = sample_instance(GroundConfig(8, 2), 5)
        calls = Counter()

        def counting(s):
            calls[s.bits] += 1
            return evaluate_closed_form(inst, s)

        assert check_function_properties(counting, 8, true_minimizer(inst)).all_ok
        assert len(calls) == 1 << 8
        assert set(calls.values()) == {1}

    def test_corrupted_evaluator_caught(self):
        cfg = GroundConfig(6, 1)
        inst = sample_instance(cfg, 2)
        from layeredsfm.family import evaluate_closed_form, true_minimizer

        best = true_minimizer(inst)

        def corrupted(s):
            value = evaluate_closed_form(inst, s)
            return Fraction(2) if s == best else value

        report = check_function_properties(corrupted, 6, best)
        assert not report.unique_min_ok
        assert not report.all_ok


class TestRangeAndArgminVerdicts:
    """Range, unique-minimum and minimizer verdicts against the per-value
    walk and argmin list they are read from."""

    # Values over n = 3, as multiples of 1/7: in range, on the edges, out of
    # range at either end, and with the minimum first, last or tied.
    @pytest.mark.parametrize("nums", [
        [9, 4, 3, 11, 14, 8, 2, 5],
        [0, 4, 3, 11, 14, 8, 2, 5],
        [9, 4, 3, 11, 14, 8, 2, 0],
        [9, 4, 2, 11, 14, 8, 2, 5],
        [9, 4, 3, 11, 15, 8, 2, 5],
        [9, -1, 3, 11, 14, 8, 2, 5],
        [-1, 4, 3, 15, 14, 8, -1, 5],
        [7, 7, 7, 7, 7, 7, 7, 7],
    ])
    @pytest.mark.parametrize("predicted", [0, 6, 7])
    def test_verdicts_match_the_value_walk(self, nums, predicted):
        fn = lambda s: Fraction(nums[s.bits], 7)
        report = check_function_properties(fn, 3, Subset(3, predicted))
        argmin = [bits for bits, v in enumerate(nums) if v == min(nums)]
        assert report.range_ok == all(0 <= v <= 14 for v in nums)
        assert report.unique_min_ok == (argmin == [predicted])
        assert report.minimizer == Subset(3, argmin[0])


class TestKernelTables:
    """An instance is tabulated from its layer table over D; the closed form,
    as an arbitrary evaluator, is tabulated through ``Fraction``s."""

    # (7, 1) and (10, 2) have dummies, so their minimizer is not unique.
    @pytest.mark.parametrize("n,r", [(4, 1), (7, 1), (8, 1), (12, 1), (4, 2), (8, 2), (10, 2), (12, 2)])
    def test_kernel_table_gives_the_fraction_table_report(self, n, r):
        rng = SplitMix64(17 * n + r)
        for seed in rng.spawn_seeds(3):
            inst = sample_instance(GroundConfig(n, r), seed)
            closed_form = lambda s: evaluate_closed_form(inst, s)
            ints, den = _tabulate(inst, n)
            ref_ints, ref_den = _tabulate(closed_form, n)
            assert [Fraction(v, den) for v in ints] == [Fraction(v, ref_den) for v in ref_ints]
            report = check_instance_properties(inst)
            assert report == check_function_properties(closed_form, n, true_minimizer(inst))
            assert report.all_ok == (n % (2 * r) == 0)
            # A wrong predicted minimizer fails the same way on both tables.
            wrong = check_function_properties(inst, n, Subset(n))
            assert wrong == check_function_properties(closed_form, n, Subset(n))
            assert not wrong.unique_min_ok

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_instance_of_another_size_raises(self, n):
        inst = sample_instance(GroundConfig(8, 1), 1)
        with pytest.raises(ValueError, match="8 elements"):
            _tabulate(inst, n)
        with pytest.raises(ValueError, match="8 elements"):
            check_function_properties(inst, n, true_minimizer(inst))


class TestSubmodularizerViolation:
    def test_canonical_pattern_n6(self):
        w = find_submodularizer_violation(GroundConfig(6, 2))
        assert w.x == subset(6, 0, 1, 4)
        assert w.y == subset(6, 0, 1, 2, 4)
        assert w.element == 3
        assert w.lhs == 0 and w.rhs == -1
        fn = standalone_submodularizer(6, subset(6, 0, 1, 2, 3), subset(6, 0, 1))
        assert w.reverify(fn)

    def test_rejects_r1(self):
        with pytest.raises(ValueError):
            find_submodularizer_violation(GroundConfig(4, 1))

    @pytest.mark.parametrize("n,block,hidden,message", [
        (8, (0, 1, 2, 3), (0, 4), "need hidden inside block"),  # hidden outside the block
        (8, (0, 1, 2), (0, 1), "need hidden inside block"),  # one block element to spare
        (4, None, None, "need at least one element below the block"),  # the block is the ground set
    ])
    def test_rejects_a_pattern_that_cannot_hold(self, n, block, hidden, message):
        block = None if block is None else subset(n, *block)
        hidden = None if hidden is None else subset(n, *hidden)
        with pytest.raises(ValueError, match=message):
            find_submodularizer_violation(GroundConfig(n, 2), block, hidden)

    def test_custom_block_n8(self):
        block, hidden = subset(8, 0, 1, 2, 3), subset(8, 0, 1)
        w = find_submodularizer_violation(GroundConfig(8, 2), block, hidden)
        fn = standalone_submodularizer(8, block, hidden)
        assert w.reverify(fn)

    def test_agrees_with_exhaustive_scan(self):
        # The constructed pattern and the exhaustive scan must both find
        # violations for every r >= 2 configuration tried.
        for n, r in [(6, 2), (8, 2), (8, 3)]:
            cfg = GroundConfig(n, r)
            w = find_submodularizer_violation(cfg)
            block = Subset.from_indices(n, range(2 * r))
            hidden = Subset.from_indices(n, range(r))
            fn = standalone_submodularizer(n, block, hidden)
            assert w.reverify(fn)
            assert check_marginal_submodular(fn, n) is not None

    def test_r1_has_no_violation_empirically(self):
        # With a 2-element block the strictly-between pattern cannot exist;
        # exhaustive scans find no violation of any kind at r = 1.
        for n in (4, 6, 8):
            fn = standalone_submodularizer(n, subset(n, 0, 1), subset(n, 0))
            assert check_submodular_pairs(fn, n) is None
            assert check_marginal_submodular(fn, n) is None

    def test_witness_json(self):
        w = find_submodularizer_violation(GroundConfig(6, 2))
        assert w.to_json() == {
            "X": [0, 1, 4],
            "Y": [0, 1, 2, 4],
            "element": 3,
            "lhs": "0",
            "rhs": "-1",
        }
