"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance here is exact rational equality or an exact integer floor;
the two Monte-Carlo estimates (criterion 6) run on fixed seeds and compare
against exact ceilings.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import math
from fractions import Fraction

from layeredsfm.family import (
    evaluate_closed_form,
    evaluate_recursive,
    sample_instance,
    true_minimizer,
)
from layeredsfm.harness import ExperimentConfig, run_hiding
from layeredsfm.oracles import HalvingAdversary, HonestOracle
from layeredsfm.rng import SplitMix64
from layeredsfm.sets import GroundConfig, Subset, enumerate_subsets
from layeredsfm.solvers import (
    brute_force_minimize,
    family_aware_minimize,
    singleton_parallel_minimize,
)
from layeredsfm.verify import check_instance_properties, find_submodularizer_violation


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_structural_properties():
    # r in {1, 2}, n in {4, 6, 8, 10} with 2r | n, 50 sampled instances each:
    # all-pairs submodularity, range within [0, 2], unique minimizer equal to
    # the union of hidden sets.  Exact arithmetic throughout.
    combos = [(4, 1), (6, 1), (8, 1), (10, 1), (4, 2), (8, 2)]
    checked = 0
    for n, r in combos:
        cfg = GroundConfig(n, r)
        rng = SplitMix64(n * 100 + r)
        for seed in rng.spawn_seeds(50):
            report = check_instance_properties(sample_instance(cfg, seed))
            assert report.range_ok, (n, r, seed)
            assert report.unique_min_ok, (n, r, seed)
            assert report.submodular_ok, (n, r, seed, report.witness)
            checked += 1
    _verdict(1, checked == 300, f"{checked}/300 instances satisfy range/minimizer/submodularity exactly")


def test_criterion_2_recursive_explicit_equivalence():
    # Exact equality of the recursive and closed-form evaluators: all 2^n
    # subsets on 50 instances at n <= 12, plus 10^4 random subsets at n = 24.
    plans = [(12, 1, 15), (12, 2, 10), (12, 3, 5), (11, 2, 5), (10, 1, 10), (9, 1, 5)]
    instances = 0
    for n, r, count in plans:
        cfg = GroundConfig(n, r)
        rng = SplitMix64(n * 10 + r)
        for seed in rng.spawn_seeds(count):
            inst = sample_instance(cfg, seed)
            for s in enumerate_subsets(n):
                assert evaluate_closed_form(inst, s) == evaluate_recursive(inst, s)
            instances += 1
    assert instances == 50

    sampled = 0
    for r, seed in ((1, 240), (3, 241)):
        cfg = GroundConfig(24, r)
        inst = sample_instance(cfg, seed)
        rng = SplitMix64(seed)
        ground = Subset.full(24)
        for _ in range(5000):
            s = rng.subset_of(ground)
            assert evaluate_closed_form(inst, s) == evaluate_recursive(inst, s)
            sampled += 1
    _verdict(2, sampled == 10_000, f"evaluators agree exactly on 50 full power sets and {sampled} subsets at n=24")


def test_criterion_3_deterministic_query_floor():
    # Family-aware solver vs the halving adversary at r = 1: at least
    # (n/2) * log2(n/4) queries; finalize replays exactly; the solver's
    # output is the finalized instance's minimizer.
    floors = {8: 4, 16: 16, 32: 48, 64: 128}
    results = []
    for n, floor in floors.items():
        assert floor == (n / 2) * math.log2(n / 4)
        cfg = GroundConfig(n, 1)
        adversary = HalvingAdversary(cfg)
        result = family_aware_minimize(adversary)
        instance = adversary.finalize()  # raises on any replay mismatch
        assert result.queries >= floor, (n, result.queries, floor)
        assert result.minimizer == true_minimizer(instance)
        assert result.min_value == 0
        results.append(f"n={n}:{result.queries}>={floor}")
    _verdict(3, True, "query floors hold with exact replay (" + ", ".join(results) + ")")


def test_criterion_4_adversary_soundness():
    # 100 random-query interactions at n = 16: no engaging query ever hit the
    # later-committed hidden set; every query-forced commit absorbed at least
    # floor(log2 pool) - 1 engaging queries; finalize + replay is exact.
    interactions = 0
    for trial in range(100):
        rng = SplitMix64(16_000 + trial)
        adversary = HalvingAdversary(GroundConfig(16, 1))
        ground = Subset.full(16)
        for _ in range(60):
            adversary.answer(rng.subset_of(ground))
        instance = adversary.finalize()  # replay check built in
        for record, engaged in zip(adversary.transcript.records, adversary.engaged_layers):
            if engaged is not None:
                block = instance.blocks[engaged - 1]
                hidden = instance.hidden_sets[engaged - 1]
                assert record.mask & block.bits != hidden.bits, (trial, record.index)
        for commit in adversary.commits:
            if commit.cause in ("halving", "endgame"):
                floor = max(0, math.floor(math.log2(commit.pool_size)) - 1)
                assert commit.engaged_queries >= floor, (trial, commit)
        interactions += 1
    _verdict(4, interactions == 100, "never-hit, halving-depth, and exact replay hold on 100/100 interactions")


def test_criterion_5_upper_bound():
    # Family-aware solver on honest uniform instances: correct on 100/100
    # trials per configuration with queries <= 8 * n * log2(n); cross-checked
    # against brute force wherever n <= 16.
    details = []
    for n, r in [(16, 1), (32, 2), (64, 1), (64, 8)]:
        cfg = GroundConfig(n, r)
        budget = 8 * n * math.log2(n)
        rng = SplitMix64(n * 1000 + r)
        worst = 0
        for seed in rng.spawn_seeds(100):
            inst = sample_instance(cfg, seed)
            result = family_aware_minimize(HonestOracle(inst))
            assert result.minimizer == true_minimizer(inst), (n, r, seed)
            assert result.min_value == 0
            assert result.queries <= budget, (n, r, seed, result.queries)
            worst = max(worst, result.queries)
            if n <= 16:
                brute = brute_force_minimize(HonestOracle(inst))
                assert brute.minimizer == result.minimizer
                assert brute.min_value == result.min_value
        details.append(f"({n},{r}):max {worst}<={budget:.0f}")
    _verdict(5, True, "100/100 correct within budget " + "; ".join(details))


def test_criterion_6_parallel_round_structure():
    # Singleton-parallel solver: exactly n/(2r) rounds and correct on 100/100
    # uniform instances per configuration; exact information hiding on
    # 1000/1000 triples; Monte-Carlo hit rate for r = 8 stays below the
    # counting-bound ceiling 4 * (2r+1) / 2^(2r) over 10^6 samples.  The
    # asymptotic high-probability statement is NOT reproduced at this scale;
    # these are its exact desk-scale ingredients.
    for n, r in [(16, 2), (32, 4), (32, 8)]:
        cfg = GroundConfig(n, r)
        rng = SplitMix64(n * 77 + r)
        for seed in rng.spawn_seeds(100):
            inst = sample_instance(cfg, seed)
            result = singleton_parallel_minimize(HonestOracle(inst))
            assert result.rounds == cfg.layer_count == n // (2 * r), (n, r, seed)
            assert result.minimizer == true_minimizer(inst), (n, r, seed)

    report = run_hiding(ExperimentConfig(mode="hiding", n=(32,), r=8, seed=2023, trials=1_000_000))
    assert report.aggregate["exact_hiding_identical"] == 1000
    hit_rate = Fraction(report.aggregate["hits"], report.aggregate["samples"])
    ceiling = Fraction(4 * 17, 2 ** 16)
    assert hit_rate <= ceiling, (hit_rate, ceiling)
    assert report.passed
    _verdict(
        6,
        True,
        f"rounds exact on 300/300 trials; hiding 1000/1000; hit rate "
        f"{report.aggregate['hit_rate']} <= ceiling {ceiling.numerator}/{ceiling.denominator}",
    )


def test_criterion_7_submodularizer_violation():
    # The bare correction term is not submodular: constructed witness for
    # r = 2, n = 6 following the marginal pattern (block part of X equals the
    # hidden set, Y's block part strictly between hidden and block, element
    # from the block outside Y), verified by exact evaluation.
    witness = find_submodularizer_violation(GroundConfig(6, 2))
    block = Subset.from_indices(6, [0, 1, 2, 3])
    hidden = Subset.from_indices(6, [0, 1])
    assert witness.x & block == hidden
    y_block = witness.y & block
    assert hidden.bits & ~y_block.bits == 0 and hidden != y_block and y_block != block
    assert witness.element in block and witness.element not in witness.y
    assert witness.lhs > witness.rhs

    from layeredsfm.family import submodularizer

    universe = Subset.full(6)
    assert witness.reverify(lambda s: submodularizer(universe, block, hidden, s))
    _verdict(7, True, f"verified witness X={witness.x.indices()}, Y={witness.y.indices()}, e={witness.element}")
