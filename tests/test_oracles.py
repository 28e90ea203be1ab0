import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction

import pytest

from layeredsfm import family
from layeredsfm.family import (
    LayeredInstance,
    LayerTable,
    _layer_value,
    complete_instance,
    evaluate_closed_form,
    evaluate_recursive,
    first_divergent_layer,
    lowest_first,
    sample_instance,
    true_minimizer,
)
from layeredsfm.oracles import (
    CorruptedOracleError,
    HalvingAdversary,
    HonestOracle,
    QueryRecord,
    ReplayMismatchError,
    Transcript,
    _Oracle,
)
from layeredsfm.rng import SplitMix64
from layeredsfm.sets import GroundConfig, SingletonBatch, Subset, enumerate_subsets
from layeredsfm.solvers import SOLVERS, family_aware_minimize, singleton_parallel_minimize
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


class TestHonestOracle:
    def test_answers_and_counts(self, two_layer_instance):
        oracle = HonestOracle(two_layer_instance)
        assert oracle.answer(subset(4, 0, 2)) == 0
        assert (oracle.queries, oracle.rounds) == (1, 1)

    def test_empty_query(self, two_layer_instance):
        oracle = HonestOracle(two_layer_instance)
        assert oracle.answer(Subset(4)) == 1

    def test_round_batching(self, two_layer_instance):
        oracle = HonestOracle(two_layer_instance)
        for _ in range(2):
            oracle.begin_round()
            for _ in range(3):
                oracle.answer(Subset(4))
        assert (oracle.queries, oracle.rounds) == (6, 2)

    def test_counts_every_call(self, two_layer_instance):
        oracle = HonestOracle(two_layer_instance)
        for i, s in enumerate(enumerate_subsets(4), start=1):
            oracle.answer(s)
            assert oracle.queries == i

    def test_concurrent_answers_counted_atomically(self, two_layer_instance):
        # Four threads open rounds and ask through both entry points while
        # the interpreter switches threads as often as it can: every count
        # must land, and the lock must be free at the end.
        import sys
        import threading

        oracle = HonestOracle(two_layer_instance)
        oracle.begin_round()
        mask = 0b0101
        want = oracle.instance.table.values([mask], oracle.config.code_lift)
        start = threading.Barrier(4)
        wrong = []

        def worker():
            start.wait()
            for _ in range(500):
                oracle.begin_round()
                oracle.answer(Subset(4))
                codes = oracle.answer_batch([mask])
                if codes != want:
                    wrong.append(codes)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert (oracle.queries, oracle.rounds) == (4000, 2001)
        assert not oracle._lock.locked()


class _LockedCounters:
    """Counters whose every write must hold the counting lock.  A thread race
    shows a missing lock only rarely; these setters show it on every write.
    ``_Oracle.__init__`` writes both counters before it makes the lock."""

    def _check_lock(self):
        lock = self.__dict__.get("_lock")
        assert lock is None or lock.locked(), "a counter was written without the counting lock"

    @property
    def queries(self):
        return self._queries

    @queries.setter
    def queries(self, value):
        self._check_lock()
        self._queries = value

    @property
    def rounds(self):
        return self._rounds

    @rounds.setter
    def rounds(self, value):
        self._check_lock()
        self._rounds = value


class _LockedHonest(_LockedCounters, HonestOracle):
    pass


class _LockedSequentialHonest(_LockedCounters, HonestOracle):
    answer_batch = _Oracle.answer_batch


class _LockedAdversary(_LockedCounters, HalvingAdversary):
    pass


@pytest.mark.parametrize("make", [
    lambda inst: _LockedHonest(inst),
    lambda inst: _LockedSequentialHonest(inst),
    lambda inst: _LockedAdversary(inst.config),
], ids=["honest", "honest_through_answer", "adversary"])
def test_every_count_holds_the_counting_lock(two_layer_instance, make):
    oracle = make(two_layer_instance)
    oracle.answer_batch([0b0001, 0b0110])  # implicit round 1
    oracle.begin_round()
    oracle.answer(subset(4, 0, 2))
    oracle.answer_batch([0b0000, 0b0101, 0b1111])
    assert (oracle.queries, oracle.rounds) == (6, 2)
    assert not oracle._lock.locked()


def _deep_masks(inst, count, seed):
    """Seeded masks that match a random number of leading layers, then
    a random subset of the pool left (so every depth is queried)."""
    rng = SplitMix64(seed)
    layers = inst.config.layer_count
    masks = []
    for _ in range(count):
        keep = rng.below(layers + 1)
        matched = 0
        for hidden in inst.hidden_sets[:keep]:
            matched |= hidden.bits
        rest = inst.pools[keep].bits if keep < layers else 0
        masks.append(matched | rng.bits(inst.config.n) & rest)
    return masks


def _linear_scan_value(inst, mask):
    """The value at ``mask``: a linear scan of ``inst.blocks`` and
    ``inst.hidden_sets`` finds the first divergent layer k, and the
    ``Fraction`` reference ``_layer_value`` prices it over d_k.  Shares
    neither the table's layer search nor its lifts to codes or numerators."""
    cfg = inst.config
    pool = (1 << cfg.effective_size) - 1
    for k, (block, hidden) in enumerate(zip(inst.blocks, inst.hidden_sets), start=1):
        if mask & block.bits != hidden.bits:
            return _layer_value(block.bits, hidden.bits, pool, pool.bit_count(), scale_denominators(cfg)[k - 1], mask)
        pool &= ~block.bits
    return Fraction(0)


class TestAnswerBatch:
    """``answer_batch`` gives the layer codes of the values ``answer`` gives."""

    @pytest.mark.parametrize("n,r", [(2, 1), (4, 1), (7, 1), (8, 2), (12, 3), (16, 2)])
    def test_matches_answer_exhaustively(self, n, r):
        cfg = GroundConfig(n, r)
        oracle = HonestOracle(sample_instance(cfg, n + r))
        codes = oracle.answer_batch(range(1 << n))
        assert codes == [cfg.value_code(oracle.answer(Subset(n, m))) for m in range(1 << n)]
        assert (oracle.queries, oracle.rounds) == (2 << n, 1)

    @pytest.mark.parametrize("n,r", [(1024, 1), (512, 2)])
    def test_matches_answer_at_every_depth(self, n, r):
        cfg = GroundConfig(n, r)
        assert cfg.value_denominator.bit_length() >= 1355
        inst = sample_instance(cfg, 7)
        oracle = HonestOracle(inst)
        masks = _deep_masks(inst, 2000, seed=n)
        codes = oracle.answer_batch(masks)
        assert [cfg.code_value(c) for c in codes] == [oracle.answer(Subset(n, m)) for m in masks]
        assert [cfg.code_value(c) for c in codes] == [_linear_scan_value(inst, m) for m in masks]
        depths = {first_divergent_layer(inst, Subset(n, m)) for m in masks}
        assert None in depths and max(d for d in depths if d is not None) > cfg.layer_count // 2

    def test_counts_every_mask_with_implicit_round(self, two_layer_instance):
        oracle = HonestOracle(two_layer_instance)
        oracle.answer_batch(range(5))
        assert (oracle.queries, oracle.rounds) == (5, 1)
        oracle.begin_round()
        oracle.answer_batch([3, 1])
        assert (oracle.queries, oracle.rounds) == (7, 2)

    @pytest.mark.parametrize("bad", [-1, 16, 1 << 40])
    def test_out_of_range_mask_counts_nothing(self, two_layer_instance, bad):
        oracle = HonestOracle(two_layer_instance)
        oracle.answer_batch([0])
        with pytest.raises(ValueError):
            oracle.answer_batch([0, 5, bad, 15])
        assert (oracle.queries, oracle.rounds) == (1, 1)

    @pytest.mark.parametrize("kind", ["honest", "sequential", "adversary"])
    def test_bad_mask_mid_batch_leaves_no_state(self, kind):
        # A mask outside [0, 2^n) anywhere in a batch is rejected before any
        # mask of the batch is counted, answered or recorded.
        cfg = GroundConfig(8, 1)

        class Sequential(HonestOracle):
            answer_batch = _Oracle.answer_batch

        for bad in (1 << 8, -1):
            if kind == "adversary":
                oracle = HalvingAdversary(cfg)
            else:
                oracle = (HonestOracle if kind == "honest" else Sequential)(sample_instance(cfg, 3))
            with pytest.raises(ValueError):
                oracle.answer_batch([3, bad])
            assert (oracle.queries, oracle.rounds) == (0, 0)
            if kind == "adversary":
                assert len(oracle.transcript) == 0
                assert oracle.engaged_layers == [] and oracle.commits == []
                assert oracle.active_set == Subset.full(8)

    @pytest.mark.parametrize("kind", ["honest", "sequential", "adversary"])
    @pytest.mark.parametrize("batch", [[0.5, 3], [3, 1.0], [0, 1.5, 3]])
    def test_non_int_mask_leaves_no_state(self, kind, batch):
        # A mask that is not an int, even one that is neither the batch's
        # least nor its greatest, is rejected before anything is counted.
        cfg = GroundConfig(8, 1)

        class Sequential(HonestOracle):
            answer_batch = _Oracle.answer_batch

        if kind == "adversary":
            oracle = HalvingAdversary(cfg)
        else:
            oracle = (HonestOracle if kind == "honest" else Sequential)(sample_instance(cfg, 3))
        with pytest.raises(TypeError):
            oracle.answer_batch(batch)
        assert (oracle.queries, oracle.rounds) == (0, 0)
        if kind == "adversary":
            assert len(oracle.transcript) == 0 and oracle.engaged_layers == []

    @pytest.mark.parametrize("kind", ["honest", "sequential", "adversary"])
    def test_a_batch_without_a_length_is_refused_unread(self, kind):
        # A generator could be read only once: it is refused with TypeError
        # before any of its masks is read, counted, answered or recorded.
        cfg = GroundConfig(8, 1)

        class Sequential(HonestOracle):
            answer_batch = _Oracle.answer_batch

        if kind == "adversary":
            oracle = HalvingAdversary(cfg)
        else:
            oracle = (HonestOracle if kind == "honest" else Sequential)(sample_instance(cfg, 3))
        masks = iter([3, 5])
        with pytest.raises(TypeError, match=r"'list_iterator' has no len\(\)"):
            oracle.answer_batch(masks)
        with pytest.raises(TypeError, match=r"'generator' has no len\(\)"):
            oracle.answer_batch(m for m in (3, 5))
        assert (oracle.queries, oracle.rounds) == (0, 0)
        assert list(masks) == [3, 5]
        if kind == "adversary":
            assert len(oracle.transcript) == 0 and oracle.engaged_layers == []

    @pytest.mark.parametrize("kind", ["honest", "adversary"])
    def test_singleton_batches_are_checked_by_their_ints(self, kind):
        # A singleton batch is checked by its base and members, and answered
        # as the list of its masks.
        cfg = GroundConfig(8, 1)

        def fresh():
            return HalvingAdversary(cfg) if kind == "adversary" else HonestOracle(sample_instance(cfg, 3))

        for bad in (SingletonBatch(1 << 8, 1), SingletonBatch(0, 1 << 8 | 1), SingletonBatch(3, 1 << 9)):
            oracle = fresh()
            with pytest.raises(ValueError, match="must lie in"):
                oracle.answer_batch(bad)
            assert (oracle.queries, oracle.rounds) == (0, 0)
        batched, listed = fresh(), fresh()
        for base, members in [(0, 0xFF), (0b101, 0b1110), (1 << 7, 0), (0x3C, 0xC3)]:
            batch = SingletonBatch(base, members)
            assert batched.answer_batch(batch) == listed.answer_batch(list(batch))
        assert (batched.queries, batched.rounds) == (listed.queries, listed.rounds)
        if kind == "adversary":
            assert batched.transcript.to_json() == listed.transcript.to_json()

    @pytest.mark.parametrize("kind", ["honest", "sequential", "adversary"])
    def test_range_batches_are_checked_by_their_ends(self, kind):
        # A range batch is checked at its ends; a rejected one counts nothing,
        # and an empty one is answered empty.
        cfg = GroundConfig(8, 1)

        class Sequential(HonestOracle):
            answer_batch = _Oracle.answer_batch

        def fresh():
            if kind == "adversary":
                return HalvingAdversary(cfg)
            return (HonestOracle if kind == "honest" else Sequential)(sample_instance(cfg, 3))

        for bad in (range(-1, 3), range(0, 2**8 + 1), range(2**8, -1, -1), range(3, -2, -1), range(-3, 2**9, 7)):
            oracle = fresh()
            with pytest.raises(ValueError, match="must lie in"):
                oracle.answer_batch(bad)
            assert (oracle.queries, oracle.rounds) == (0, 0)
        oracle = fresh()
        assert oracle.answer_batch(range(5, 5)) == []
        assert (oracle.queries, oracle.rounds) == (0, 0)
        for good in (range(2**8 - 1, -1, -1), range(2**8 - 1, 0, -3), range(0, 2**8, 5)):
            assert len(oracle.answer_batch(good)) == len(good)

    @pytest.mark.parametrize("kind", ["honest", "adversary"])
    def test_bad_answer_query_leaves_no_state(self, kind):
        # ``answer`` checks its query's ground size before it counts it.
        cfg = GroundConfig(8, 1)
        oracle = HalvingAdversary(cfg) if kind == "adversary" else HonestOracle(sample_instance(cfg, 3))
        for bad in (Subset(9), Subset(7, 1)):
            with pytest.raises(ValueError):
                oracle.answer(bad)
            assert (oracle.queries, oracle.rounds) == (0, 0)
        if kind == "adversary":
            assert len(oracle.transcript) == 0 and oracle.engaged_layers == []

    def test_sequential_default_rejects_off_lattice_answers(self, two_layer_instance):
        big_d = two_layer_instance.config.value_denominator

        class OffLattice(HonestOracle):
            answer_batch = _Oracle.answer_batch

            def answer(self, s):
                value = super().answer(s)
                return value + Fraction(1, 7 * big_d) if s.bits == 6 else value

        oracle = OffLattice(two_layer_instance)
        assert oracle.answer_batch(range(6)) == HonestOracle(two_layer_instance).answer_batch(range(6))
        with pytest.raises(CorruptedOracleError):
            oracle.answer_batch(range(16))

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_adversary_batch_leaves_the_per_query_transcript(self, n):
        cfg = GroundConfig(n, 1)
        rng = SplitMix64(n)
        masks = [rng.bits(n) for _ in range(6 * n)]
        batched, looped = HalvingAdversary(cfg), HalvingAdversary(cfg)
        for adv in (batched, looped):
            adv.begin_round()
        codes = batched.answer_batch(masks[: 3 * n])
        batched.begin_round()
        codes += batched.answer_batch(masks[3 * n :])
        values = []
        for i, m in enumerate(masks):
            if i == 3 * n:
                looped.begin_round()
            values.append(looped.answer(Subset(n, m)))
        assert [cfg.code_value(c) for c in codes] == values
        assert batched.transcript.to_json() == looped.transcript.to_json()
        assert batched.engaged_layers == looped.engaged_layers
        assert batched.commits == looped.commits
        assert (batched.queries, batched.rounds) == (looped.queries, looped.rounds) == (6 * n, 2)
        assert batched.finalize() == looped.finalize()


def test_the_fraction_reference_refuses_a_layer_the_query_matches():
    # Block {0, 1} hides {0}, and the query {0, 2} matches it there.
    with pytest.raises(ValueError, match="^layer does not diverge on this query$"):
        _layer_value(0b11, 0b01, 0b1111, 4, 1, 0b101)


class TestOneEvaluator:
    """The closed form and ``HonestOracle.answer`` price a query with one
    :meth:`LayerTable.values` call, and never with the ``Fraction``
    reference ``_layer_value``."""

    @pytest.mark.parametrize("n,r", [(7, 1), (16, 2), (64, 1)])
    def test_single_answers_price_through_the_kernel(self, monkeypatch, n, r):
        calls = Counter()
        values, layer_value = LayerTable.values, family._layer_value

        def counting_values(self, masks, lift):
            calls["values"] += 1
            return values(self, masks, lift)

        def counting_layer_value(*args):
            calls["_layer_value"] += 1
            return layer_value(*args)

        monkeypatch.setattr(LayerTable, "values", counting_values)
        monkeypatch.setattr(family, "_layer_value", counting_layer_value)
        inst = sample_instance(GroundConfig(n, r), n)
        oracle = HonestOracle(inst)
        masks = _deep_masks(inst, 50, seed=n)
        expected = [_linear_scan_value(inst, m) for m in masks]
        for evaluate in (lambda s: evaluate_closed_form(inst, s), oracle.answer):
            for m, value in zip(masks, expected):
                calls.clear()
                assert evaluate(Subset(n, m)) == value
                assert calls == Counter(values=1)
        assert (oracle.queries, oracle.rounds) == (len(masks), 1)


class TestAdversaryOpen:
    def test_initial_state(self):
        adv = HalvingAdversary(GroundConfig(8, 1))
        assert adv.active_set == Subset.full(8)
        assert adv.commits == []

    def test_minimal_ground(self):
        adv = HalvingAdversary(GroundConfig(2, 1))
        assert adv.active_set == Subset.full(2)

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            HalvingAdversary(GroundConfig(3, 1))

    def test_rejects_wider_layers(self):
        with pytest.raises(ValueError):
            HalvingAdversary(GroundConfig(8, 2))


class TestAdversaryAnswers:
    def test_halving_walkthrough(self):
        # n=8: majority query shrinks U and answers as a strict superset;
        # disjoint query answers as a strict subset; the pinning query
        # commits the block to the two lowest surviving indices.
        adv = HalvingAdversary(GroundConfig(8, 1))
        assert adv.answer(subset(8, 0, 1, 2, 3)) == Fraction(7, 8)
        assert adv.active_set == subset(8, 0, 1, 2, 3)
        assert adv.answer(subset(8, 4, 5)) == Fraction(9, 8)
        assert adv.active_set == subset(8, 0, 1, 2, 3)
        assert adv.answer(subset(8, 0, 1)) == Fraction(1)
        assert [(c.block, c.hidden) for c in adv.commits] == [(subset(8, 0, 1), subset(8, 0))]

    def test_tie_goes_to_superset_branch(self):
        adv = HalvingAdversary(GroundConfig(8, 1))
        adv.answer(subset(8, 0, 1, 2, 3))  # |U cap S| = 4 = |U|/2
        assert adv.active_set == subset(8, 0, 1, 2, 3)

    def test_committed_layers_answer_from_their_own_data(self):
        adv = HalvingAdversary(GroundConfig(8, 1))
        adv.answer(subset(8, 0, 1, 2, 3))
        adv.answer(subset(8, 0, 1))  # commits layer 1 to ({0,1}, {0})
        assert [(c.block, c.hidden) for c in adv.commits] == [(subset(8, 0, 1), subset(8, 0))]
        # Diverges at layer 1 (contains 1 but not as {0}): exact value.
        value = adv.answer(subset(8, 1, 5))
        assert value == Fraction(2)

    @pytest.mark.parametrize("n", [2, 8, 16, 64])
    def test_committed_answers_match_linear_scan(self, n):
        # Half the queries match every committed layer and engage the active
        # one; the rest keep a random number of committed layers matched, so
        # they diverge at every committed depth.
        cfg = GroundConfig(n, 1)
        adv = HalvingAdversary(cfg)
        rng = SplitMix64(n)
        ground = Subset.full(n)
        depths = set()
        for _ in range(8 * n):
            keep = rng.below(len(adv.commits) + 1) if rng.below(2) else len(adv.commits)
            matched = Subset(n)
            pool = ground
            for c in adv.commits[:keep]:
                matched, pool = matched | c.hidden, pool - c.block
            s = matched | rng.subset_of(pool)
            k = next((c.layer for c in adv.commits if s.bits & c.block.bits != c.hidden.bits), None)
            value = adv.answer(s)
            if k is not None:
                c = adv.commits[k - 1]
                pool_bits = ground.bits
                for earlier in adv.commits[: k - 1]:
                    pool_bits &= ~earlier.block.bits
                assert value == _layer_value(
                    c.block.bits, c.hidden.bits, pool_bits, c.pool_size,
                    scale_denominators(cfg)[k - 1], s.bits,
                )
                assert adv.engaged_layers[-1] is None
                depths.add(k)
        assert depths == set(range(1, cfg.layer_count + 1))
        adv.finalize()  # raises on any replay mismatch

    def test_becomes_honest_once_fully_committed(self):
        adv = HalvingAdversary(GroundConfig(4, 1))
        for s in enumerate_subsets(4):
            adv.answer(s)
        assert len(adv.commits) == adv.config.layer_count
        inst = adv.finalize()
        assert adv.answer(true_minimizer(inst)) == 0


class _BatchLog(HalvingAdversary):
    """A halving adversary that logs each ``begin_round`` as None and each
    batch as (masks, answered codes)."""

    def __init__(self, config):
        super().__init__(config)
        self.log = []

    def begin_round(self):
        self.log.append(None)
        super().begin_round()

    def answer_batch(self, masks):
        masks = list(masks)
        codes = super().answer_batch(masks)
        self.log.append((masks, codes))
        return codes


class TestAdversaryBatches:
    def test_a_batch_equals_one_answer_per_mask(self):
        # A batch is counted once and its records numbered in a row; with
        # layers committing mid-batch, it still equals one answer per mask.
        cfg = GroundConfig(16, 1)
        batched = _BatchLog(cfg)
        singleton_parallel_minimize(batched, cfg)
        batches = [entry for entry in batched.log if entry is not None]
        assert all(len(masks) > 1 for masks, _ in batches)

        # Some query-forced commit is made by a record that is not its batch's last.
        ends = set(itertools.accumulate(len(masks) for masks, _ in batches))
        committing = [
            max(i for i, k in enumerate(batched.engaged_layers, 1) if k == c.layer)
            for c in batched.commits if c.cause != "finalize"
        ]
        assert [i for i in committing if i not in ends]

        one_by_one = HalvingAdversary(cfg)
        rounds, answers = [], []
        for entry in batched.log:
            if entry is None:
                one_by_one.begin_round()
                continue
            for m in entry[0]:
                answers.append(one_by_one.answer(Subset(16, m)))
                rounds.append(one_by_one.rounds)
        records = batched.transcript.records
        assert answers == [cfg.code_value(code) for _, codes in batches for code in codes]
        assert records == one_by_one.transcript.records
        assert [rec.index for rec in records] == list(range(1, len(answers) + 1))
        assert [rec.round for rec in records] == rounds
        assert batched.engaged_layers == one_by_one.engaged_layers
        assert batched.commits == one_by_one.commits
        counts = (len(answers), cfg.layer_count)
        assert (batched.queries, batched.rounds) == (one_by_one.queries, one_by_one.rounds) == counts
        inst = batched.finalize()
        assert inst == one_by_one.finalize()
        assert inst.table.rows == one_by_one.table.rows


class TestFinalize:
    def test_walkthrough_finalize_replays(self):
        adv = HalvingAdversary(GroundConfig(8, 1))
        adv.answer(subset(8, 0, 1, 2, 3))
        adv.answer(subset(8, 4, 5))
        adv.answer(subset(8, 0, 1))
        inst = adv.finalize()
        assert inst.blocks[0] == subset(8, 0, 1)
        assert inst.hidden_sets[0] == subset(8, 0)
        inst2 = adv.transcript  # replay already ran inside finalize
        for rec in inst2.records:
            assert evaluate_closed_form(inst, Subset(8, rec.mask)) == inst.config.code_value(rec.code)

    def test_empty_transcript_canonical(self):
        adv = HalvingAdversary(GroundConfig(6, 1))
        inst = adv.finalize()
        assert [a.indices() for a in inst.blocks] == [[0, 1], [2, 3], [4, 5]]
        assert [r.indices() for r in inst.hidden_sets] == [[0], [2], [4]]

    def test_seeded_finalize_is_deterministic_and_consistent(self):
        def run(seed):
            adv = HalvingAdversary(GroundConfig(12, 1))
            rng = SplitMix64(3)
            ground = Subset.full(12)
            for _ in range(30):
                adv.answer(rng.subset_of(ground))
            return adv.finalize(seed=seed), adv

        inst_a, _ = run(41)
        inst_b, _ = run(41)
        inst_c, _ = run(42)
        assert inst_a == inst_b
        assert inst_a != inst_c  # different completion of untouched layers

    @pytest.mark.parametrize("trial", range(10))
    def test_random_interactions_replay_exactly(self, trial):
        rng = SplitMix64(500 + trial)
        adv = HalvingAdversary(GroundConfig(16, 1))
        ground = Subset.full(16)
        for _ in range(100):
            adv.answer(rng.subset_of(ground))
        inst = adv.finalize()  # raises on any replay mismatch
        assert len(adv.transcript) == 100
        assert inst.config.n == 16

    @pytest.mark.parametrize("seed", [None, 7])
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_table_equals_the_finalized_instance_table(self, n, seed):
        # The adversary's layer table, pushed one commit at a time, is the
        # table the finalized instance builds from its blocks and hidden sets.
        rng = SplitMix64(n)
        adv = HalvingAdversary(GroundConfig(n, 1))
        ground = Subset.full(n)
        for _ in range(2 * n):
            adv.answer(rng.subset_of(ground))
        inst = adv.finalize(seed)
        assert adv.table.rows == inst.table.rows
        assert adv.table.prefix_unions == inst.table.prefix_unions
        assert adv.table.hidden_union == inst.table.hidden_union


def _reference_finalize(adv, seed):
    """Finalize as first written: the active layer from U's index list, then
    ``complete_instance`` of the commits (a throwaway instance) re-committed
    layer by layer; returns the instance built from the commits."""
    cfg, n = adv.config, adv.config.n
    if len(adv.commits) < cfg.layer_count:
        rng = None if seed is None else SplitMix64(seed)
        pick = lowest_first if rng is None else rng.sample
        a_idx = pick(adv.active_set.indices(), 2)
        adv._commit(Subset.from_indices(n, a_idx).bits, Subset.from_indices(n, pick(a_idx, 1)).bits, "finalize")
        if len(adv.commits) < cfg.layer_count:
            if rng is not None:
                pick = SplitMix64(rng.next()).sample
            completed = complete_instance(cfg, [(c.block, c.hidden) for c in adv.commits], pick)
            for k in range(len(adv.commits), cfg.layer_count):
                adv._commit(completed.blocks[k].bits, completed.hidden_sets[k].bits, "finalize")
    return LayeredInstance(cfg, [c.block for c in adv.commits], [c.hidden for c in adv.commits])


class TestFinalizeOnePath:
    @pytest.mark.parametrize("seed", [None, 0, 7])
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_finalize_matches_the_reference_after_partial_duels(self, n, seed):
        cfg = GroundConfig(n, 1)
        for queries in (0, 1, n // 4, n, 3 * n):
            advs = [HalvingAdversary(cfg), HalvingAdversary(cfg)]
            for adv in advs:
                rng = SplitMix64(n + queries)
                adv.answer_batch([rng.bits(n) for _ in range(queries)])
            inst = advs[0].finalize(seed)
            ref = _reference_finalize(advs[1], seed)
            assert advs[0].commits == advs[1].commits  # blocks, hidden sets and causes
            assert inst == ref and inst.table.rows == ref.table.rows
            assert inst.table is advs[0].table
            assert advs[0].finalize(seed) is inst

    def test_finalized_instance_shares_the_adversary_table(self):
        cfg = GroundConfig(16, 1)
        adv = HalvingAdversary(cfg)
        family_aware_minimize(adv, cfg)
        assert len(adv.commits) == adv.config.layer_count
        assert adv.finalize().table is adv.table


class TestAdversaryInvariants:
    def _interact(self, n, queries, seed):
        rng = SplitMix64(seed)
        adv = HalvingAdversary(GroundConfig(n, 1))
        ground = Subset.full(n)
        for _ in range(queries):
            adv.answer(rng.subset_of(ground))
        inst = adv.finalize()
        return adv, inst

    @pytest.mark.parametrize("seed", range(25))
    def test_never_hit(self, seed):
        # No query that engaged a then-uncommitted layer ever matched the
        # (block, hidden) pair that layer later committed to.
        adv, inst = self._interact(16, 80, seed)
        for rec, engaged in zip(adv.transcript.records, adv.engaged_layers):
            if engaged is not None:
                block = inst.blocks[engaged - 1]
                hidden = inst.hidden_sets[engaged - 1]
                assert rec.mask & block.bits != hidden.bits

    @pytest.mark.parametrize("seed", range(25))
    def test_halving_depth(self, seed):
        # A layer opening over m elements absorbs at least floor(log2 m) - 1
        # engaging queries before any query forces its commit.
        adv, _ = self._interact(16, 80, seed)
        for commit in adv.commits:
            if commit.cause in ("halving", "endgame"):
                floor = max(0, math.floor(math.log2(commit.pool_size)) - 1)
                assert commit.engaged_queries >= floor

    def test_active_set_stays_in_pool_and_large_enough(self):
        rng = SplitMix64(9)
        adv = HalvingAdversary(GroundConfig(16, 1))
        ground = Subset.full(16)
        for _ in range(60):
            adv.answer(rng.subset_of(ground))
            if adv.active_set is not None:
                assert len(adv.active_set) >= 2
                for c in adv.commits:
                    assert not (adv.active_set & c.block)


class TestTranscript:
    def test_json_round_trip(self, two_layer_instance):
        adv = HalvingAdversary(GroundConfig(4, 1))
        adv.begin_round()
        adv.answer(subset(4, 0))
        adv.answer(subset(4, 1, 2))
        data = adv.transcript.to_json()
        text = json.dumps(data)
        back = Transcript.from_json(json.loads(text))
        assert [r.to_json(back.config) for r in back.records] == data["records"]

    def test_replay_names_the_mismatched_record(self):
        cfg = GroundConfig(16, 1)
        adv = HalvingAdversary(cfg)
        family_aware_minimize(adv, cfg)
        inst = adv.finalize()
        transcript = Transcript.from_json(json.loads(json.dumps(adv.transcript.to_json())))
        transcript.replay(inst)
        # Another instance answers some recorded query differently.
        with pytest.raises(ReplayMismatchError):
            transcript.replay(sample_instance(cfg, 1))
        # One code moved by 1 is caught and named by its record index.
        i = len(transcript) // 2
        rec = transcript.records[i]
        transcript.records[i] = rec._replace(code=rec.code + 1)
        indices = [e for e in range(cfg.n) if rec.mask >> e & 1]
        assert indices  # a query of at least one element
        with pytest.raises(ReplayMismatchError, match=rf"^record {rec.index}: query {re.escape(str(indices))} was answered "):
            transcript.replay(inst)

    def test_replay_checks_every_chunk(self):
        # 511 records span two replay chunks; a moved value at either end of
        # either chunk is named.
        cfg = GroundConfig(64, 1)
        adv = HalvingAdversary(cfg)
        family_aware_minimize(adv, cfg)
        inst = adv.finalize()
        records = adv.transcript.records
        assert len(records) == 511
        for i in (0, 255, 256, 510):
            rec = records[i]
            records[i] = rec._replace(code=rec.code - 1)
            with pytest.raises(ReplayMismatchError, match=rf"^record {rec.index}: "):
                adv.transcript.replay(inst)
            records[i] = rec
        adv.transcript.replay(inst)

    @pytest.mark.parametrize("other", [GroundConfig(8, 1), GroundConfig(16, 2), GroundConfig(32, 1)])
    def test_replay_rejects_an_instance_of_another_config(self, other):
        cfg = GroundConfig(16, 1)
        adv = HalvingAdversary(cfg)
        family_aware_minimize(adv, cfg)
        adv.transcript.replay(adv.finalize())
        with pytest.raises(ValueError, match="cannot replay"):
            adv.transcript.replay(sample_instance(other, 1))

    def test_record_ordering_enforced(self):
        cfg = GroundConfig(4, 1)
        one = cfg.value_code(Fraction(1))  # the value 1, as a layer code
        t = Transcript(cfg)
        t.append(QueryRecord(1, 1, 0, one))
        with pytest.raises(ValueError):
            t.append(QueryRecord(1, 1, 0, one))
        with pytest.raises(ValueError):
            t.append(QueryRecord(2, 0, 0, one))

    def test_round_tags_follow_begin_round(self):
        adv = HalvingAdversary(GroundConfig(4, 1))
        adv.answer(Subset(4))  # implicit round 1
        adv.begin_round()
        adv.answer(subset(4, 0))
        rounds = [rec.round for rec in adv.transcript.records]
        assert rounds == [1, 2]
        assert (adv.queries, adv.rounds) == (2, 2)


def _assert_records_match_fraction_evaluators(transcript, inst):
    for rec in transcript.records:
        value = inst.config.code_value(rec.code)
        assert value == evaluate_closed_form(inst, Subset(inst.config.n, rec.mask)), rec.index
        assert value == _linear_scan_value(inst, rec.mask), rec.index
        if inst.config.n <= 16:
            assert value == evaluate_recursive(inst, Subset(inst.config.n, rec.mask)), rec.index


class TestIntegerRecords:
    """The adversary prices and records in layer codes; the ``Fraction``
    evaluators, run on the finalized instance, agree with every record: the
    closed form (the honest kernel), and two references independent of the
    kernel, a linear scan priced by ``_layer_value`` and (n <= 16) the recursion."""

    # Brute force asks all 2^n subsets, so it duels at n <= 16 only.
    @pytest.mark.parametrize("solver,n", [
        (solver, n) for solver in sorted(SOLVERS) for n in (8, 16, 32, 64)
        if solver != "brute_force" or n <= 16
    ])
    def test_duel_records_match_fraction_evaluators(self, solver, n):
        cfg = GroundConfig(n, 1)
        adv = HalvingAdversary(cfg)
        SOLVERS[solver](adv, cfg)
        _assert_records_match_fraction_evaluators(adv.transcript, adv.finalize())

    @pytest.mark.parametrize("seed", [None, 3])
    @pytest.mark.parametrize("trial", range(4))
    def test_random_answers_match_fraction_evaluators(self, trial, seed):
        rng = SplitMix64(900 + trial)
        cfg = GroundConfig(16, 1)
        adv = HalvingAdversary(cfg)
        answers = [adv.answer(rng.subset_of(Subset.full(16))) for _ in range(100)]
        inst = adv.finalize(seed)
        assert answers == [cfg.code_value(rec.code) for rec in adv.transcript.records]
        _assert_records_match_fraction_evaluators(adv.transcript, inst)

    @pytest.mark.parametrize("solver,n", [("brute_force", 8), ("family_aware", 32), ("singleton_parallel", 32)])
    def test_adversary_records_are_named_tuples(self, solver, n):
        # The adversary builds records with tuple.__new__; each must behave
        # as the keyword-built QueryRecord of its fields.
        cfg = GroundConfig(n, 1)
        adv = HalvingAdversary(cfg)
        SOLVERS[solver](adv, cfg)
        for rec in adv.transcript.records:
            want = QueryRecord(index=rec.index, round=rec.round, mask=rec.mask, code=rec.code)
            assert type(rec) is QueryRecord
            assert rec._fields == ("index", "round", "mask", "code")
            assert tuple(rec) == tuple(want) and all(type(v) is int for v in rec)
            assert rec == want and hash(rec) == hash(want) and repr(rec) == repr(want)
            assert rec._replace(code=0) == want._replace(code=0)
            assert rec.to_json(cfg) == want.to_json(cfg)
