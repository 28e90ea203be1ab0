import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from layeredsfm.family import sample_instance
from layeredsfm.rng import _CHUNK, _GOLDEN, _MASK64, SplitMix64, _mix
from layeredsfm.sets import GroundConfig, Subset


def test_known_stream_from_zero_seed():
    # Reference outputs of the splitmix64 recurrence from state 0; these pin
    # the generator so instances reproduce across implementations.
    rng = SplitMix64(0)
    assert [rng.next() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_determinism_and_independence_of_streams():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]
    assert SplitMix64(1).next() != SplitMix64(2).next()


def test_below_bounds_and_rough_uniformity():
    rng = SplitMix64(7)
    counts = [0] * 5
    for _ in range(50_000):
        v = rng.below(5)
        counts[v] += 1
    assert all(9_500 < c < 10_500 for c in counts)
    with pytest.raises(ValueError):
        rng.below(0)


def test_below_rejects_bounds_past_one_draw():
    # Above 2^64 no 64-bit draw is ever accepted, so the bound is refused
    # instead of looping.  Bounds up to 2^64 keep their streams: 2^64 takes
    # every draw as it is, and 2^64 - 1 every draw below it.
    for bound in (2**64 + 1, 2**65, 2**1000):
        with pytest.raises(ValueError, match=r"1\.\.2\^64"):
            SplitMix64(1).below(bound)
    a, b = SplitMix64(3), SplitMix64(3)
    assert [a.below(2**64) for _ in range(8)] == [b.next() for _ in range(8)]
    a, b = SplitMix64(3), SplitMix64(3)
    assert [a.below(2**64 - 1) for _ in range(8)] == [b.next() for _ in range(8)]


def test_sample_is_sorted_subset_without_replacement():
    rng = SplitMix64(11)
    for _ in range(100):
        got = rng.sample(range(10), 4)
        assert got == sorted(got)
        assert len(set(got)) == 4
        assert all(0 <= x < 10 for x in got)
    with pytest.raises(ValueError):
        rng.sample(range(3), 4)


def test_bits_width():
    rng = SplitMix64(5)
    for width in (0, 1, 63, 64, 65, 130):
        v = rng.bits(width)
        assert 0 <= v < (1 << width) if width else v == 0


def test_bits_rejects_a_negative_count():
    with pytest.raises(ValueError, match=r"count must be non-negative, got -1$"):
        SplitMix64(5).bits(-1)


def test_seed_is_one_64_bit_word():
    # Keeping a seed's low 64 bits would alias it: 3 + 2**64 would replay
    # seed 3, and -1 seed 2**64 - 1.  Such seeds are refused by the
    # generator, so every caller (sample_instance included) refuses them.
    top = 2**64 - 1
    assert SplitMix64(top).next() == _mix((top + _GOLDEN) & _MASK64)
    assert sample_instance(GroundConfig(8, 1), top) != sample_instance(GroundConfig(8, 1), 0)
    for seed, message in [(-1, r"seed must be non-negative, got -1$"),
                          (2**64, rf"seed must be below 2\*\*64, got {2**64}$"),
                          (3 + 2**64, rf"seed must be below 2\*\*64, got {3 + 2**64}$")]:
        with pytest.raises(ValueError, match=message):
            SplitMix64(seed)
        with pytest.raises(ValueError, match=message):
            sample_instance(GroundConfig(8, 1), seed)


def test_subset_of_respects_carrier():
    rng = SplitMix64(9)
    carrier = Subset.from_indices(8, [1, 3, 5])
    for _ in range(50):
        s = rng.subset_of(carrier)
        assert s.is_subset_of(carrier)


def _reference_subset_of(rng, carrier):
    # One bits() draw over the listed members; bit pos keeps members[pos].
    members = carrier.indices()
    keep = rng.bits(len(members))
    picked = 0
    for pos, idx in enumerate(members):
        if (keep >> pos) & 1:
            picked |= 1 << idx
    return Subset(carrier.size, picked)


@given(
    st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))),
    st.integers(0, (1 << 64) - 1),
)
def test_subset_draws_match_per_member_reference(shape, seed):
    n, bits = shape
    carrier = Subset(n, bits)
    ref, via_carrier = SplitMix64(seed), SplitMix64(seed)
    for _ in range(3):
        expected = _reference_subset_of(ref, carrier)
        assert via_carrier.subset_of(carrier) == expected
    assert ref.next() == via_carrier.next()


def _counted_matches(rng, count, mask, target, draws):
    """``count_matches`` by drawing every word: the reference."""
    return sum(rng.bits(count) & mask == target for _ in range(draws))


@given(
    st.integers(0, 1100),
    st.one_of(
        st.integers(-(1 << 1200), 1 << 1200),
        st.sets(st.integers(0, 1100), max_size=8).map(lambda s: sum(1 << i for i in s)),
    ),
    st.sampled_from(["first draw", "inside mask", "any"]),
    st.integers(-(1 << 1200), 1 << 1200),
    st.integers(0, 6),
    st.integers(0, (1 << 64) - 1),
)
def test_count_matches_counts_bits_under_the_mask(count, mask, kind, t, draws, seed):
    # Same count and same state afterwards as drawing every word and masking.
    # The target is the next draw's masked bits (at least one match), bits
    # of the mask, or any integer (bits outside the mask match nothing).
    full, fast = SplitMix64(seed), SplitMix64(seed)
    if kind == "first draw":
        target = SplitMix64(seed).bits(count) & mask
    elif kind == "inside mask":
        target = t & mask & ((1 << count) - 1)
    else:
        target = t
    for _ in range(2):
        assert fast.count_matches(count, mask, target, draws) == _counted_matches(full, count, mask, target, draws)
        assert fast._state == full._state


def test_count_matches_edges():
    for count in (0, 1, 63, 64, 65, 128, 129, 512, 1024):
        for mask in (0, -1, 1, 1 << count, (1 << count) - 1, 1 << max(count - 1, 0), -(1 << 64)):
            first = SplitMix64(count).bits(count) & mask
            outside = 1 << count  # never a bit of a draw
            for target in (0, first, first ^ 1, first | outside, -1, -(1 << count)):
                full, fast = SplitMix64(count), SplitMix64(count)
                assert fast.count_matches(count, mask, target, 5) == _counted_matches(full, count, mask, target, 5)
                assert fast.next() == full.next()
    with pytest.raises(ValueError):
        SplitMix64(0).count_matches(-1, 1, 0, 1)
    with pytest.raises(ValueError):
        SplitMix64(0).count_matches(8, 1, 0, -1)


def test_count_matches_target_outside_the_mask_matches_nothing():
    # A target bit in a word the mask does not touch, or past ``count``, rules
    # out every draw, even when the touched words always agree (mask 0 there).
    for count, mask, target in [(128, 1, 1 << 70), (192, 1 << 130, 1 << 10), (10, -1, 1 << 10),
                                (128, 0, 1 << 64), (64, 1 << 5, 1 << 6)]:
        rng, ref = SplitMix64(3), SplitMix64(3)
        assert rng.count_matches(count, mask, target, 50) == 0
        for _ in range(50):
            ref.bits(count)
        assert rng._state == ref._state
    # An empty mask matches every draw at target 0.
    assert SplitMix64(3).count_matches(200, 0, 0, 7) == 7
    assert SplitMix64(3).count_matches(200, 1 << 200, 0, 7) == 7


def _early_stop_matches(rng, count, mask, target, draws):
    """``SplitMix64.count_matches`` one draw at a time, mixing only the words
    the mask touches and dropping a draw at the first word that differs:
    the scalar reference for the lane-packed kernel."""
    if count < 0 or draws < 0:
        raise ValueError(f"count and draws must be non-negative, got {count} and {draws}")
    state = rng._state
    stride = ((count + 63) >> 6) * _GOLDEN
    rng._state = (state + draws * stride) & _MASK64
    mask &= (1 << count) - 1
    if target & ~mask:
        return 0
    words = []
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


def test_count_matches_at_lane_and_chunk_edges():
    # Draw counts on both sides of a 64-lane word of flags and of a chunk,
    # three chunks plus a short one, against drawing every word.  Targets
    # are the masked bits of the first draw, of the last draw (the last lane
    # of the last chunk) and 0.
    assert _CHUNK == 4096
    for count in (1, 64, 65, 512, 1024):
        sparse = 1 | 1 << (count - 1) | (1 << 64 if count > 64 else 0) | (1 << 700 if count > 700 else 0)
        for draws in (63, 64, 65, 4095, 4096, 4097, 3 * 4096 + 5):
            full = SplitMix64(count + draws)
            values = [full.bits(count) for _ in range(draws)]
            for mask in (sparse, 0, (1 << count) - 1, -1, -(1 << 64), 0b101 << (count - 3) if count > 2 else -2):
                for target in {values[0] & mask, values[-1] & mask, 0}:
                    fast = SplitMix64(count + draws)
                    expected = sum(v & mask == target for v in values)
                    assert fast.count_matches(count, mask, target, draws) == expected, (count, draws, mask, target)
                    assert fast._state == full._state


def test_count_matches_fuzz_against_early_stop_loop():
    # 2,000 seeded cases with up to 300 draws: counts of 0 to 1,100 bits,
    # sparse, dense, negative and empty masks, and targets from a draw,
    # inside the mask, or anywhere.
    rand = random.Random(20)
    hit_cases = 0
    for _ in range(2000):
        count = rand.choice([0, 1, 63, 64, 65, 128, 512, 1024, rand.randint(0, 1100)])
        shape = rand.randrange(4)
        if shape == 0:
            mask = sum(1 << rand.randrange(count + 1) for _ in range(rand.randint(0, 6)))
        elif shape == 1:
            mask = rand.getrandbits(count + 8)
        elif shape == 2:
            mask = -1 - rand.getrandbits(80)
        else:
            mask = 0
        seed, draws = rand.getrandbits(64), rand.randint(0, 300)
        pick = rand.randrange(3)
        if pick == 0:
            target = SplitMix64(seed).bits(count) & mask
        elif pick == 1:
            target = rand.getrandbits(count + 1) & mask & ((1 << count) - 1)
        else:
            target = rand.getrandbits(count + 70) - (1 << 40)
        fast, ref = SplitMix64(seed), SplitMix64(seed)
        hits = fast.count_matches(count, mask, target, draws)
        assert hits == _early_stop_matches(ref, count, mask, target, draws), (count, mask, target, draws, seed)
        assert fast._state == ref._state
        hit_cases += hits > 0
    assert hit_cases > 500


def test_count_matches_memory_is_bounded_by_the_chunk():
    # The default Q = n^2 draws at n = 256: 2^16 draws of 1,024 bits, a mask
    # in four words.  Lanes are mixed a chunk at a time, so the peak stays
    # near a few chunk-sized ints, not 2^16 lanes.
    mask = 1 | 1 << 300 | 1 << 600 | 1 << 1000
    tracemalloc.start()
    try:
        SplitMix64(3).count_matches(1024, mask, 1, 2**16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _copying_sample(rng, seq, k):
    """``SplitMix64.sample`` as a partial shuffle of a full copy of ``seq``,
    kept as the reference for the one that stores only moved positions."""
    if not 0 <= k <= len(seq):
        raise ValueError(f"cannot sample {k} of {len(seq)} items")
    pool = list(seq)
    for i in range(k):
        j = i + rng.below(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])


@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 300).flatmap(lambda size: st.tuples(st.just(size), st.integers(0, size))),
)
def test_sample_matches_copying_shuffle(seed, size_k):
    # Same draw and same generator state after it, k = 0 and k = size included.
    size, k = size_k
    seq = [3 * e + 1 for e in range(size)]
    for count in sorted({0, k, size}):
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        assert rng.sample(seq, count) == _copying_sample(ref, seq, count)
        assert rng.next() == ref.next()
