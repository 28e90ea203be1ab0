import pytest
from hypothesis import given, strategies as st

from layeredsfm.rng import SplitMix64
from layeredsfm.sets import Subset


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
