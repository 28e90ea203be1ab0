import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from layeredsfm.rationals import format_value, parse_value
from layeredsfm.rng import SplitMix64


def test_exact_value_is_reduced_with_positive_denominator():
    v = Fraction(2, -4)
    assert (v.numerator, v.denominator) == (-1, 2)


def test_arithmetic_examples():
    assert Fraction(1, 8) + Fraction(1, 32) == Fraction(5, 32)
    assert Fraction(1, 32) * 2 == Fraction(1, 16)
    assert Fraction(7, 8) < Fraction(9, 8)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_format_examples():
    assert format_value(Fraction(-1, 16)) == "-1/16"
    assert format_value(Fraction(0)) == "0"
    assert format_value(Fraction(5)) == "5"


def _format_by_parts(v):
    """The ``p/q`` rendering spelled out, as the one-call format replaced."""
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


@pytest.mark.parametrize("v", [
    0, 7, -7, 2**70, -(2**200) - 1,
    Fraction(2**70, 3), Fraction(-(2**70) - 1, 2**64), Fraction(3**90 + 2, 2**101), Fraction(2**5000 + 1, 7)])
def test_format_matches_the_spelled_out_form(v):
    assert format_value(v) == _format_by_parts(v)
    assert parse_value(format_value(v)) == v


def test_parse_examples():
    assert parse_value("0") == Fraction(0)
    assert parse_value("2/4") == Fraction(1, 2)
    assert parse_value("-7/3") == Fraction(-7, 3)


@pytest.mark.parametrize("bad", ["", "1/0", "1.5", "a/b", "1/-2", "1/ 2", "--3", "1e3", "١/٢", 3, None])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_value(bad)


@pytest.mark.parametrize("text", ["1/0", "0/0", "-3/000"])
def test_parse_rejects_a_zero_denominator(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_value(text)


@given(st.fractions())
def test_round_trip(v):
    assert parse_value(format_value(v)) == v


def test_field_axioms_on_sampled_triples():
    # 10^4 seeded triples: associativity of + and *, distributivity,
    # and reduced storage after every operation.
    rng = SplitMix64(2024)

    def draw():
        num = rng.below(2001) - 1000
        den = rng.below(50) + 1
        return Fraction(num, den)

    for _ in range(10_000):
        a, b, c = draw(), draw(), draw()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        for v in (a + b, a * b, a - c):
            assert math.gcd(abs(v.numerator), v.denominator) == 1
            assert v.denominator > 0


def test_huge_denominators_stay_exact():
    # Deep-layer scale factors overflow any float; equality must stay exact.
    scale = Fraction(1)
    for size in range(64, 2, -2):
        scale /= 8 * size
    assert scale != 0
    assert scale * (8 ** 31) * math.prod(range(64, 2, -2)) == 1
