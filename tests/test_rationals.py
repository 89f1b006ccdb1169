"""The exact rational type and its integer-numerator conversions."""

import fractions
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from taildep.rationals import (
    ZERO,
    Rat,
    from_common_numerators,
    rat,
    rat_str,
    to_common_numerators,
)

# numerators well past int64, both signs, zeros included
numerators = st.lists(st.integers(min_value=-(2**130), max_value=2**130), max_size=40)
denominators = st.one_of(st.just(1), st.integers(min_value=1, max_value=2**100))


def test_rat_is_fraction():
    assert Rat is fractions.Fraction


@given(numerators, denominators)
def test_from_common_numerators_matches_fraction(nums, den):
    got = from_common_numerators(nums, den)
    want = [Fraction(n, den) for n in nums]
    assert got == want
    for g, w in zip(got, want):
        assert type(g) is Fraction
        assert (g.numerator, g.denominator) == (w.numerator, w.denominator)
        assert hash(g) == hash(w)


def test_from_common_numerators_zeros_are_shared():
    out = from_common_numerators([0, 3, 0, -6], 6)
    assert out[0] is ZERO and out[2] is ZERO
    assert out[1] == Fraction(1, 2) and out[3] == Fraction(-1)


def test_to_common_numerators_mixed_ints_and_fractions():
    values = [Fraction(1, 6), 2, Fraction(-3, 4), 0, Fraction(5, 10**20)]
    nums, den = to_common_numerators(values)
    assert den == 6 * 10**19  # lcm(6, 4, 2 * 10**19)
    assert all(type(n) is int for n in nums)
    assert [Fraction(n, den) for n in nums] == values


@given(st.lists(st.fractions(), max_size=30))
def test_to_common_numerators_round_trip(values):
    nums, den = to_common_numerators(values)
    assert from_common_numerators(nums, den) == values


@pytest.mark.parametrize(
    "text, value",
    [("3/2", Fraction(3, 2)), (" 0.25 ", Fraction(1, 4)), ("-7", Fraction(-7))],
)
def test_rat_parses_strings_exactly(text, value):
    got = rat(text)
    assert got == value and type(got) is Fraction


def test_rat_refuses_floats():
    with pytest.raises(TypeError):
        rat(0.5)


@pytest.mark.parametrize("text", ["1/0", "-3/0", " 0/0 "])
def test_rat_zero_denominator_is_value_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        rat(text)


@given(st.fractions())
def test_rat_str_round_trips(q):
    text = rat_str(q)
    assert "/" in text
    assert rat(text) == q
