"""Exact rational numbers.

Everything user-facing in this package that claims exactness is a `Rat`,
which is the stdlib ``fractions.Fraction``.  The hot loops (the lattice
transforms, the simplex in ``lp``, the subset-sum tables in ``tm``) run on
plain integers over a common denominator; the helpers here convert
between those integers and `Rat` values at the API boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Sequence, Union

Rat = Fraction

RatLike = Union[int, str, Fraction]

ZERO = Rat(0)


def rat(value: RatLike, den: int | None = None) -> Rat:
    """Coerce ``value`` (int, Fraction, or string) to a `Rat`.

    Strings accept both "num/den" and decimal forms ("3/2", "0.25", "7");
    decimal strings are parsed exactly in base 10.  A string with a zero
    denominator raises ``ValueError``, like any other malformed string.
    """
    if den is not None:
        return Rat(value, den)
    if type(value) is Rat:
        return value  # immutable, so no copy (a subclass still converts)
    if isinstance(value, str):
        try:
            return Rat(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in rational {value!r}") from None
    if isinstance(value, float):
        raise TypeError(
            "refusing to coerce float to exact rational; pass a string, "
            "Fraction, or int instead"
        )
    return Rat(value)


def rat_str(q: RatLike) -> str:
    """Serialize exactly as "num/den" (always with an explicit denominator)."""
    q = rat(q)
    return f"{q.numerator}/{q.denominator}"


def to_common_numerators(values: Sequence[RatLike]) -> tuple[list, int]:
    """Return (numerators over a common denominator D, D).

    Addition-only lattice transforms run much faster on plain integers than
    on rationals, and they preserve any common denominator; the simplex
    scales its constraint matrix and right-hand side to integers with it.
    Plain ints are accepted alongside rationals (their denominator is 1).
    Denominators in real inputs repeat heavily, so the per-denominator
    scale factors are computed once each.
    """
    # one method call per value reads both parts (two property reads on a
    # Fraction cost about twice as much)
    pairs = [v.as_integer_ratio() for v in values]
    dens = {d for _, d in pairs}
    den = reduce(math.lcm, dens, 1)
    scale = {d: den // d for d in dens}
    return [n * scale[d] for n, d in pairs], den


_new_object = object.__new__


def _reduced(num: int, den: int) -> Rat:
    """Build num/den from coprime ints with den > 0, skipping normalization.

    ``Fraction(num, den)`` re-checks its argument types and takes the gcd
    again in Python, about 3x the cost of filling the two slots directly
    (Python 3.12 ships the same shortcut as ``Fraction._from_coprime_ints``).
    """
    q = _new_object(Fraction)
    q._numerator = num
    q._denominator = den
    return q


def from_common_numerators(nums: Sequence, den: int) -> list:
    """Return the rationals n/den for integer numerators n over ``den`` > 0."""
    gcd = math.gcd
    out = []
    for n in nums:
        if n:
            g = gcd(n, den)
            out.append(_reduced(n // g, den // g))
        else:
            # zeros are common in coefficient arrays: share one object
            out.append(ZERO)
    return out
