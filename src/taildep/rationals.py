"""Exact rational arithmetic backend.

Everything user-facing in this package that claims exactness is carried by
the rational type `Rat` defined here.  We prefer ``gmpy2.mpq`` (C-backed,
roughly 5x faster than ``fractions.Fraction`` on the subset-lattice
transforms) and fall back to the stdlib ``Fraction`` when gmpy2 is not
installed.  Both types interoperate with each other and with ints, so
callers may pass either.  The simplex in ``lp`` pivots on plain integers
and builds `Rat` values only for its answers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence, Union

try:
    from gmpy2 import mpq as _mpq

    Rat = _mpq
    _HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    Rat = Fraction
    _HAVE_GMPY2 = False

RatLike = Union[int, str, Fraction, "Rat"]

ZERO = Rat(0)
ONE = Rat(1)


def rat(value: RatLike, den: int | None = None) -> Rat:
    """Coerce ``value`` (int, Fraction, mpq, or string) to a `Rat`.

    Strings accept both "num/den" and decimal forms ("3/2", "0.25", "7");
    decimal strings are parsed exactly in base 10.
    """
    if den is not None:
        return Rat(value, den)
    if isinstance(value, str):
        return Rat(Fraction(value.strip()))
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


def as_fraction(q: RatLike) -> Fraction:
    q = rat(q)
    return Fraction(int(q.numerator), int(q.denominator))


def common_denominator(values: Iterable[RatLike]) -> int:
    return reduce(math.lcm, (int(rat(v).denominator) for v in values), 1)


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
    den = reduce(math.lcm, (int(d) for d in dens), 1)
    scale = {d: den // int(d) for d in dens}
    if _HAVE_GMPY2:
        # plain Python ints: numpy object arrays build ~50x faster from them
        # than from gmpy2 integers, and the butterflies add them just as fast
        return [int(n) * scale[d] for n, d in pairs], den
    return [n * scale[d] for n, d in pairs], den


if _HAVE_GMPY2:

    def _reduced(num: int, den: int) -> Rat:
        return Rat(num, den)

else:
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
