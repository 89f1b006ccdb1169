"""Exact algebra on subset-indexed tail-dependence coefficient systems.

Three equivalent coordinate systems describe the extremal dependence of a
p-variate max-stable vector, each a real-valued function on the nonempty
subsets of {1, ..., p}:

* ``beta(J)``  -- nonnegative atom weights, one per subset J,
* ``lambda(L)`` -- joint tail-dependence coefficients,
  ``lambda(L) = sum of beta(J) over J containing L``,
* ``theta(K)`` -- extremal coefficients,
  ``theta(K) = sum of beta(J) over J meeting K``.

This module stores such functions densely (index = subset bitmask) and
converts between the three systems in every direction with O(p * 2**p)
lattice transforms, exactly over rationals.  Exactness matters: the
inversion formulas alternate signs and cancel catastrophically in floating
point precisely near the realizability boundary, which is where the answers
are interesting.

A nonnegative ``beta`` always induces valid ``lambda``/``theta`` systems;
the converse direction can produce negative ``beta`` entries, which is
reported (kind ``RAW``), never raised -- the sign pattern *is* the answer
to realizability questions.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from functools import lru_cache, reduce
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidBeta, InvalidTdMatrix, SizeLimitError
from .rationals import (
    Rat,
    RatLike,
    ZERO,
    from_common_numerators,
    rat,
    to_common_numerators,
)
from .subsets import canonical_cuts, set_str

HARD_MAX_P = 26


def check_dimension(p: int) -> None:
    if p < 1:
        raise SizeLimitError(f"dimension must be >= 1, got {p}")
    if p > HARD_MAX_P:
        raise SizeLimitError(
            f"p={p} exceeds the hard cap {HARD_MAX_P} (2**p array storage)"
        )


class Kind(Enum):
    BETA = "beta"
    LAMBDA = "lambda"
    THETA = "theta"
    RAW = "raw"


_INT64_MAX = (1 << 63) - 1


def _store(nums) -> tuple[np.ndarray, int]:
    """Integer numerators as a read-only array, and its least entry (0 when
    empty): int64 when sum(|nums|) fits in int64, an object array of
    Python ints otherwise.

    Every entry at every level of a lattice butterfly, every partial sum of
    its int64 product (`_butterfly`), and every ``total - x`` of
    `theta_from_beta`, is a signed sum of distinct inputs, so no value
    exceeds sum(|nums|): an int64 array goes through any transform with
    exact machine adds.  ``nums`` is a list or a fresh array that nothing
    else writes.
    """
    try:
        arr = np.asarray(nums, dtype=np.int64)
    except OverflowError:  # an entry beyond int64, so the sum is too
        arr = np.asarray(nums, dtype=object)
        least = arr.min()
    else:
        least, most = (int(arr.min()), int(arr.max())) if arr.size else (0, 0)
        # n * max|x| bounds the sum at the cost of those two reductions
        if max(most, -least) * len(arr) > _INT64_MAX:
            if sum(map(abs, arr.tolist())) > _INT64_MAX:
                arr = arr.astype(object)
    arr.flags.writeable = False
    return arr, least


def _init(
    fn: "SubsetFn", p: int, kind: Kind, nums: np.ndarray, least: int, den: int, values=None
) -> None:
    """Fill a SubsetFn's slots: numerators as `_store` keeps them, with
    their least entry ``least``, over ``den`` > 0, and the rationals only
    when the caller passed them in; a BETA system must have no negative
    numerator."""
    if kind is Kind.BETA and least < 0:
        bad = (np.flatnonzero(nums < 0)[:8] + 1).tolist()
        raise InvalidBeta(
            "negative beta entries at subsets " + ", ".join(set_str(m) for m in bad)
        )
    object.__setattr__(fn, "p", p)
    object.__setattr__(fn, "kind", kind)
    object.__setattr__(fn, "_values", values)
    object.__setattr__(fn, "_nums", nums)
    object.__setattr__(fn, "_den", den)


class SubsetFn:
    """A function on the nonempty subsets of {1, ..., p}.

    ``values[J - 1]`` holds the value at the subset with bitmask J
    (bit k-1 set  <=>  component k in the subset).  Entries are exact
    rationals.  ``kind`` tags the coordinate system; kind BETA enforces
    nonnegativity at construction, kind RAW carries arbitrary signs
    (e.g. a failed inversion).

    Instances are immutable.  Every instance stores its values in one form:
    integer numerators over one common denominator ``den`` > 0, the form the
    lattice transforms compute in, as one read-only numpy array, ``int64``
    when the sum of the absolute numerators fits in int64 (so every
    transform of it is exact in machine adds) and ``object`` (Python ints)
    otherwise.  ``values`` is a cache derived from them: it is built on
    first read, and kept from construction only when the caller passed
    rationals in.  Item reads, ``support()`` and comparisons of instances
    over the same denominator build no rationals beyond the ones they
    return, so a chain such as beta -> lambda -> beta builds none for the
    middle system.
    """

    __slots__ = ("p", "kind", "_values", "_nums", "_den")

    def __init__(self, p: int, values: tuple, kind: Kind) -> None:
        check_dimension(p)
        n = (1 << p) - 1
        if len(values) != n:
            raise ValueError(f"expected {n} values for p={p}, got {len(values)}")
        nums, den = to_common_numerators(values)
        _init(self, p, kind, *_store(nums), den, values)

    @classmethod
    def _from_numerators(cls, p: int, nums, den: int, kind: Kind) -> "SubsetFn":
        """Wrap 2**p - 1 integer numerators over ``den`` > 0 (a list, or a
        fresh array that nothing else writes)."""
        fn = object.__new__(cls)
        _init(fn, p, kind, *_store(nums), den)
        return fn

    @property
    def values(self) -> tuple:
        if self._values is None:
            rats = from_common_numerators(self._nums.tolist(), self._den)
            object.__setattr__(self, "_values", tuple(rats))
        return self._values

    def _numerators(self) -> tuple[np.ndarray, int]:
        """(read-only array of numerators over a common denominator, that
        denominator)."""
        return self._nums, self._den

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.p != other.p or self.kind is not other.kind:
            return False
        if self._den == other._den:
            # n/d == m/d iff n == m: no rationals needed
            return np.array_equal(self._nums, other._nums)
        return self.values == other.values

    def __hash__(self) -> int:
        # equal systems agree once numerators and denominator are divided by
        # their gcd g, whatever denominator each stores; no rational is built
        nums, den = self._nums, self._den
        g_nums = int(np.gcd.reduce(nums))
        g = math.gcd(g_nums, den)
        reduced = nums // g if g_nums else nums  # all zero: g = den may pass int64
        return hash((self.p, self.kind, den // g, tuple(reduced.tolist())))

    def __repr__(self) -> str:
        return f"SubsetFn(p={self.p!r}, values={self.values!r}, kind={self.kind!r})"

    def __reduce__(self):
        return (SubsetFn, (self.p, self.values, self.kind))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_values(cls, p: int, values: Sequence[RatLike], kind: Kind) -> "SubsetFn":
        check_dimension(p)
        return cls(p, tuple(rat(v) for v in values), kind)

    @classmethod
    def from_entries(cls, p: int, entries: Mapping[int, RatLike], kind: Kind) -> "SubsetFn":
        """Build from a sparse {mask: value} mapping; missing subsets are 0."""
        check_dimension(p)
        for mask in entries:
            if not 1 <= mask < (1 << p):
                raise ValueError(f"subset mask {mask} out of range for p={p}")
        nums, den = to_common_numerators([rat(v) for v in entries.values()])
        full = [0] * ((1 << p) - 1)
        for mask, num in zip(entries, nums):
            full[mask - 1] = num
        return cls._from_numerators(p, full, den, kind)

    @classmethod
    def zeros(cls, p: int, kind: Kind) -> "SubsetFn":
        check_dimension(p)
        return cls._from_numerators(p, np.zeros((1 << p) - 1, dtype=np.int64), 1, kind)

    # -- access ------------------------------------------------------------

    def __getitem__(self, mask: int):
        if not 1 <= mask < (1 << self.p):
            raise KeyError(f"subset mask {mask} out of range for p={self.p}")
        # one numerator, not all 2**p - 1 rationals
        return from_common_numerators([self._nums.item(mask - 1)], self._den)[0]

    def entries(self) -> Iterator[tuple[int, Rat]]:
        for m, v in enumerate(self.values, start=1):
            yield m, v

    def support(self) -> tuple[tuple[int, Rat], ...]:
        """Nonzero values as ((mask, value), ...); builds a rational only
        for each nonzero entry."""
        where = np.flatnonzero(self._nums)
        rats = from_common_numerators(self._nums[where].tolist(), self._den)
        return tuple(zip((where + 1).tolist(), rats))

    def total(self) -> Rat:
        return rat(int(self._nums.sum()), self._den)

    def negative_masks(self) -> tuple[int, ...]:
        return tuple((np.flatnonzero(self._nums < 0) + 1).tolist())

    def with_kind(self, kind: Kind) -> "SubsetFn":
        fn = object.__new__(SubsetFn)
        _init(fn, self.p, kind, self._nums, self._nums.min(), self._den)
        return fn

    def scaled(self, factor: RatLike) -> "SubsetFn":
        """(a/b) * self as numerators * a over denominator * b (b > 0)."""
        c = rat(factor)
        a, b = int(c.numerator), int(c.denominator)
        # Python-int products cannot overflow; _store narrows them back to
        # int64 where they fit
        return SubsetFn._from_numerators(
            self.p, self._nums.astype(object) * a, self._den * b, self.kind
        )


def linear_combination(
    terms: Iterable[tuple[RatLike, SubsetFn]], kind: Kind
) -> SubsetFn:
    """Exact linear combination sum_t gamma_t * fn_t (common dimension)."""
    terms = [(rat(g), fn) for g, fn in terms]
    if not terms:
        raise ValueError("empty combination")
    p = terms[0][1].p
    if any(fn.p != p for _, fn in terms):
        raise ValueError("mixed dimensions in linear combination")
    acc = [ZERO] * ((1 << p) - 1)
    for g, fn in terms:
        for i, v in enumerate(fn.values):
            if v:
                acc[i] += g * v
    return SubsetFn(p, tuple(acc), kind)


# ---------------------------------------------------------------------------
# Lattice transforms.
#
# All four primitive transforms are addition-only butterflies over the full
# subset lattice (length 2**p, index 0 = empty set), so they preserve any
# common denominator.  Integer numerators over one denominator are the only
# form a SubsetFn stores, so a system stays in it from the first transform
# to the answer, and no transform reads or builds a rational: each
# transform copies its input's numerator array into a fresh full-lattice
# array, runs the butterfly on it, and wraps the nonempty part of the
# result as the new system, over the input's denominator
# (`SubsetFn._from_numerators`).  The array is int64 when the sum of the
# absolute numerators fits, which bounds every intermediate sum, and object
# otherwise (see `_store`).  With index = bitmask, the complement of mask m
# is fm - m, so reversing a full-lattice array maps each subset's entry to
# its complement's.
#
# Each butterfly level applies one 2x2 matrix M1 to one bit of the index,
# so a whole transform is the Kronecker power K = M1 (x) ... (x) M1 (p
# factors), and the levels are its fast product (Yates 1937).  Up to
# p = _KERNEL_P an int64 transform is one product K @ x instead: p ufunc
# calls of about 2 us each cost more than one small product there.  K's
# entries are 0 or +-1, so each partial sum of the product is a signed sum
# of distinct inputs, and the int64 bound above keeps it exact.
# ---------------------------------------------------------------------------

# The largest p whose int64 transforms run as one product with the cached
# K (`_butterfly`, `_kernel`): 7 is where the crossover table of
# `scripts/lattice_timings.py` puts it on a 2-CPU Xeon (BENCH_28.json).
_KERNEL_P = 7


def _full(nums: np.ndarray, *, complement: bool = False) -> np.ndarray:
    """A fresh full-lattice array: 0 at the empty set and ``nums`` at masks
    1..fm, or (``complement``) each numerator at its mask's complement, so
    mask fm holds 0."""
    full = np.empty(len(nums) + 1, dtype=nums.dtype)
    if complement:
        full[:-1] = nums[::-1]
        full[-1] = 0
    else:
        full[0] = 0
        full[1:] = nums
    return full


def _butterfly(
    arr: np.ndarray, p: int, op: np.ufunc, *, superset: bool, swap: bool = False
) -> np.ndarray:
    """Lattice transform of a full-lattice array; returns the result, which
    is a new array on the product path and ``arr`` itself, transformed in
    place, on the level path, so callers read the return value.

    Level i pairs each mask S without bit i (``lo``) with S + bit i
    (``hi``) and writes ``op(w, o)``, or ``op(o, w)`` with ``swap``, into
    the written half w: ``lo`` when ``superset``, ``hi`` otherwise; o is
    the other half.  np.add gives the superset / subset sums, np.subtract
    their Moebius inverses, and np.subtract with swap (hi <- lo - hi)
    g(K) = sum_{L <= K} (-1)^{|L|} f(L).

    Every level applies the same 2x2 matrix M1 to its bit, so the transform
    is K @ arr with K = M1^{(x) p}, the Kronecker power (`_kernel`).  An
    int64 array with p <= _KERNEL_P and op np.add or np.subtract takes that
    one product: every entry of K is 0 or +-1 and each row adds distinct
    inputs with signs, so every partial sum, in any order, is bounded by
    sum(|arr|) <= 2**63 - 1 (`_store`), and the int64 product is exact.
    It is faster up to p = 7 and slower from p = 8 (2-CPU Xeon, numpy 2.4:
    9.1 against 16.2 us at p = 7, 34 against 19 us at p = 8).  Object
    arrays, other ops and larger p run the levels (`_levels`).
    """
    if p <= _KERNEL_P and arr.dtype == np.int64 and (op is np.add or op is np.subtract):
        return _kernel(p, op, superset, swap) @ arr
    return _levels(arr, p, op, superset=superset, swap=swap)


@lru_cache(maxsize=None)
def _kernel(p: int, op: np.ufunc, superset: bool, swap: bool) -> np.ndarray:
    """The read-only 2**p x 2**p int64 matrix K of one transform, K @ x =
    `_levels` of x: the p-th Kronecker power of M1, the matrix of one level,
    read off one level run on the rows of the 2 x 2 identity (row j becomes
    M1 e_j).  Built on first use; p <= _KERNEL_P keeps about 0.7 MB in all."""
    m1 = _levels(np.eye(2, dtype=np.int64), 1, op, superset=superset, swap=swap).T
    kernel = reduce(np.kron, [m1] * p, np.ones((1, 1), dtype=np.int64))
    kernel.flags.writeable = False
    return kernel


def _levels(
    arr: np.ndarray, p: int, op: np.ufunc, *, superset: bool, swap: bool = False
) -> np.ndarray:
    """The butterfly of `_butterfly` level by level, in place; returns arr.
    A 2-D array in order "C" is transformed row by row.

    Each level is one ufunc call on two disjoint views of runs of 2**i
    adjacent entries.  numpy's inner loop follows the runs (order "C")
    from 2**i = 16 up, but runs of at most 8, one int64 cache line, are
    walked along the blocks (order "F"), so each inner loop is long.
    Past numpy's default ufunc buffer of 8192 entries (p >= 14), numpy
    stages runs of 32 to 4096 through that buffer unless it is one run
    long, so levels 5..12 set it to 2**i (a 16-entry one slowed level 4).
    Level 13 on, and the caller after a return or a raise, see the
    caller's size again (numpy keeps it per thread; from numpy 2 in a
    context variable).  At p = 16 (2-CPU Xeon, numpy 2.4, BENCH_25.json)
    levels 6..11 took 18..6 us against 32..22 us, a butterfly 300 us
    against 392 us.
    """
    caller = np.getbufsize() if len(arr) > 8192 else None
    try:
        for i in range(p):
            if caller and 5 <= i <= 13:
                np.setbufsize(1 << i if i < 13 else caller)
            block = arr.reshape(-1, 2, 1 << i)
            lo, hi = block[:, 0], block[:, 1]
            w, o = (lo, hi) if superset else (hi, lo)
            args = (o, w) if swap else (w, o)
            op(*args, out=w, order="F" if i < 4 else "C")
    finally:
        if caller:
            np.setbufsize(caller)
    return arr


def _require_kind(fn: SubsetFn, expected: Kind, op: str) -> None:
    if fn.kind is not expected:
        raise ValueError(f"{op} expects a {expected.value}-kind input, got {fn.kind.value}")


def _tag_beta(p: int, nums: np.ndarray, den: int) -> SubsetFn:
    """Tag an inversion result given as numerators over ``den`` > 0:
    BETA when nonnegative, RAW otherwise, by the least entry `_store`
    reads."""
    nums, least = _store(nums)
    fn = object.__new__(SubsetFn)
    _init(fn, p, Kind.RAW if least < 0 else Kind.BETA, nums, least, den)
    return fn


# -- beta -> lambda / theta -------------------------------------------------


def lambda_from_beta(beta: SubsetFn) -> SubsetFn:
    """lambda(L) = sum of beta(J) over supersets J of L (superset-sum transform)."""
    if beta.kind is not Kind.BETA:
        raise InvalidBeta(f"lambda_from_beta expects kind beta, got {beta.kind.value}")
    nums, den = beta._numerators()
    full = _butterfly(_full(nums), beta.p, np.add, superset=True)
    return SubsetFn._from_numerators(beta.p, full[1:], den, Kind.LAMBDA)


def theta_from_beta(beta: SubsetFn) -> SubsetFn:
    """theta(K) = total(beta) - sum of beta(J) over J inside the complement of K.

    One superset-sum transform on the complement lattice.
    """
    if beta.kind is not Kind.BETA:
        raise InvalidBeta(f"theta_from_beta expects kind beta, got {beta.kind.value}")
    nums, den = beta._numerators()
    # mask K sums beta over the subsets of K's complement, mask 0 is the total
    full = _butterfly(_full(nums, complement=True), beta.p, np.add, superset=True)
    theta = full[1:]
    return SubsetFn._from_numerators(
        beta.p, np.subtract(full[0], theta, out=theta), den, Kind.THETA
    )


# -- lambda / theta -> beta (Moebius inversions) -----------------------------


def beta_from_lambda(lam: SubsetFn) -> SubsetFn:
    """Invert the superset-sum transform: alternating-sign sum over supersets.

    The input need not be a valid coefficient system; a negative result is
    tagged kind RAW and localized via ``negative_masks()``.
    """
    _require_kind(lam, Kind.LAMBDA, "beta_from_lambda")
    nums, den = lam._numerators()
    full = _butterfly(_full(nums), lam.p, np.subtract, superset=True)
    return _tag_beta(lam.p, full[1:], den)


def beta_from_theta(theta: SubsetFn) -> SubsetFn:
    """Invert theta to atom weights on the complement lattice.

    Substituting K = J^c union M (M inside J) in the alternating sum over
    all K covering J^c turns it into a subset Moebius transform of
    K |-> theta(complement of K), with theta(empty) = 0:

        beta(J) = - sum_{R <= J} (-1)^{|J \\ R|} theta([p] \\ R).
    """
    _require_kind(theta, Kind.THETA, "beta_from_theta")
    nums, den = theta._numerators()
    g = _butterfly(_full(nums, complement=True), theta.p, np.subtract, superset=False)[1:]
    return _tag_beta(theta.p, np.negative(g, out=g), den)


# -- theta <-> lambda (inclusion-exclusion) ----------------------------------


def _signed_subset_sum(fn: SubsetFn, out_kind: Kind) -> SubsetFn:
    """g(K) = sum over nonempty L <= K of (-1)^(|L|-1) f(L).

    Both inclusion-exclusion directions between theta and lambda are this
    same involution.  The butterfly with hi <- lo - hi sums
    (-1)^{|L|} f(L), so one negation finishes it.
    """
    nums, den = fn._numerators()
    g = _butterfly(_full(nums), fn.p, np.subtract, superset=False, swap=True)[1:]
    return SubsetFn._from_numerators(fn.p, np.negative(g, out=g), den, out_kind)


def theta_from_lambda(lam: SubsetFn) -> SubsetFn:
    _require_kind(lam, Kind.LAMBDA, "theta_from_lambda")
    return _signed_subset_sum(lam, Kind.THETA)


def lambda_from_theta(theta: SubsetFn) -> SubsetFn:
    _require_kind(theta, Kind.THETA, "lambda_from_theta")
    return _signed_subset_sum(theta, Kind.LAMBDA)


# ---------------------------------------------------------------------------
# Validation checks (invariants of systems that derive from beta >= 0; these
# are diagnostics, not constructor constraints).  A system has one
# denominator > 0 for all its values, so the checks compare numerators and
# build no rational.
# ---------------------------------------------------------------------------


def _violation_pairs(table: np.ndarray, p: int) -> list[tuple[int, int]]:
    """(mask, mask | 1 << i) for each true cell (mask - 1, i) of ``table``,
    and (mask, 0) for a true cell in its column p, if it has one; mask by
    mask, and column by column within a mask."""
    rows, cols = np.nonzero(table)
    masks = rows + 1
    partners = np.where(cols < p, masks | np.left_shift(1, cols), 0)
    return list(zip(masks.tolist(), partners.tolist()))


def lambda_violations(lam: SubsetFn) -> list[tuple[int, int]]:
    """Pairs (L, L + one element) where lambda increases under the superset."""
    nums, _ = lam._numerators()
    masks = np.arange(1, 1 << lam.p)
    grows = np.empty((masks.size, lam.p), dtype=bool)
    for i in range(lam.p):
        # a bit already in L gives L | bit = L, which never increases
        np.less(nums, nums[(masks | 1 << i) - 1], out=grows[:, i])
    return _violation_pairs(grows, lam.p)


def theta_violations(theta: SubsetFn) -> list[tuple[int, int]]:
    """Superset-monotonicity and singleton-subadditivity failures of theta.

    Returns (K, K') pairs with theta(K) > theta(K') for K inside K', plus
    (K, 0) markers when theta(K) exceeds the sum of its singleton values.
    """
    nums, _ = theta._numerators()
    p = theta.p
    masks = np.arange(1, 1 << p)
    table = np.empty((masks.size, p + 1), dtype=bool)
    # int64 numerators have an int64 sum of absolute values, so no
    # singleton sum overflows; object ones are Python ints
    singleton_sum = np.zeros(masks.size, dtype=nums.dtype)
    for i in range(p):
        bit = 1 << i
        np.greater(nums, nums[(masks | bit) - 1], out=table[:, i])
        singleton_sum[(masks & bit) != 0] += nums[bit - 1]
    np.greater(nums, singleton_sum, out=table[:, p])
    return _violation_pairs(table, p)


# ---------------------------------------------------------------------------
# Bivariate marginal matrix.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TdMatrix:
    """Symmetric p x p matrix of bivariate coefficients.

    Off-diagonal entry (i, j) is lambda({i+1, j+1}); diagonal entry (i, i)
    is the marginal scale lambda({i+1}).  Invariants: symmetry, nonnegative
    entries, each off-diagonal bounded by both incident diagonals.
    """

    p: int
    lam: tuple

    def __post_init__(self) -> None:
        if self.p < 1 or len(self.lam) != self.p:
            raise InvalidTdMatrix(f"expected {self.p} rows")
        for i, row in enumerate(self.lam):
            if len(row) != self.p:
                raise InvalidTdMatrix(f"row {i} has length {len(row)} != {self.p}")
        for i in range(self.p):
            if self.lam[i][i] < 0:
                raise InvalidTdMatrix(f"negative diagonal at {i + 1}")
            for j in range(i + 1, self.p):
                v = self.lam[i][j]
                if v != self.lam[j][i]:
                    raise InvalidTdMatrix(f"asymmetry at ({i + 1},{j + 1})")
                if v < 0:
                    raise InvalidTdMatrix(f"negative entry at ({i + 1},{j + 1})")
                if v > self.lam[i][i] or v > self.lam[j][j]:
                    raise InvalidTdMatrix(
                        f"lambda({i + 1},{j + 1}) exceeds a marginal scale"
                    )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RatLike]]) -> "TdMatrix":
        return cls(len(rows), tuple(tuple(rat(v) for v in row) for row in rows))

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self.lam[i][j]

    def has_unit_diagonal(self) -> bool:
        return all(self.lam[i][i] == 1 for i in range(self.p))


def td_matrix(lam: SubsetFn) -> TdMatrix:
    """Bivariate restriction of a full lambda system."""
    _require_kind(lam, Kind.LAMBDA, "td_matrix")
    p = lam.p
    rows = []
    for i in range(p):
        row = []
        for j in range(p):
            mask = (1 << i) | (1 << j)
            row.append(lam[mask])
        rows.append(tuple(row))
    return TdMatrix(p, tuple(rows))


def spectral_distance_entry(td: TdMatrix, i: int, j: int) -> Rat:
    """d(i, j) = lambda(i) + lambda(j) - 2 lambda(i, j), 0-based indices."""
    if i == j:
        return ZERO
    return td.lam[i][i] + td.lam[j][j] - 2 * td.lam[i][j]


# ---------------------------------------------------------------------------
# Pair-by-subset incidence: lambda_ij sums beta over the subsets covering
# {i, j}, and a spectral distance d_ij sums cut weights over the cuts
# separating i and j.  Every pair sum in the package, from the
# realizability systems to their certificates, is one integer pairing of
# numerators with this 0/1 matrix (one row per pair, one column per mask).
# ---------------------------------------------------------------------------


def tdr_rows(p: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(p) for j in range(i, p)]


def sdr_rows(p: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(p) for j in range(i + 1, p)]


def _covers(has_i: np.ndarray, has_j: np.ndarray) -> np.ndarray:
    """TDR: a subset covers the pair (i, j) when it contains both ends."""
    return has_i & has_j


def _separates(has_i: np.ndarray, has_j: np.ndarray) -> np.ndarray:
    """SDR: a cut separates the pair (i, j) when it contains one end only."""
    return has_i != has_j


def _incidence(hits: Callable, pairs: Sequence, masks: Sequence[int]) -> np.ndarray:
    """Read-only 0/1 int64 matrix, one row per pair (i, j) and one column
    per mask: 1 where ``hits`` (``_covers`` or ``_separates``) reports the
    mask on the pair, given boolean rows of which masks contain i and j."""
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    components = np.arange(int(ends.max(initial=-1)) + 1)[:, None]
    has = (np.array(masks, dtype=np.int64) >> components & 1).astype(bool)
    A = hits(has[ends[:, 0]], has[ends[:, 1]]).astype(np.int64)
    A.flags.writeable = False
    return A


def _pairings(nums: Sequence[int], incidence: np.ndarray) -> np.ndarray:
    """nums' A for a 0/1 int64 matrix A (``_incidence``), exactly.

    int64 when sum(|nums|) fits (``_store``): no partial sum of a 0/1
    combination can exceed it.  Python ints otherwise.  ``einsum`` rather
    than ``@``: on the wide cut incidences int64 ``@`` was 1.2x slower at
    p = 12 and 4x slower at p = 16 (numpy 2.4), and ``einsum`` is exact on
    object arrays too.
    """
    return np.einsum("i,ij->j", _store(nums)[0], incidence)


def _stray_column(ys: Sequence[int], incidence: np.ndarray, *, floor=None, ceiling=None):
    """The one dual-certificate check: the first column j of a 0/1
    incidence whose pairing (ys'A)_j (``_pairings``) is below ``floor`` or
    above ``ceiling`` (one int or one per column; None: open), else None."""
    loads = _pairings(ys, incidence)
    stray = np.zeros(loads.shape, dtype=bool) if floor is None else loads < floor
    if ceiling is not None:
        stray |= loads > ceiling
    first = np.flatnonzero(stray)
    return int(first[0]) if first.size else None


# A is read-only and a function of p alone, so each problem shares one per
# p.  Two per problem: a caller alternating two dimensions keeps both, and
# p = 16 pins one 31 MB cut incidence, not a growing set.
@lru_cache(maxsize=2)
def _tdr_incidence(p: int) -> np.ndarray:
    return _incidence(_covers, tdr_rows(p), range(1, 1 << p))


@lru_cache(maxsize=2)
def _cut_incidence(p: int) -> np.ndarray:
    return _incidence(_separates, sdr_rows(p), canonical_cuts(p))


__all__ = [
    "HARD_MAX_P",
    "check_dimension",
    "Kind",
    "SubsetFn",
    "TdMatrix",
    "linear_combination",
    "lambda_from_beta",
    "theta_from_beta",
    "beta_from_lambda",
    "beta_from_theta",
    "theta_from_lambda",
    "lambda_from_theta",
    "lambda_violations",
    "theta_violations",
    "td_matrix",
    "spectral_distance_entry",
]
