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

from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

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
from .subsets import set_str

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


def _store(nums) -> np.ndarray:
    """Integer numerators as a read-only array: int64 when sum(|nums|) fits
    in int64, an object array of Python ints otherwise.

    Every entry at every level of a lattice butterfly is a signed sum of
    distinct inputs, so no value exceeds sum(|nums|): an int64 array goes
    through any transform with exact machine adds.  ``nums`` is a list or a
    fresh array that nothing else writes.
    """
    try:
        arr = np.asarray(nums, dtype=np.int64)
    except OverflowError:  # an entry beyond int64, so the sum is too
        arr = np.asarray(nums, dtype=object)
    else:
        # n * max|x| bounds the sum at the cost of two reductions
        if arr.size and max(int(arr.max()), -int(arr.min())) * len(arr) > _INT64_MAX:
            if sum(map(abs, arr.tolist())) > _INT64_MAX:
                arr = arr.astype(object)
    arr.flags.writeable = False
    return arr


def _numerators_of(values: Sequence[RatLike]) -> tuple[np.ndarray, int]:
    nums, den = to_common_numerators(values)
    return _store(nums), den


def _init(fn: "SubsetFn", p: int, kind: Kind, values, nums, den) -> None:
    """Fill a SubsetFn's slots; a BETA system must have no negative numerator."""
    if kind is Kind.BETA:
        if nums is None:
            nums, den = _numerators_of(values)
        if nums.min() < 0:
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

    Instances are immutable.  Alongside (or instead of) the rationals an
    instance keeps its values as integer numerators over one common
    denominator ``den`` > 0, the form the lattice transforms compute in: one
    read-only numpy array, ``int64`` when the sum of the absolute
    numerators fits in int64 (so every transform of it is exact in machine
    adds) and ``object`` (Python ints) otherwise.  A transform's result has
    its input's denominator, so it only wraps the array its butterfly
    produced; its rationals are built from ``nums.tolist()`` when ``values``
    is first read, so a chain such as beta -> lambda -> beta builds none for
    the middle system.  Two instances holding numerators over the same
    denominator compare their numerators.
    """

    __slots__ = ("p", "kind", "_values", "_nums", "_den")

    def __init__(self, p: int, values: tuple, kind: Kind) -> None:
        check_dimension(p)
        n = (1 << p) - 1
        if len(values) != n:
            raise ValueError(f"expected {n} values for p={p}, got {len(values)}")
        # BETA's sign check reads the integer numerators, which every
        # transform of this system needs next
        _init(self, p, kind, values, None, None)

    @classmethod
    def _from_numerators(cls, p: int, nums, den: int, kind: Kind) -> "SubsetFn":
        """Wrap 2**p - 1 integer numerators over ``den`` > 0 (a list, or a
        fresh array that nothing else writes); the rationals are built on
        first read of ``values``."""
        fn = object.__new__(cls)
        _init(fn, p, kind, None, _store(nums), den)
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
        if self._nums is None:
            nums, den = _numerators_of(self._values)
            object.__setattr__(self, "_nums", nums)
            object.__setattr__(self, "_den", den)
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
        if self._nums is not None and other._nums is not None and self._den == other._den:
            # n/d == m/d iff n == m: no rationals needed
            return np.array_equal(self._nums, other._nums)
        return self.values == other.values

    def __hash__(self) -> int:
        return hash((self.p, self.values, self.kind))

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
        vals = [ZERO] * ((1 << p) - 1)
        for mask, v in entries.items():
            if not 1 <= mask < (1 << p):
                raise ValueError(f"subset mask {mask} out of range for p={p}")
            vals[mask - 1] = rat(v)
        return cls(p, tuple(vals), kind)

    @classmethod
    def zeros(cls, p: int, kind: Kind) -> "SubsetFn":
        check_dimension(p)
        return cls(p, ((ZERO,) * ((1 << p) - 1)), kind)

    # -- access ------------------------------------------------------------

    def __getitem__(self, mask: int):
        if not 1 <= mask < (1 << self.p):
            raise KeyError(f"subset mask {mask} out of range for p={self.p}")
        if self._values is None:
            # one numerator, not all 2**p - 1 rationals
            return from_common_numerators([self._nums.item(mask - 1)], self._den)[0]
        return self._values[mask - 1]

    def entries(self) -> Iterator[tuple[int, Rat]]:
        for m, v in enumerate(self.values, start=1):
            yield m, v

    def support(self) -> tuple[tuple[int, Rat], ...]:
        values = self.values
        masks = np.flatnonzero(self._numerators()[0]).tolist()
        return tuple((m + 1, values[m]) for m in masks)

    def total(self) -> Rat:
        nums, den = self._numerators()
        return rat(int(nums.sum()), den)

    def negative_masks(self) -> tuple[int, ...]:
        return tuple((np.flatnonzero(self._numerators()[0] < 0) + 1).tolist())

    def with_kind(self, kind: Kind) -> "SubsetFn":
        fn = object.__new__(SubsetFn)
        _init(fn, self.p, kind, self._values, self._nums, self._den)
        return fn

    def scaled(self, factor: RatLike) -> "SubsetFn":
        """(a/b) * self as numerators * a over denominator * b (b > 0)."""
        c = rat(factor)
        a, b = int(c.numerator), int(c.denominator)
        nums, den = self._numerators()
        # Python-int products cannot overflow; _store narrows them back to
        # int64 where they fit
        return SubsetFn._from_numerators(
            self.p, nums.astype(object) * a, den * b, self.kind
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
# common denominator.  A system's values therefore stay integer numerators
# over one denominator from the first transform to the answer: each
# transform copies its input's numerator array into a fresh full-lattice
# array, runs the butterfly on it in place, and wraps the nonempty part as
# the result, over the input's denominator (`SubsetFn._from_numerators`).
# The array is int64 when the sum of the absolute numerators fits, which
# bounds every intermediate sum, and object otherwise (see `_store`).  With
# index = bitmask, the complement of mask m is fm - m, so reversing a
# full-lattice array maps each subset's entry to its complement's.
# ---------------------------------------------------------------------------


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


def _butterfly(arr: np.ndarray, p: int, *, superset: bool, invert: bool) -> np.ndarray:
    """Zeta / Moebius transform of a full-lattice array, in place; returns it.

    superset=True:  g(S) = sum_{T >= S} f(T)   (invert: alternating signs)
    superset=False: g(S) = sum_{T <= S} f(T)   (invert: alternating signs)

    The block loop runs in numpy; the halves combined at each level are
    disjoint views, so the in-place ops are safe.
    """
    for i in range(p):
        block = arr.reshape(-1, 2, 1 << i)
        if superset:
            if invert:
                block[:, 0, :] -= block[:, 1, :]
            else:
                block[:, 0, :] += block[:, 1, :]
        else:
            if invert:
                block[:, 1, :] -= block[:, 0, :]
            else:
                block[:, 1, :] += block[:, 0, :]
    return arr


def _require_kind(fn: SubsetFn, expected: Kind, op: str) -> None:
    if fn.kind is not expected:
        raise ValueError(f"{op} expects a {expected.value}-kind input, got {fn.kind.value}")


def _tag_beta(p: int, nums: np.ndarray, den: int) -> SubsetFn:
    """Tag an inversion result given as numerators over ``den`` > 0:
    BETA when nonnegative, RAW otherwise."""
    kind = Kind.RAW if nums.min() < 0 else Kind.BETA
    return SubsetFn._from_numerators(p, nums, den, kind)


# -- beta -> lambda / theta -------------------------------------------------


def lambda_from_beta(beta: SubsetFn) -> SubsetFn:
    """lambda(L) = sum of beta(J) over supersets J of L (superset-sum transform)."""
    if beta.kind is not Kind.BETA:
        raise InvalidBeta(f"lambda_from_beta expects kind beta, got {beta.kind.value}")
    nums, den = beta._numerators()
    full = _butterfly(_full(nums), beta.p, superset=True, invert=False)
    return SubsetFn._from_numerators(beta.p, full[1:], den, Kind.LAMBDA)


def theta_from_beta(beta: SubsetFn) -> SubsetFn:
    """theta(K) = total(beta) - sum of beta(J) over J inside the complement of K.

    One subset-sum transform on the complement lattice.
    """
    if beta.kind is not Kind.BETA:
        raise InvalidBeta(f"theta_from_beta expects kind beta, got {beta.kind.value}")
    nums, den = beta._numerators()
    full = _butterfly(_full(nums), beta.p, superset=False, invert=False)
    # masks 1..fm read the sums at their complements fm-1..0
    return SubsetFn._from_numerators(beta.p, full[-1] - full[-2::-1], den, Kind.THETA)


# -- lambda / theta -> beta (Moebius inversions) -----------------------------


def beta_from_lambda(lam: SubsetFn) -> SubsetFn:
    """Invert the superset-sum transform: alternating-sign sum over supersets.

    The input need not be a valid coefficient system; a negative result is
    tagged kind RAW and localized via ``negative_masks()``.
    """
    _require_kind(lam, Kind.LAMBDA, "beta_from_lambda")
    nums, den = lam._numerators()
    full = _butterfly(_full(nums), lam.p, superset=True, invert=True)
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
    g = _butterfly(_full(nums, complement=True), theta.p, superset=False, invert=True)[1:]
    return _tag_beta(theta.p, np.negative(g, out=g), den)


# -- theta <-> lambda (inclusion-exclusion) ----------------------------------


def _even_masks(p: int) -> np.ndarray:
    """Boolean array over masks 0..2**p - 1: True where |mask| is even."""
    even = np.ones(1, dtype=bool)
    for _ in range(p):
        # setting the next bit flips the parity
        even = np.concatenate([even, ~even])
    return even


def _signed_subset_sum(fn: SubsetFn, out_kind: Kind) -> SubsetFn:
    """g(K) = sum over nonempty L <= K of (-1)^(|L|-1) f(L).

    Both inclusion-exclusion directions between theta and lambda are this
    same involution.
    """
    p = fn.p
    nums, den = fn._numerators()
    signed = _full(nums)
    np.negative(signed, out=signed, where=_even_masks(p))
    full = _butterfly(signed, p, superset=False, invert=False)
    return SubsetFn._from_numerators(p, full[1:], den, out_kind)


def theta_from_lambda(lam: SubsetFn) -> SubsetFn:
    _require_kind(lam, Kind.LAMBDA, "theta_from_lambda")
    return _signed_subset_sum(lam, Kind.THETA)


def lambda_from_theta(theta: SubsetFn) -> SubsetFn:
    _require_kind(theta, Kind.THETA, "lambda_from_theta")
    return _signed_subset_sum(theta, Kind.LAMBDA)


# ---------------------------------------------------------------------------
# Validation checks (invariants of systems that derive from beta >= 0; these
# are diagnostics, not constructor constraints).
# ---------------------------------------------------------------------------


def lambda_violations(lam: SubsetFn) -> list[tuple[int, int]]:
    """Pairs (L, L + one element) where lambda increases under the superset."""
    out = []
    for mask in range(1, 1 << lam.p):
        v = lam.values[mask - 1]
        for i in range(lam.p):
            bit = 1 << i
            if not mask & bit:
                if v < lam.values[(mask | bit) - 1]:
                    out.append((mask, mask | bit))
    return out


def theta_violations(theta: SubsetFn) -> list[tuple[int, int]]:
    """Superset-monotonicity and singleton-subadditivity failures of theta.

    Returns (K, K') pairs with theta(K) > theta(K') for K inside K', plus
    (K, 0) markers when theta(K) exceeds the sum of its singleton values.
    """
    out = []
    for mask in range(1, 1 << theta.p):
        v = theta.values[mask - 1]
        singleton_sum = ZERO
        for i in range(theta.p):
            bit = 1 << i
            if mask & bit:
                singleton_sum += theta.values[bit - 1]
            elif v > theta.values[(mask | bit) - 1]:
                out.append((mask, mask | bit))
        if v > singleton_sum:
            out.append((mask, 0))
    return out


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
