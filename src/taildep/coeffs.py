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

import os
from dataclasses import dataclass
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
from .subsets import full_mask, set_str

HARD_MAX_P = 26
DEFAULT_SOFT_MAX_P = 16


def soft_max_p() -> int:
    """Soft dimension guard; override with the TAILDEP_MAX_P env variable."""
    env = os.environ.get("TAILDEP_MAX_P")
    return int(env) if env else DEFAULT_SOFT_MAX_P


def check_dimension(p: int, *, allow_large: bool = False) -> None:
    if p < 1:
        raise SizeLimitError(f"dimension must be >= 1, got {p}")
    if p > HARD_MAX_P:
        raise SizeLimitError(
            f"p={p} exceeds the hard cap {HARD_MAX_P} (2**p array storage)"
        )
    if not allow_large and p > soft_max_p():
        raise SizeLimitError(
            f"p={p} exceeds the soft guard {soft_max_p()} (2**p storage and "
            f"runtime); pass allow_large=True or set TAILDEP_MAX_P to override"
        )


class Kind(Enum):
    BETA = "beta"
    LAMBDA = "lambda"
    THETA = "theta"
    RAW = "raw"


@dataclass(frozen=True)
class SubsetFn:
    """A function on the nonempty subsets of {1, ..., p}.

    ``values[J - 1]`` holds the value at the subset with bitmask J
    (bit k-1 set  <=>  component k in the subset).  Entries are exact
    rationals.  ``kind`` tags the coordinate system; kind BETA enforces
    nonnegativity at construction, kind RAW carries arbitrary signs
    (e.g. a failed inversion).
    """

    p: int
    values: tuple
    kind: Kind

    def __post_init__(self) -> None:
        check_dimension(self.p, allow_large=True)
        n = (1 << self.p) - 1
        if len(self.values) != n:
            raise ValueError(
                f"expected {n} values for p={self.p}, got {len(self.values)}"
            )
        if self.kind is Kind.BETA:
            # the sign of the numerator: several times cheaper than a
            # Fraction comparison with 0, and exact for every Rat and int
            bad = [m + 1 for m, v in enumerate(self.values) if v.numerator < 0]
            if bad:
                raise InvalidBeta(
                    "negative beta entries at subsets "
                    + ", ".join(set_str(m) for m in bad[:8])
                )

    # -- construction -----------------------------------------------------

    @classmethod
    def from_values(
        cls,
        p: int,
        values: Sequence[RatLike],
        kind: Kind,
        *,
        allow_large: bool = False,
    ) -> "SubsetFn":
        check_dimension(p, allow_large=allow_large)
        return cls(p, tuple(rat(v) for v in values), kind)

    @classmethod
    def from_entries(
        cls,
        p: int,
        entries: Mapping[int, RatLike],
        kind: Kind,
        *,
        allow_large: bool = False,
    ) -> "SubsetFn":
        """Build from a sparse {mask: value} mapping; missing subsets are 0."""
        check_dimension(p, allow_large=allow_large)
        vals = [ZERO] * ((1 << p) - 1)
        for mask, v in entries.items():
            if not 1 <= mask < (1 << p):
                raise ValueError(f"subset mask {mask} out of range for p={p}")
            vals[mask - 1] = rat(v)
        return cls(p, tuple(vals), kind)

    @classmethod
    def zeros(cls, p: int, kind: Kind, *, allow_large: bool = False) -> "SubsetFn":
        check_dimension(p, allow_large=allow_large)
        return cls(p, ((ZERO,) * ((1 << p) - 1)), kind)

    # -- access ------------------------------------------------------------

    def __getitem__(self, mask: int):
        if not 1 <= mask < (1 << self.p):
            raise KeyError(f"subset mask {mask} out of range for p={self.p}")
        return self.values[mask - 1]

    def entries(self) -> Iterator[tuple[int, Rat]]:
        for m, v in enumerate(self.values, start=1):
            yield m, v

    def support(self) -> tuple[tuple[int, Rat], ...]:
        return tuple((m, v) for m, v in self.entries() if v != 0)

    def total(self) -> Rat:
        return sum(self.values, ZERO)

    def negative_masks(self) -> tuple[int, ...]:
        return tuple(m for m, v in self.entries() if v < 0)

    def as_float_array(self) -> np.ndarray:
        """Floating view for simulation consumers; exactness ends here."""
        return np.fromiter(
            (float(v) for v in self.values), dtype=float, count=len(self.values)
        )

    def with_kind(self, kind: Kind) -> "SubsetFn":
        return SubsetFn(self.p, self.values, kind)

    def scaled(self, factor: RatLike) -> "SubsetFn":
        c = rat(factor)
        return SubsetFn(self.p, tuple(c * v for v in self.values), self.kind)


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
# common denominator.  We therefore hoist the values to integer numerators
# over lcm(denominators), run the butterfly on plain ints, and rebuild
# rationals once at the end; this is several times faster than transforming
# rationals directly.
# ---------------------------------------------------------------------------


def _butterfly(nums: list, p: int, *, superset: bool, invert: bool) -> None:
    """In-place zeta / Moebius transform on a full-lattice integer array.

    superset=True:  g(S) = sum_{T >= S} f(T)   (invert: alternating signs)
    superset=False: g(S) = sum_{T <= S} f(T)   (invert: alternating signs)

    Runs the butterfly on a numpy object array so the block loop happens in
    C while the entries stay exact arbitrary-precision integers; the halves
    combined at each level are disjoint views, so in-place ops are safe.
    """
    arr = np.array(nums, dtype=object)
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
    nums[:] = arr.tolist()


def _transform_values(
    values: Sequence[Rat], p: int, *, superset: bool, invert: bool
) -> list:
    """Apply a lattice transform to the 2**p - 1 nonempty-subset values.

    The empty set participates with value 0 and is stripped again on return.
    """
    nums, den = to_common_numerators(values)
    full = [0] + nums
    _butterfly(full, p, superset=superset, invert=invert)
    return from_common_numerators(full[1:], den)


def _require_kind(fn: SubsetFn, expected: Kind, op: str) -> None:
    if fn.kind is not expected:
        raise ValueError(f"{op} expects a {expected.value}-kind input, got {fn.kind.value}")


def _tag_beta(p: int, values: Sequence[Rat]) -> SubsetFn:
    """Tag an inversion result: BETA when nonnegative, RAW otherwise."""
    if any(v.numerator < 0 for v in values):
        return SubsetFn(p, tuple(values), Kind.RAW)
    return SubsetFn(p, tuple(values), Kind.BETA)


# -- beta -> lambda / theta -------------------------------------------------


def lambda_from_beta(beta: SubsetFn) -> SubsetFn:
    """lambda(L) = sum of beta(J) over supersets J of L (superset-sum transform)."""
    if beta.kind is not Kind.BETA:
        raise InvalidBeta(f"lambda_from_beta expects kind beta, got {beta.kind.value}")
    vals = _transform_values(beta.values, beta.p, superset=True, invert=False)
    return SubsetFn(beta.p, tuple(vals), Kind.LAMBDA)


def theta_from_beta(beta: SubsetFn) -> SubsetFn:
    """theta(K) = total(beta) - sum of beta(J) over J inside the complement of K.

    One subset-sum transform on the complement lattice.
    """
    if beta.kind is not Kind.BETA:
        raise InvalidBeta(f"theta_from_beta expects kind beta, got {beta.kind.value}")
    p = beta.p
    nums, den = to_common_numerators(beta.values)
    full = [0] + nums
    total = sum(nums)
    _butterfly(full, p, superset=False, invert=False)
    fm = full_mask(p)
    out = [Rat(total - full[fm ^ mask], den) for mask in range(1, fm + 1)]
    return SubsetFn(p, tuple(out), Kind.THETA)


# -- lambda / theta -> beta (Moebius inversions) -----------------------------


def beta_from_lambda(lam: SubsetFn) -> SubsetFn:
    """Invert the superset-sum transform: alternating-sign sum over supersets.

    The input need not be a valid coefficient system; a negative result is
    tagged kind RAW and localized via ``negative_masks()``.
    """
    _require_kind(lam, Kind.LAMBDA, "beta_from_lambda")
    vals = _transform_values(lam.values, lam.p, superset=True, invert=True)
    return _tag_beta(lam.p, vals)


def beta_from_theta(theta: SubsetFn) -> SubsetFn:
    """Invert theta to atom weights on the complement lattice.

    Substituting K = J^c union M (M inside J) in the alternating sum over
    all K covering J^c turns it into a subset Moebius transform of
    K |-> theta(complement of K), with theta(empty) = 0:

        beta(J) = - sum_{R <= J} (-1)^{|J \\ R|} theta([p] \\ R).
    """
    _require_kind(theta, Kind.THETA, "beta_from_theta")
    p = theta.p
    fm = full_mask(p)
    nums, den = to_common_numerators(theta.values)
    # g[R] = theta(complement R); complement of the full mask is empty -> 0.
    g = [nums[(fm ^ mask) - 1] for mask in range(fm)] + [0]
    _butterfly(g, p, superset=False, invert=True)
    vals = from_common_numerators([-g[mask] for mask in range(1, fm + 1)], den)
    return _tag_beta(p, vals)


# -- theta <-> lambda (inclusion-exclusion) ----------------------------------


def _signed_subset_sum(fn: SubsetFn, out_kind: Kind) -> SubsetFn:
    """g(K) = sum over nonempty L <= K of (-1)^(|L|-1) f(L).

    Both inclusion-exclusion directions between theta and lambda are this
    same involution.
    """
    p = fn.p
    nums, den = to_common_numerators(fn.values)
    signed = [0] + [
        n if (mask.bit_count() & 1) else -n
        for mask, n in zip(range(1, 1 << p), nums)
    ]
    _butterfly(signed, p, superset=False, invert=False)
    return SubsetFn(
        p, tuple(from_common_numerators(signed[1:], den)), out_kind
    )


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
    "DEFAULT_SOFT_MAX_P",
    "soft_max_p",
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
