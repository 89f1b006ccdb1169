"""Exact decision procedures for the two realizability problems.

TDR: given a symmetric nonnegative matrix with unit diagonal, is it the
matrix of bivariate tail-dependence coefficients of a max-stable vector
with standard margins?  Equivalently: does a nonnegative weight vector over
all 2**p - 1 nonempty subsets exist whose pair sums match the matrix?

SDR: given a symmetric nonnegative zero-diagonal matrix, is it the spectral
distance of a max-stable vector with identical margins?  Equivalently: is
it a nonnegative combination of cut semimetrics?

Both are decided by exact rational LP feasibility over the full exponential
variable set, so answers on the realizability boundary are trustworthy.
Every answer ships with an independently checkable certificate: a weight
vector satisfying the constraints exactly, or a Farkas vector proving no
such weights exist.  The exponential column count is the honest price of
exactness here; the default size guard documents it rather than hiding it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .coeffs import Kind, SubsetFn, TdMatrix, _store, lambda_from_beta
from .errors import (
    CertificateRejected,
    DegenerateReduction,
    InternalError,
    MalformedInput,
    ScaleTooSmall,
    SizeLimitError,
)
from .lp import ExactSimplex
from .rationals import Rat, RatLike, ZERO, rat, to_common_numerators
from .spectral import CutDecomposition, SemiMetric, canonical_cuts
from .subsets import full_mask
from .tm import TmModel, synthesize

DEFAULT_MAX_P = 12  # p = 13 SDR answers took 3.3-76 s, median 37 s (BENCH_6.json)


def _guard(p: int, max_p: int | None) -> None:
    if max_p is None:
        max_p = int(os.environ.get("TAILDEP_MAX_P") or DEFAULT_MAX_P)
    if p > max_p:
        raise SizeLimitError(
            f"p={p} exceeds the decider guard {max_p}; the LP has ~2**p "
            f"columns (raise max_p or TAILDEP_MAX_P to proceed anyway)"
        )


class Status(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class FeasibilityOutcome:
    """Decision plus its certificate.

    FEASIBLE: ``witness_beta`` solves every constraint exactly (for SDR the
    raw cut weights live in ``cuts`` and ``witness_beta``/``model`` hold the
    materialized equal-margin model).  INFEASIBLE: ``farkas`` is a row
    multiplier vector with nonpositive pairing against every variable
    column and positive pairing against the right-hand side.
    """

    problem: str  # "tdr" | "sdr"
    status: Status
    p: int
    row_pairs: tuple  # constraint rows as 0-based (i, j) pairs, in order
    witness_beta: SubsetFn | None = None
    model: TmModel | None = None
    cuts: CutDecomposition | None = None
    scale: Rat | None = None  # SDR: the materialized common marginal scale
    farkas: tuple | None = None

    @property
    def feasible(self) -> bool:
        return self.status is Status.FEASIBLE


# ---------------------------------------------------------------------------
# Constraint-system builders (shared with the uniqueness decider).
# ---------------------------------------------------------------------------


def tdr_rows(p: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(p) for j in range(i, p)]


def sdr_rows(p: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(p) for j in range(i + 1, p)]


def _covers(masks: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """TDR: which subsets contain both ends of the pair (i, j)."""
    need = (1 << i) | (1 << j)
    return masks & need == need


def _separates(masks: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """SDR: which cuts put the two ends of the pair (i, j) on different sides."""
    return (masks >> i & 1) != (masks >> j & 1)


def _incidence(hits: callable, pairs: Sequence, masks: Sequence[int]) -> np.ndarray:
    """0/1 int64 matrix, one row per pair and one column per mask: 1 where
    ``hits`` (``_covers`` or ``_separates``) reports the mask on the pair."""
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2, 1)
    return hits(np.array(masks, dtype=np.int64), ends[:, 0], ends[:, 1]).astype(np.int64)


def _pairings(nums: Sequence[int], incidence) -> np.ndarray:
    """nums' A for a 0/1 matrix A, exactly.

    int64 when sum(|nums|) fits (``_store``): no partial sum of a 0/1
    combination can exceed it.  Python ints otherwise.
    """
    v = _store(nums)
    return v @ np.asarray(incidence, dtype=v.dtype)


def tdr_system(L: TdMatrix) -> tuple[list[int], list[list[int]], list[Rat]]:
    """Columns = all nonempty subsets; row (i, j) sums the columns covering {i, j}."""
    pairs = tdr_rows(L.p)
    cols = list(range(1, 1 << L.p))
    return cols, _incidence(_covers, pairs, cols).tolist(), [L.lam[i][j] for i, j in pairs]


def cut_system(d: SemiMetric) -> tuple[list[int], list[list[int]], list[Rat]]:
    """Columns = canonical proper cuts; row (i, j) sums the cuts separating i, j."""
    pairs = sdr_rows(d.p)
    cols = canonical_cuts(d.p)
    return cols, _incidence(_separates, pairs, cols).tolist(), [d.d[i][j] for i, j in pairs]


# ---------------------------------------------------------------------------
# Deciders.
# ---------------------------------------------------------------------------


def decide_tdr(L: TdMatrix, *, max_p: int | None = None) -> FeasibilityOutcome:
    """Decide realizability of a unit-diagonal bivariate coefficient matrix."""
    if not L.has_unit_diagonal():
        raise MalformedInput("TDR input must have unit diagonal")
    _guard(L.p, max_p)
    cols, rows, rhs = tdr_system(L)
    lp = ExactSimplex(rows, rhs)
    pairs = tuple(tdr_rows(L.p))
    if not lp.feasible:
        return FeasibilityOutcome(
            "tdr", Status.INFEASIBLE, L.p, pairs, farkas=tuple(lp.farkas)
        )
    x = lp.witness()
    beta = SubsetFn.from_values(L.p, x, Kind.BETA)
    model = TmModel(L.p, beta)
    # Round-trip sanity: synthesizing the induced full lambda system must
    # recover exactly these weights.
    resynth = synthesize(lambda_from_beta(beta))
    if not (isinstance(resynth, TmModel) and resynth.beta == beta):
        raise InternalError("TDR witness does not survive resynthesis")
    return FeasibilityOutcome(
        "tdr", Status.FEASIBLE, L.p, pairs, witness_beta=beta, model=model
    )


def sdr_auto_scale(d: SemiMetric) -> Rat:
    """Marginal scale (2**p - 2) * max d, always attainable when d decomposes."""
    return (2**d.p - 2) * d.max_entry()


def materialize_sdr_model(
    d: SemiMetric, cols: Sequence[int], weights: Sequence[Rat], scale: Rat
) -> tuple[TmModel, CutDecomposition]:
    """Equal-margin model from cut weights: split each cut evenly, top up.

    Placing half of each cut's weight on both sides of the partition gives
    every component the same marginal scale (each pair {J, J^c} contains
    any given component exactly once), so a single full-set slack weight
    reaches any requested common scale at least that large.
    """
    p = d.p
    fm = full_mask(p)
    half_total = sum(weights, ZERO) / 2
    slack = scale - half_total
    if slack < 0:
        raise ScaleTooSmall(
            f"requested scale {scale} is below the even-split minimum {half_total}"
        )
    entries: dict[int, Rat] = {}
    for mask, w in zip(cols, weights):
        if w == 0:
            continue
        entries[mask] = entries.get(mask, ZERO) + w / 2
        entries[fm ^ mask] = entries.get(fm ^ mask, ZERO) + w / 2
    if slack > 0:
        entries[fm] = entries.get(fm, ZERO) + slack
    model = TmModel.from_entries(p, entries)
    cuts = CutDecomposition(
        p,
        tuple((m, w) for m, w in zip(cols, weights) if w != 0),
        slack,
    )
    return model, cuts


def decide_sdr(
    d: SemiMetric, *, scale: RatLike | str = "auto", max_p: int | None = None
) -> FeasibilityOutcome:
    """Decide cut-cone membership of a semimetric; materialize on success."""
    _guard(d.p, max_p)
    cols, rows, rhs = cut_system(d)
    pairs = tuple(sdr_rows(d.p))
    if not rows:  # p == 1: nothing to decide
        model = TmModel.from_entries(1, {})
        return FeasibilityOutcome(
            "sdr",
            Status.FEASIBLE,
            1,
            pairs,
            witness_beta=model.beta,
            model=model,
            cuts=CutDecomposition(1, (), ZERO),
            scale=ZERO,
        )
    lp = ExactSimplex(rows, rhs)
    if not lp.feasible:
        return FeasibilityOutcome(
            "sdr", Status.INFEASIBLE, d.p, pairs, farkas=tuple(lp.farkas)
        )
    weights = lp.witness()
    c = sdr_auto_scale(d) if scale == "auto" else rat(scale)
    model, cuts = materialize_sdr_model(d, cols, weights, c)
    return FeasibilityOutcome(
        "sdr",
        Status.FEASIBLE,
        d.p,
        pairs,
        witness_beta=model.beta,
        model=model,
        cuts=cuts,
        scale=c,
    )


def normalize_sdr_to_tdr(d: SemiMetric) -> TdMatrix:
    """Polynomial reduction: rescale a distance question to a unit-diagonal one.

    lambda(i, j) = 1 - d(i, j) / (2 * (2**p - 2) * max d); the two deciders
    agree on the original and reduced instances.
    """
    if d.is_zero():
        raise DegenerateReduction(
            "the zero matrix needs no reduction; it is trivially realizable"
        )
    denom = 2 * sdr_auto_scale(d)
    rows = tuple(
        tuple(
            rat(1) if i == j else 1 - d.d[i][j] / denom for j in range(d.p)
        )
        for i in range(d.p)
    )
    return TdMatrix(d.p, rows)


# ---------------------------------------------------------------------------
# Certificate verification, independent of the solver.
# ---------------------------------------------------------------------------


def _mismatch(
    nums: Sequence[int], den: int, hits: callable, masks: Sequence[int], pairs: Sequence, target
) -> tuple | None:
    """First ((i, j), sum) where the sum of nums / den over the masks that
    ``hits`` the pair differs from target[i][j]; None if every pair matches."""
    sums = _pairings(nums, _incidence(hits, pairs, masks).T)
    for (i, j), total in zip(pairs, sums.tolist()):
        want = target[i][j]
        if total * want.denominator != want.numerator * den:
            return (i, j), Rat(total, den)
    return None


def verify_certificate(
    outcome: FeasibilityOutcome, instance: TdMatrix | SemiMetric
) -> bool:
    """Re-check a witness or Farkas certificate by direct summation.

    Uses nothing from the solver.  Every check is an exact integer pairing
    (``_pairings``) of numerators over a common denominator with a 0/1
    incidence (``_covers`` for TDR, ``_separates`` for SDR):

    * a TDR witness must sum, over the subsets covering each row pair, to
      that pair's coefficient;
    * SDR cut weights must sum, over the cuts separating each pair, to its
      distance; a materialized model must have every marginal (the sum over
      the subsets covering (i, i)) equal to ``scale`` and, atom J separating
      (i, j) exactly as its cut does, reproduce every distance;
    * a Farkas vector y must pair positively with the right-hand side and
      nonpositively with every column.

    Returns True, or raises CertificateRejected with the first discrepancy.
    """
    if outcome.problem == "tdr":
        if not isinstance(instance, TdMatrix):
            raise CertificateRejected("TDR certificate paired with a non-TD instance")
        p, target, hits = instance.p, instance.lam, _covers
        masks = list(range(1, 1 << p))
    elif outcome.problem == "sdr":
        if not isinstance(instance, SemiMetric):
            raise CertificateRejected("SDR certificate paired with a non-metric instance")
        p, target, hits = instance.p, instance.d, _separates
        masks = canonical_cuts(p)
    else:
        raise CertificateRejected(f"unknown problem tag {outcome.problem!r}")
    if outcome.p != p:
        raise CertificateRejected("dimension mismatch")
    pairs = outcome.row_pairs
    if outcome.status is not Status.FEASIBLE:
        # with y = ys / q and b = bs / r (q, r > 0), y'b and every y'A_J
        # have the signs of ys'bs and ys'A_J
        if len(outcome.farkas) != len(pairs):
            raise CertificateRejected("certificate length does not match row count")
        ys, _ = to_common_numerators(outcome.farkas)
        bs, _ = to_common_numerators([target[i][j] for i, j in pairs])
        if sum(y * b for y, b in zip(ys, bs)) <= 0:
            raise CertificateRejected("Farkas pairing with the right-hand side is not positive")
        positive = np.flatnonzero(_pairings(ys, _incidence(hits, pairs, masks)) > 0)
        if positive.size:
            raise CertificateRejected(f"Farkas pairing with column {masks[positive[0]]} is positive")
        return True

    if outcome.problem == "tdr":
        beta = outcome.witness_beta
        if beta is None:
            raise CertificateRejected("missing or negative witness")
        if beta.p != p:
            raise CertificateRejected("dimension mismatch")
        nums, den = beta._numerators()
        if nums.min() < 0:
            raise CertificateRejected("missing or negative witness")
        what = "witness pair sum"
    else:
        cuts = outcome.cuts
        if cuts is None or any(w < 0 for _, w in cuts.cuts):
            raise CertificateRejected("missing or negative cut weights")
        nums, den = to_common_numerators([w for _, w in cuts.cuts])
        masks = [m for m, _ in cuts.cuts]
        what = "cut reconstruction"
    miss = _mismatch(nums, den, hits, masks, pairs, target)
    if miss is not None:
        (i, j), total = miss
        raise CertificateRejected(
            f"{what} at ({i + 1},{j + 1}) is {total}, expected {target[i][j]}"
        )

    model, scale = outcome.model, outcome.scale
    if outcome.problem == "sdr" and model is not None and scale is not None:
        # marginal i sums the atoms covering (i, i); atom J separates (i, j)
        # exactly as its cut does, and the full set separates nothing
        q = model.p
        nums, den = model.beta._numerators()
        subsets = range(1, 1 << q)
        diagonal = [(i, i) for i in range(q)]
        if _mismatch(nums, den, _covers, subsets, diagonal, [[scale] * q] * q):
            raise CertificateRejected("materialized marginals are unequal")
        if q != p or _mismatch(nums, den, _separates, subsets, sdr_rows(q), target):
            raise CertificateRejected("materialized model does not reproduce the distances")
    return True


__all__ = [
    "DEFAULT_MAX_P",
    "Status",
    "FeasibilityOutcome",
    "tdr_rows",
    "sdr_rows",
    "tdr_system",
    "cut_system",
    "decide_tdr",
    "decide_sdr",
    "sdr_auto_scale",
    "materialize_sdr_model",
    "normalize_sdr_to_tdr",
    "verify_certificate",
]
