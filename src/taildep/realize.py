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
Every answer ships with one independently checkable certificate: a witness
model satisfying the constraints exactly, or a Farkas vector proving no
such weights exist.  An SDR model with common marginal s is itself a TDR
witness for lambda_ij = s - d_ij / 2, by the paper's correspondence
d_ij = lambda_ii + lambda_jj - 2 lambda_ij, so every model is checked the
same way.  The exponential column count is the honest price of exactness
here; the default size guard documents it rather than hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .coeffs import (
    Kind, SubsetFn, TdMatrix, _covers, _cut_incidence, _incidence, _pairings, _stray_column,
    _tdr_incidence, lambda_from_beta, sdr_rows, tdr_rows,
)
from .errors import (
    CertificateRejected,
    DegenerateReduction,
    InternalError,
    MalformedInput,
    ScaleTooSmall,
    SizeLimitError,
)
from .lp import ExactSimplex, SimplexStats
from .rationals import Rat, RatLike, ZERO, rat, to_common_numerators
from .spectral import SemiMetric
from .subsets import canonical_cuts, full_mask
from .tm import TmModel, synthesize

DEFAULT_MAX_P = 12  # p = 13 SDR answers took 3.3-76 s, median 37 s (BENCH_6.json)


def _guard(p: int, max_p: int) -> None:
    if p > max_p:
        raise SizeLimitError(
            f"p={p} exceeds the decider guard {max_p}; the LP has ~2**p "
            f"columns (raise max_p / --max-p to proceed anyway)"
        )


class Status(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class FeasibilityOutcome:
    """Decision plus its certificate.

    FEASIBLE: ``model`` is the witness, solving every constraint exactly;
    for SDR the equal-margin model, which holds the cut weights and scale.
    INFEASIBLE: ``farkas`` is a row multiplier vector, one entry per
    constraint row (``tdr_rows(p)``/``sdr_rows(p)``, in order), with
    nonpositive pairing against every variable column and positive pairing
    against the right-hand side.  ``stats`` is the solver's account of its
    work; it takes no part in equality.
    """

    problem: str  # "tdr" | "sdr"
    status: Status
    p: int
    model: TmModel | None = None
    farkas: tuple | None = None
    stats: SimplexStats | None = field(default=None, compare=False)

    @property
    def feasible(self) -> bool:
        return self.status is Status.FEASIBLE


# ---------------------------------------------------------------------------
# Constraint systems: the columns, the incidence ``coeffs`` caches per p,
# and the right-hand side.
# ---------------------------------------------------------------------------


def tdr_system(L: TdMatrix) -> tuple[list[int], np.ndarray, list[Rat]]:
    """Columns = all nonempty subsets; row (i, j) of A sums those covering {i, j}."""
    rhs = [L.lam[i][j] for i, j in tdr_rows(L.p)]
    return list(range(1, 1 << L.p)), _tdr_incidence(L.p), rhs


def cut_system(d: SemiMetric) -> tuple[list[int], np.ndarray, list[Rat]]:
    """Columns = canonical proper cuts; row (i, j) of A sums those separating i, j."""
    rhs = [d.d[i][j] for i, j in sdr_rows(d.p)]
    return canonical_cuts(d.p), _cut_incidence(d.p), rhs


# ---------------------------------------------------------------------------
# Deciders.
# ---------------------------------------------------------------------------


def decide_tdr(L: TdMatrix, *, max_p: int = DEFAULT_MAX_P) -> FeasibilityOutcome:
    """Decide realizability of a unit-diagonal bivariate coefficient matrix."""
    if not L.has_unit_diagonal():
        raise MalformedInput("TDR input must have unit diagonal")
    _guard(L.p, max_p)
    cols, A, rhs = tdr_system(L)
    lp = ExactSimplex(A, rhs)
    if not lp.feasible:
        return FeasibilityOutcome(
            "tdr", Status.INFEASIBLE, L.p, farkas=tuple(lp.farkas), stats=lp.stats
        )
    x = lp.witness()
    beta = SubsetFn.from_values(L.p, x, Kind.BETA)
    model = TmModel(L.p, beta)
    # Round-trip sanity: synthesizing the induced full lambda system must
    # recover exactly these weights.
    resynth = synthesize(lambda_from_beta(beta))
    if not (isinstance(resynth, TmModel) and resynth.beta == beta):
        raise InternalError("TDR witness does not survive resynthesis")
    return FeasibilityOutcome("tdr", Status.FEASIBLE, L.p, model=model, stats=lp.stats)


def sdr_auto_scale(d: SemiMetric) -> Rat:
    """Marginal scale (2**p - 2) * max d, always attainable when d decomposes."""
    return (2**d.p - 2) * d.max_entry()


def materialize_sdr_model(
    d: SemiMetric, cols: Sequence[int], weights: Sequence[Rat], scale: Rat
) -> TmModel:
    """Equal-margin model from cut weights: split each cut evenly, top up.

    Placing half of each cut's weight on both sides of the partition gives
    every component the same marginal scale (each pair {J, J^c} contains
    any given component exactly once), so a single full-set slack weight
    reaches any requested common scale at least that large.  Its
    ``spectral.cut_decomposition`` gives back the nonzero weights and slack.
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
    return TmModel.from_entries(p, entries)


def decide_sdr(
    d: SemiMetric, *, scale: RatLike | str = "auto", max_p: int = DEFAULT_MAX_P
) -> FeasibilityOutcome:
    """Decide cut-cone membership of a semimetric; materialize on success."""
    _guard(d.p, max_p)
    cols, A, rhs = cut_system(d)
    lp = ExactSimplex(A, rhs)
    if not lp.feasible:
        return FeasibilityOutcome(
            "sdr", Status.INFEASIBLE, d.p, farkas=tuple(lp.farkas), stats=lp.stats
        )
    weights = lp.witness()
    c = sdr_auto_scale(d) if scale == "auto" else rat(scale)
    model = materialize_sdr_model(d, cols, weights, c)
    return FeasibilityOutcome("sdr", Status.FEASIBLE, d.p, model=model, stats=lp.stats)


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
    what: str, nums: Sequence[int], den: int, incidence: np.ndarray, rows: Sequence,
    want: Sequence[int], want_den: int,
) -> None:
    """Raise CertificateRejected at the first row (i, j) where nums / den,
    summed over the masks (columns of ``incidence``, one row per pair) that
    hit the pair, differs from its target want / want_den."""
    sums = _pairings(nums, incidence.T).tolist()
    for (i, j), total, w in zip(rows, sums, want):
        if total * want_den != w * den:
            raise CertificateRejected(
                f"{what} at ({i + 1},{j + 1}) is {Rat(total, den)}, expected {Rat(w, want_den)}"
            )


def verify_certificate(
    outcome: FeasibilityOutcome, instance: TdMatrix | SemiMetric
) -> bool:
    """Re-check a witness or Farkas certificate by direct summation.

    Uses nothing from the solver, and checks every row of the problem
    (``tdr_rows``/``sdr_rows``), each sum one exact integer pairing of
    numerators with a 0/1 incidence (``_covers``/``_separates``): a witness's
    row sums through ``_mismatch``, a Farkas vector's column sums through
    ``_stray_column``, the dual check ``spectral.rigidity_probe`` shares:

    * a TDR ``model`` must sum, over the subsets covering each row pair,
      to that pair's coefficient;
    * an SDR ``model`` is checked as a TDR witness at its own first
      marginal s: by d_ij = lambda_ii + lambda_jj - 2 lambda_ij, a model
      with every marginal s has distances d iff its sums over the subsets
      covering each pair i <= j are lambda_ij = s - d_ij / 2 (d_ii = 0);
      its cut weights (``spectral.cut_decomposition``) and scale are
      read off it, so they need no check of their own;
    * a Farkas vector y must pair positively with the right-hand side and
      nonpositively with every column (ceiling 0).

    Returns True, or raises CertificateRejected with the first discrepancy.
    """
    if outcome.problem == "tdr":
        if not isinstance(instance, TdMatrix):
            raise CertificateRejected("TDR certificate paired with a non-TD instance")
        p, target = instance.p, instance.lam
        masks, rows, A = range(1, 1 << p), tdr_rows(p), _tdr_incidence(p)
    elif outcome.problem == "sdr":
        if not isinstance(instance, SemiMetric):
            raise CertificateRejected("SDR certificate paired with a non-metric instance")
        p, target = instance.p, instance.d
        masks, rows, A = canonical_cuts(p), sdr_rows(p), _cut_incidence(p)
    else:
        raise CertificateRejected(f"unknown problem tag {outcome.problem!r}")
    if outcome.p != p:
        raise CertificateRejected("dimension mismatch")
    bs, r = to_common_numerators([target[i][j] for i, j in rows])
    if outcome.status is not Status.FEASIBLE:
        # with y = ys / q and b = bs / r (q, r > 0), y'b and every y'A_J
        # have the signs of ys'bs and ys'A_J
        if outcome.farkas is None:
            raise CertificateRejected("missing Farkas vector")
        if len(outcome.farkas) != len(rows):
            raise CertificateRejected("certificate length does not match row count")
        ys, _ = to_common_numerators(outcome.farkas)
        if sum(y * b for y, b in zip(ys, bs)) <= 0:
            raise CertificateRejected("Farkas pairing with the right-hand side is not positive")
        column = _stray_column(ys, A, ceiling=0)
        if column is not None:
            raise CertificateRejected(f"Farkas pairing with column {masks[column]} is positive")
        return True

    model = outcome.model
    if model is None:
        raise CertificateRejected("missing witness")
    if model.p != p:
        raise CertificateRejected("dimension mismatch")
    if outcome.problem == "sdr":
        # at its own first marginal s = n / q (rows (i, i) hold the others to
        # s), with d = b / r: lambda_ij = (2nr - q b_ij) / (2qr).  Covers are
        # built here, not taken from the TDR cache, to pin no TDR incidence.
        n, q = model.lambda_of(1).as_integer_ratio()
        rows = tdr_rows(p)
        bs, r = to_common_numerators([target[i][j] for i, j in rows])
        bs, r = [2 * n * r - q * b for b in bs], 2 * q * r
        A = _incidence(_covers, rows, range(1, 1 << p))
    _mismatch("witness pair sum", *model.beta._numerators(), A, rows, bs, r)
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
