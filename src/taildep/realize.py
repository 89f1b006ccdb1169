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

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .coeffs import Kind, SubsetFn, TdMatrix, _store, lambda_from_beta, soft_max_p
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
from .spectral import (
    CutDecomposition,
    SemiMetric,
    canonical_cuts,
    cut_decomposition,
)
from .subsets import full_mask
from .tm import TmModel, synthesize

DEFAULT_MAX_P = 12  # p = 13 SDR answers took 3.3-76 s, median 37 s (BENCH_6.json)


def _guard(p: int, max_p: int | None) -> None:
    if max_p is None:
        max_p = soft_max_p(DEFAULT_MAX_P)
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


def tdr_system(L: TdMatrix) -> tuple[list[int], list[list[int]], list[Rat]]:
    """Columns = all nonempty subsets; row (i, j) sums the columns covering {i, j}."""
    p = L.p
    cols = list(range(1, 1 << p))
    rows = []
    rhs = []
    for i, j in tdr_rows(p):
        need = (1 << i) | (1 << j)
        rows.append([1 if mask & need == need else 0 for mask in cols])
        rhs.append(L.lam[i][j])
    return cols, rows, rhs


def cut_system(d: SemiMetric) -> tuple[list[int], list[list[int]], list[Rat]]:
    """Columns = canonical proper cuts; row (i, j) sums the cuts separating i, j."""
    p = d.p
    cols = canonical_cuts(p)
    rows = []
    rhs = []
    for i, j in sdr_rows(p):
        rows.append(
            [1 if (mask >> i & 1) != (mask >> j & 1) else 0 for mask in cols]
        )
        rhs.append(d.d[i][j])
    return cols, rows, rhs


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
    beta = SubsetFn.from_values(L.p, x, Kind.BETA, allow_large=True)
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
    model = TmModel.from_entries(p, entries, allow_large=True)
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


def _verify_farkas(
    row_pairs: Sequence[tuple[int, int]],
    farkas: Sequence[Rat],
    cols: Sequence[int],
    rhs: Sequence[Rat],
    column_hits: callable,
) -> bool:
    """Check y'b > 0 and y'A_J <= 0 for every column J, in integers.

    With y = ys / q (q > 0, common denominator) and b = bs / r (r > 0),
    every pairing has the sign of its numerator: ys'bs, and the sum of ys
    over the rows whose pair ``column_hits`` reports in J (vectorized over
    the column masks).
    """
    if len(farkas) != len(row_pairs):
        raise CertificateRejected("certificate length does not match row count")
    ys, _ = to_common_numerators(farkas)
    bs, _ = to_common_numerators(rhs)
    if sum(y * b for y, b in zip(ys, bs)) <= 0:
        raise CertificateRejected("Farkas pairing with the right-hand side is not positive")
    masks = np.array(cols, dtype=np.int64)
    # q * y'A_J; int64 when sum(|ys|) fits (``_store``), so no load overflows
    loads = np.zeros(len(cols), dtype=_store(ys).dtype)
    for y, pair in zip(ys, row_pairs):
        if y:
            loads[column_hits(masks, pair)] += y
    positive = np.flatnonzero(loads > 0)
    if positive.size:
        raise CertificateRejected(f"Farkas pairing with column {cols[positive[0]]} is positive")
    return True


def _covers(masks: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """TDR: which subsets contain both ends of the pair."""
    need = (1 << pair[0]) | (1 << pair[1])
    return masks & need == need


def _separates(masks: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """SDR: which cuts put the two ends of the pair on different sides."""
    return (masks >> pair[0] & 1) != (masks >> pair[1] & 1)


def verify_certificate(
    outcome: FeasibilityOutcome, instance: TdMatrix | SemiMetric
) -> bool:
    """Re-check a witness or Farkas certificate by direct summation.

    Uses nothing from the solver: plain sums over subsets and constraint
    rows in exact integer arithmetic, over common denominators.  Returns
    True, or raises CertificateRejected with the first discrepancy.
    """
    if outcome.problem == "tdr":
        if not isinstance(instance, TdMatrix):
            raise CertificateRejected("TDR certificate paired with a non-TD instance")
        L = instance
        if outcome.p != L.p:
            raise CertificateRejected("dimension mismatch")
        masks = np.arange(1, 1 << L.p, dtype=np.int64)
        if outcome.status is Status.FEASIBLE:
            beta = outcome.witness_beta
            if beta is None:
                raise CertificateRejected("missing or negative witness")
            if beta.p != L.p:
                raise CertificateRejected("dimension mismatch")
            nums, den = to_common_numerators(beta.values)  # beta = nums / den
            weights = _store(nums)  # int64 when sum(|nums|) fits: exact sums
            if weights.min() < 0:
                raise CertificateRejected("missing or negative witness")
            for i, j in outcome.row_pairs:
                total = int(weights[_covers(masks, (i, j))].sum())
                lam = L.lam[i][j]
                if total * lam.denominator != lam.numerator * den:
                    raise CertificateRejected(
                        f"witness pair sum at ({i + 1},{j + 1}) is {Rat(total, den)}, "
                        f"expected {L.lam[i][j]}"
                    )
            return True
        rhs = [L.lam[i][j] for i, j in outcome.row_pairs]
        return _verify_farkas(outcome.row_pairs, outcome.farkas, masks.tolist(), rhs, _covers)

    if outcome.problem == "sdr":
        if not isinstance(instance, SemiMetric):
            raise CertificateRejected("SDR certificate paired with a non-metric instance")
        d = instance
        if outcome.p != d.p:
            raise CertificateRejected("dimension mismatch")
        if outcome.status is Status.FEASIBLE:
            cuts = outcome.cuts
            if cuts is None or any(w < 0 for _, w in cuts.cuts):
                raise CertificateRejected("missing or negative cut weights")
            recon = cuts.reconstruct()
            for i, j in outcome.row_pairs:
                if recon.d[i][j] != d.d[i][j]:
                    raise CertificateRejected(
                        f"cut reconstruction at ({i + 1},{j + 1}) is "
                        f"{recon.d[i][j]}, expected {d.d[i][j]}"
                    )
            model = outcome.model
            if model is not None and outcome.scale is not None:
                scales = model.marginal_scales()
                if any(s != outcome.scale for s in scales):
                    raise CertificateRejected("materialized marginals are unequal")
                model_d = cut_decomposition(model).reconstruct()
                if model_d.d != d.d:
                    raise CertificateRejected(
                        "materialized model does not reproduce the distances"
                    )
            return True
        rhs = [d.d[i][j] for i, j in outcome.row_pairs]
        return _verify_farkas(
            outcome.row_pairs, outcome.farkas, canonical_cuts(d.p), rhs, _separates
        )

    raise CertificateRejected(f"unknown problem tag {outcome.problem!r}")


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
