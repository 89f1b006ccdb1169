"""Spectral-distance geometry: cut decompositions and line-metric structure.

The spectral distance of a max-stable vector,

    d(i, j) = lambda(i) + lambda(j) - 2 * lambda(i, j),

is always a semimetric decomposable into a nonnegative combination of cut
semimetrics, with the cut weights given directly by the model's atom
weights: the pair {J, J^c} carries beta(J) + beta(J^c), and the full index
set is pure slack (it never separates a pair).  This module validates
semimetrics, extracts cut decompositions from models, recognizes line
metrics, builds the unique model a line metric induces at given marginal
scales, and decides decomposition uniqueness exactly, answered with a
checked dual certificate when the decomposition is unique and with two
differing decompositions when it is not.  A line metric is decided in
closed form, with no linear program; any other metric takes one over the
cut system (phase one, then one warm-started maximization).

The line path runs on integers.  A semimetric, a line certificate and a
line model each hold their entries as integer numerators over one
denominator, built once per object on first use and kept outside the
dataclass fields.  Detection, the model's weights, the collapse of
higher-order coefficients with its cross-check, and a line's rigidity
proof add and compare those ints; rationals are built only for the values
the functions return.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .coeffs import (
    Kind, SubsetFn, TdMatrix, _cut_incidence, _incidence, _pairings, _separates,
    _stray_column, check_dimension, lambda_from_beta, sdr_rows, spectral_distance_entry,
)
from .errors import InternalError, MalformedMatrix, NotInCutCone
from .lp import ExactSimplex
from .rationals import (
    Rat,
    RatLike,
    ZERO,
    _reduced,
    from_common_numerators,
    rat,
    to_common_numerators,
)
from .subsets import canonical_cut, canonical_cuts, full_mask, set_str
from .tm import TmModel


@dataclass(frozen=True)
class SemiMetric:
    """Symmetric nonnegative matrix with zero diagonal.

    Construction enforces only shape-level sanity (symmetry, signs, zero
    diagonal); the triangle inequality is a property to be checked via
    ``validate``, since rejecting it would make the realizability questions
    unaskable.
    """

    p: int
    d: tuple

    def __post_init__(self) -> None:
        if self.p < 1 or len(self.d) != self.p:
            raise MalformedMatrix(f"expected {self.p} rows")
        for i, row in enumerate(self.d):
            if len(row) != self.p:
                raise MalformedMatrix(f"row {i} has length {len(row)} != {self.p}")
        for i in range(self.p):
            if self.d[i][i] != 0:
                raise MalformedMatrix(f"nonzero diagonal at {i + 1}")
            for j in range(i + 1, self.p):
                if self.d[i][j] != self.d[j][i]:
                    raise MalformedMatrix(f"asymmetry at ({i + 1},{j + 1})")
                if self.d[i][j] < 0:
                    raise MalformedMatrix(f"negative entry at ({i + 1},{j + 1})")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RatLike]]) -> "SemiMetric":
        return cls(len(rows), tuple(tuple(rat(v) for v in row) for row in rows))

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self.d[i][j]

    @cached_property
    def _row_numerators(self) -> tuple[list[list[int]], int]:
        """(the rows of d as integer numerators over one denominator, that
        denominator > 0).  Kept in the instance dict, outside the fields:
        equality, hash and repr never see it."""
        p = self.p
        flat, den = to_common_numerators([v for row in self.d for v in row])
        return [flat[i * p:(i + 1) * p] for i in range(p)], den

    def __getstate__(self) -> dict:
        # pickle the fields only, not the numerator view
        return {"p": self.p, "d": self.d}

    def max_entry(self) -> Rat:
        return max((v for row in self.d for v in row), default=ZERO)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.d for v in row)


@dataclass(frozen=True)
class ValidationReport:
    is_semimetric: bool
    is_metric: bool
    violations: tuple  # ((i, j, k): d(i,k) > d(i,j) + d(j,k)), 0-based


def validate(d: SemiMetric) -> ValidationReport:
    """Check every triangle inequality; metric additionally needs d > 0 off-diagonal."""
    violations = []
    for i in range(d.p):
        for k in range(i + 1, d.p):
            for j in range(d.p):
                if j in (i, k):
                    continue
                if d.d[i][k] > d.d[i][j] + d.d[j][k]:
                    violations.append((i, j, k))
    positive = all(
        d.d[i][j] > 0 for i in range(d.p) for j in range(i + 1, d.p)
    )
    ok = not violations
    return ValidationReport(ok, ok and positive, tuple(violations))


def distance_from_td(td: TdMatrix) -> SemiMetric:
    """Spectral distance matrix of a bivariate coefficient matrix."""
    rows = tuple(
        tuple(spectral_distance_entry(td, i, j) for j in range(td.p))
        for i in range(td.p)
    )
    return SemiMetric(td.p, rows)


# ---------------------------------------------------------------------------
# Cut decompositions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutDecomposition:
    """Nonnegative weights on canonical proper cuts, plus full-set slack.

    Reconstruction: d(i, j) = sum of weight(J) over cuts separating i and j.
    The slack weight never separates anything and so never affects the
    reconstruction; it only carries marginal scale.
    """

    p: int
    cuts: tuple  # ((canonical mask, weight), ...), weights >= 0
    slack_full: Rat

    def weight(self, mask: int) -> Rat:
        canon = canonical_cut(mask, self.p)
        for m, w in self.cuts:
            if m == canon:
                return w
        return ZERO

    def reconstruct(self) -> SemiMetric:
        p, pairs = self.p, sdr_rows(self.p)
        nums, den = to_common_numerators([w for _, w in self.cuts])
        A = _incidence(_separates, pairs, [m for m, _ in self.cuts])
        rows = [[ZERO] * p for _ in range(p)]
        sums = from_common_numerators(_pairings(nums, A.T).tolist(), den)
        for (i, j), v in zip(pairs, sums):
            rows[i][j] = rows[j][i] = v
        return SemiMetric(p, tuple(tuple(row) for row in rows))


def cut_decomposition(model: TmModel) -> CutDecomposition:
    """Merge the model's atom weights onto canonical cut representatives."""
    p = model.p
    fm = full_mask(p)
    merged: dict[int, Rat] = {}
    slack = ZERO
    for mask, w in model.support():
        if mask == fm:
            slack += w
        else:
            canon = canonical_cut(mask, p)
            merged[canon] = merged.get(canon, ZERO) + w
    cuts = tuple(sorted(merged.items()))
    return CutDecomposition(p, cuts, slack)


# ---------------------------------------------------------------------------
# Line metrics.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineMetricCert:
    """Witness that a semimetric is a line: an order and consecutive gaps.

    ``order[k]`` is the 0-based component index at position k on the line;
    ``weights[k]`` is the gap between positions k and k+1.  Zero gaps
    (co-located components) are allowed.
    """

    order: tuple
    weights: tuple

    @property
    def p(self) -> int:
        return len(self.order)

    # The two caches below, the positions and the integer prefix sums of
    # the gaps, live in the instance dict, outside the fields: equality,
    # hash and repr never see them.

    @cached_property
    def _positions(self) -> tuple[int, ...]:
        """The line position of each component."""
        pos = [0] * len(self.order)
        for k, comp in enumerate(self.order):
            pos[comp] = k
        return tuple(pos)

    @cached_property
    def _prefix_numerators(self) -> tuple[list[int], int]:
        """(the distance from position 0 to each position, as integer
        numerators over one denominator, that denominator > 0)."""
        gaps, den = to_common_numerators(self.weights)
        prefix = [0]
        for g in gaps:
            prefix.append(prefix[-1] + g)
        return prefix, den

    def __getstate__(self) -> dict:
        # pickle the fields only, not the caches
        return {"order": self.order, "weights": self.weights}

    def position_of(self) -> dict[int, int]:
        return {comp: pos for pos, comp in enumerate(self.order)}

    def distance(self, pos_i: int, pos_j: int) -> Rat:
        lo, hi = min(pos_i, pos_j), max(pos_i, pos_j)
        prefix, den = self._prefix_numerators
        return rat(prefix[hi] - prefix[lo], den)


@dataclass(frozen=True)
class NotLine:
    """First pair of components whose distance breaks every line placement."""

    failing_pair: tuple  # (i, j) 0-based

    def describe(self) -> str:
        i, j = self.failing_pair
        return f"not a line metric; first failing pair ({i + 1},{j + 1})"


def detect_line_metric(d: SemiMetric) -> LineMetricCert | NotLine:
    """Recognize line semimetrics by diametral ordering plus exact verification.

    Pick a pair at maximum distance, sort everything by distance from one
    endpoint (ties broken by index, which groups co-located components),
    then verify all pairwise sums exactly.  Any valid order passes the
    verification, so the heuristic choice cannot reject a genuine line.
    The search, the sort and the check compare the integer numerators of
    d over one denominator (``SemiMetric._row_numerators``); the gaps
    returned are d's own entries.
    """
    p = d.p
    if p == 1:
        return LineMetricCert((0,), ())
    rows, _ = d._row_numerators
    anchor, best = 0, 0
    for i in range(p):
        row = rows[i]
        for j in range(i + 1, p):
            if row[j] > best:
                best, anchor = row[j], i
    # sorted() is stable over ascending indices: ties stay in index order
    order = sorted(range(p), key=rows[anchor].__getitem__)
    # the distance from position 0 to each position along the candidate
    prefix = [0]
    for a, b in zip(order, order[1:]):
        prefix.append(prefix[-1] + rows[a][b])
    for i in range(p - 2):
        row, at = rows[order[i]], prefix[i]
        # consecutive positions hold by construction
        for j in range(i + 2, p):
            if row[order[j]] != prefix[j] - at:
                return NotLine((order[i], order[j]))
    return LineMetricCert(
        tuple(order), tuple(d.d[a][b] for a, b in zip(order, order[1:]))
    )


@dataclass(frozen=True)
class NotRealizableAtTheseMarginals:
    """The line structure forces a negative atom weight at these marginals."""

    negative: tuple  # ((mask, value), ...) in original component labels

    def describe(self) -> str:
        parts = ", ".join(f"beta({set_str(m)}) = {v}" for m, v in self.negative)
        return f"marginals inconsistent with the line: {parts}"


@dataclass(frozen=True)
class LineTmModel:
    """Model induced by a line metric, keeping the line structure around."""

    model: TmModel
    cert: LineMetricCert
    marginals: tuple  # marginal scale per original component index

    @cached_property
    def _halves(self) -> tuple[list[int], list[int], int]:
        """(rising, falling, e): the halves (m_k +- x_k) / 2 of the line as
        integer numerators over one denominator e (``_line_halves``), for
        ``higher_order_from_line``.  Cached outside the fields, like
        ``LineMetricCert``'s caches, and so is ``_lambdas``."""
        return _line_halves(self.cert, *to_common_numerators(self.marginals))

    @cached_property
    def _lambdas(self) -> tuple[np.ndarray, int]:
        """(numerators, denominator) of the model's lambda over every subset
        J, at index J - 1: one superset-sum transform of beta, against which
        ``higher_order_from_line`` checks each value."""
        return lambda_from_beta(self.model.beta)._numerators()

    def __getstate__(self) -> dict:
        # pickle the fields only, not the caches
        return {"model": self.model, "cert": self.cert, "marginals": self.marginals}


def _line_halves(
    cert: LineMetricCert, marginals: Sequence[int], den: int
) -> tuple[list[int], list[int], int]:
    """(rising, falling, e): rising[k] / e = (m_k + x_k) / 2 and
    falling[k] / e = (m_k - x_k) / 2 over the line positions k, for the
    marginal m_k (numerators ``marginals`` per component, over ``den``) and
    the distance x_k from position 0.  e is twice the least common multiple
    of den and the gaps' denominator, so the halves are integers."""
    xs, xden = cert._prefix_numerators
    lcm = math.lcm(den, xden)
    up, over = lcm // den, lcm // xden
    ms = [marginals[comp] * up for comp in cert.order]
    return (
        [m + x * over for m, x in zip(ms, xs)],
        [m - x * over for m, x in zip(ms, xs)],
        2 * lcm,
    )


def line_tm_model(
    cert: LineMetricCert, marginals: Sequence[RatLike]
) -> LineTmModel | NotRealizableAtTheseMarginals:
    """The unique model with the given line distances and marginal scales.

    In line coordinates, writing m_k for the marginal at position k and
    l_k = (m_k + m_{k+1} - w_k) / 2 for the consecutive pairwise
    coefficient, the only candidate weights are

        beta(prefix [1:k])   = m_k     - l_k,
        beta(suffix [k+1:p]) = m_{k+1} - l_k,
        beta(full set)       = (m_1 + m_p - total length) / 2,

    everything else zero.  These always reproduce the distances and the
    marginals exactly; realizability holds iff they are all nonnegative.

    In the halves of ``_line_halves`` the weights are differences of
    neighbours, beta(prefix [1:k]) = falling_k - falling_{k+1} and
    beta(suffix [k+1:p]) = rising_{k+1} - rising_k, and
    beta(full set) = rising_1 + falling_p: integer numerators over the
    halves' one denominator, which the model keeps.
    """
    p = cert.p
    m = tuple(rat(v) for v in marginals)
    if len(m) != p:
        raise ValueError(f"expected {p} marginal scales, got {len(m)}")
    mnums, mden = to_common_numerators(m)
    rising, falling, den = _line_halves(cert, mnums, mden)

    # a prefix, a suffix and the full set never coincide: one entry each
    fm = (1 << p) - 1
    entries: dict[int, int] = {}
    prefix = 0
    for k, comp in enumerate(cert.order[:-1]):
        prefix |= 1 << comp
        entries[prefix] = falling[k] - falling[k + 1]
        entries[fm ^ prefix] = rising[k + 1] - rising[k]
    entries[fm] = rising[0] + falling[-1]

    negative = tuple(
        (mask, rat(v, den)) for mask, v in sorted(entries.items()) if v < 0
    )
    if negative:
        return NotRealizableAtTheseMarginals(negative)
    check_dimension(p)  # before a list of 2**p - 1 numerators
    nums = [0] * fm
    for mask, v in entries.items():
        nums[mask - 1] = v
    model = TmModel(p, SubsetFn._from_numerators(p, nums, den, Kind.BETA))
    # The formulas reconstruct marginals and distances identically; trip only on bugs.
    masks, weights, wden = model._support_numerators
    for i, mnum in enumerate(mnums):
        bit = 1 << i
        if sum(w for mask, w in zip(masks, weights) if mask & bit) * mden != mnum * wden:
            raise InternalError("line model does not reproduce its marginal scales")
    return LineTmModel(model, cert, m)


def higher_order_from_line(line_model: LineTmModel, subset: int) -> Rat:
    """lambda(J) of a line model: the pairwise coefficient of J's extremes.

    Along the line, every atom is a prefix or a suffix, so containing a set
    is the same as containing its extreme positions lo <= hi, and
    lambda(J) = (m_lo + m_hi - (x_hi - x_lo)) / 2 for the marginals m and
    the distances x from position 0; both halves are found once per line,
    as integer numerators over one denominator.  The value is checked, in
    integers, against the model's lambda(J) from one superset-sum table,
    also built once per line.
    """
    order = line_model.cert.order
    p = len(order)
    if not 0 < subset < 1 << p:
        raise ValueError(f"subset mask {subset} out of range")
    # J's extreme positions: the first and the last line position in J
    lo, hi = 0, p - 1
    while not subset >> order[lo] & 1:
        lo += 1
    while not subset >> order[hi] & 1:
        hi -= 1
    rising, falling, den = line_model._halves
    value = rising[lo] + falling[hi]
    table, tden = line_model._lambdas
    if value * tden != table.item(subset - 1) * den:
        raise InternalError("line formula disagrees with the model's lambda")
    g = math.gcd(value, den)
    return _reduced(value // g, den // g)


# ---------------------------------------------------------------------------
# Decomposition uniqueness.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RigidityReport:
    """Cut-weight ranges of a semimetric's decompositions, with a verdict.

    A rigid report (unique decomposition) is a *proof*: its ranges are the
    one decomposition x*, and ``certificate`` holds multipliers y, one per
    pair (i, j), i < j, in lexicographic order (the rows of the int64
    incidence A that ``coeffs._cut_incidence`` caches), with y'A_J >= 1 for
    every cut J outside the support of x*, y'A_J >= 0 for the cuts inside
    it, and y'd = 0 (checked on that same A by ``rigidity_probe``).  Any
    decomposition x then has sum of x_J over cuts outside the support
    <= y'A x = y'd = 0, so it lives on the support, whose cut vectors are
    linearly independent.  On a line the support is a set of prefix cuts,
    and among the prefix cuts only cut k separates positions k and k + 1;
    on any other metric the support is basic in the simplex that found x*.
    A non-rigid report carries two differing decompositions in
    ``witness_pair``, which is a proof of non-uniqueness, and its ranges
    are those observed under the probe's objectives; ``certificate`` is
    None.
    """

    p: int
    ranges: tuple  # ((canonical mask, low, high), ...)
    rigid_consistent: bool
    witness_pair: tuple | None  # (CutDecomposition, CutDecomposition) differing
    objectives_used: int
    certificate: tuple | None = None  # dual y proving uniqueness, when rigid


def _line_dual(line: LineMetricCert) -> list[int]:
    """The uniqueness dual of a line, one entry per pair i < j in
    lexicographic order: y_ij = p - 2|a - b| for the line positions a, b of
    i and j, plus 1 when |a - b| = 1 and the gap between them is 0.

    This y is the sum over position triples a < c < b of e_ac + e_cb - e_ab,
    plus e_k,k+1 for each zero gap k.  A triple's term pairs with a cut to 2
    when the cut puts c on the other side from a and b, and to 0 otherwise;
    a prefix cut never does that, and every other cut does it for some
    triple.  So y pairs to 0 with each prefix cut of a nonzero gap (and so
    with d, their weighted sum), to 1 with each zero-gap prefix cut and to
    at least 2 with every other cut.
    """
    p, pos, gaps = line.p, line._positions, line.weights
    y = []
    for i in range(p):
        for j in range(i + 1, p):
            a, b = sorted((pos[i], pos[j]))
            y.append(p - 2 * (b - a) + (b - a == 1 and gaps[a] == 0))
    return y


def rigidity_probe(d: SemiMetric, trials: int = 20, seed: int = 0) -> RigidityReport:
    """Decide whether d has exactly one cut decomposition, with a proof.

    When d is a line (``detect_line_metric``), no LP is solved: the
    decomposition x* puts each gap's weight on its prefix cut, and the
    certificate is the line's closed-form dual (``_line_dual``).  Otherwise
    phase one of the cut system gives a decomposition x* with support S,
    which lies inside the simplex basis, so the cut vectors of S are
    linearly independent, and one warm-started LP maximizes the total
    weight outside S: the decomposition is unique iff that optimum is 0,
    and its dual is then the certificate.  Both take one rigid exit, which
    checks y = ys / q in integers: y'd = 0, and the floors of
    ``RigidityReport`` through the dual check Farkas vectors share
    (``coeffs._stray_column``).  A unique x* is the optimum of every
    objective, so the report is what ``trials`` objectives would observe,
    built without solving them.

    When it is not unique, the cut system is re-solved under ``trials``
    objectives, alternating between single-cut min/max pairs (cycling
    through the canonical cuts) and seeded random integer cost vectors.
    The decider above runs on a copy of the phase-one solver; the objectives
    run on the solver itself, the first from the phase-one basis and each
    later one from the basis the previous one ended at.  If those all
    return one decomposition, x* and the decider's optimum (which differ)
    are added, so a non-unique d never gets a rigid report.  Requires d to
    be decomposable at all.
    """
    if trials < 1:
        raise ValueError("need at least one objective")
    if d.p == 1:
        # no pairs and no cuts; the empty decomposition is the only one
        return RigidityReport(d.p, (), True, None, 1, ())
    cols, A = canonical_cuts(d.p), _cut_incidence(d.p)
    n = len(cols)
    rows, den = d._row_numerators
    pairs = sdr_rows(d.p)
    bs = [rows[i][j] for i, j in pairs]
    line = detect_line_metric(d)
    if isinstance(line, LineMetricCert):
        # the canonical cuts are the odd masks below the full set,
        # ascending: cut c is column c >> 1; each gap's numerator over den
        # goes to its prefix cut; only the report builds rationals
        xs, prefix = [0] * n, 0
        for a, b in zip(line.order, line.order[1:]):
            prefix |= 1 << a
            xs[canonical_cut(prefix, d.p) >> 1] = rows[a][b]
        ys, q, excess = _line_dual(line), 1, 0
        x_star = from_common_numerators(xs, den)
        certificate = tuple(from_common_numerators(ys, 1))
    else:
        lp = ExactSimplex(A, [d.d[i][j] for i, j in pairs])
        if not lp.feasible:
            raise NotInCutCone("semimetric admits no cut decomposition")
        x_star = lp.witness()
        decider = lp.copy()
        excess, x_other = decider.maximize([0 if v else 1 for v in x_star])
        certificate = tuple(decider.dual)
        ys, q = to_common_numerators(certificate)
        xs, _ = to_common_numerators(x_star)
    if excess == 0:
        if sum(y * b for y, b in zip(ys, bs)) != 0:
            raise InternalError("uniqueness certificate: y'd != 0")
        short = _stray_column(ys, A, floor=np.where(np.array(xs, dtype=bool), 0, q))
        if short is not None:
            raise InternalError(f"uniqueness certificate fails on cut column {short}")
        ranges = tuple((c, v, v) for c, v in zip(cols, x_star))
        return RigidityReport(d.p, ranges, True, None, trials, certificate)

    lo: list[Rat | None] = [None] * n
    hi: list[Rat | None] = [None] * n
    first_x: list | None = None
    witness_pair = None
    rng = random.Random(seed)

    def record(x: list) -> None:
        nonlocal first_x, witness_pair
        for j, v in enumerate(x):
            if lo[j] is None or v < lo[j]:
                lo[j] = v
            if hi[j] is None or v > hi[j]:
                hi[j] = v
        if first_x is None:
            first_x = list(x)
        elif witness_pair is None and x != first_x:
            witness_pair = (first_x, list(x))

    cut_cycle = 0
    for used in range(trials):
        if used % 4 in (0, 1):
            # min and max of one cut's weight, cycling through the cuts
            j = cut_cycle % n
            costs = [ZERO] * n
            costs[j] = rat(1)
            _, x = lp.minimize(costs) if used % 4 == 0 else lp.maximize(costs)
            if used % 4 == 1:
                cut_cycle += 1
        else:
            costs = [rat(rng.randint(-9, 9)) for _ in range(n)]
            _, x = lp.minimize(costs)
        record(x)
    if witness_pair is None:
        record(x_star)
        record(x_other)

    ranges = tuple((cols[j], lo[j], hi[j]) for j in range(n))
    pair = tuple(
        CutDecomposition(
            d.p,
            tuple((cols[j], x[j]) for j in range(n) if x[j] != 0),
            ZERO,
        )
        for x in witness_pair
    )
    return RigidityReport(d.p, ranges, False, pair, trials)


__all__ = [
    "SemiMetric",
    "ValidationReport",
    "validate",
    "distance_from_td",
    "canonical_cut",
    "canonical_cuts",
    "CutDecomposition",
    "cut_decomposition",
    "LineMetricCert",
    "NotLine",
    "detect_line_metric",
    "NotRealizableAtTheseMarginals",
    "LineTmModel",
    "line_tm_model",
    "higher_order_from_line",
    "RigidityReport",
    "rigidity_probe",
]
