"""Spectral-distance geometry: cut decompositions and line-metric structure.

The spectral distance of a max-stable vector,

    d(i, j) = lambda(i) + lambda(j) - 2 * lambda(i, j),

is always a semimetric decomposable into a nonnegative combination of cut
semimetrics, with the cut weights given directly by the model's atom
weights: the pair {J, J^c} carries beta(J) + beta(J^c), and the full index
set is pure slack (it never separates a pair).  This module validates
semimetrics, extracts cut decompositions from models, recognizes line
metrics, builds the unique model a line metric induces at given marginal
scales, and decides decomposition uniqueness exactly: one linear program
over the cut system, answered with a checked dual certificate when the
decomposition is unique and with two differing decompositions when it is
not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .coeffs import TdMatrix, spectral_distance_entry
from .errors import InternalError, MalformedMatrix, NotInCutCone
from .rationals import Rat, RatLike, ZERO, rat, to_common_numerators
from .subsets import full_mask, set_str
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


def canonical_cut(mask: int, p: int) -> int:
    """Representative of the pair {J, J^c}: the side containing component 1."""
    return mask if mask & 1 else full_mask(p) ^ mask


def canonical_cuts(p: int) -> list[int]:
    """All proper canonical cuts, ascending; there are 2**(p-1) - 1 of them."""
    fm = full_mask(p)
    return [m for m in range(1, fm) if m & 1]


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
        rows = [[ZERO] * self.p for _ in range(self.p)]
        for mask, w in self.cuts:
            if w == 0:
                continue
            for i in range(self.p):
                ini = mask >> i & 1
                for j in range(i + 1, self.p):
                    if ini != (mask >> j & 1):
                        rows[i][j] += w
                        rows[j][i] += w
        return SemiMetric(self.p, tuple(tuple(row) for row in rows))


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

    def position_of(self) -> dict[int, int]:
        return {comp: pos for pos, comp in enumerate(self.order)}

    def distance(self, pos_i: int, pos_j: int) -> Rat:
        lo, hi = min(pos_i, pos_j), max(pos_i, pos_j)
        return sum(self.weights[lo:hi], ZERO)


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
    """
    p = d.p
    if p == 1:
        return LineMetricCert((0,), ())
    anchor = 0
    best = ZERO
    for i in range(p):
        for j in range(i + 1, p):
            if d.d[i][j] > best:
                best = d.d[i][j]
                anchor = i
    order = tuple(sorted(range(p), key=lambda v: (d.d[anchor][v], v)))
    weights = tuple(
        d.d[order[k]][order[k + 1]] for k in range(p - 1)
    )
    prefix = [ZERO]
    for w in weights:
        prefix.append(prefix[-1] + w)
    for i in range(p):
        for j in range(i + 1, p):
            if d.d[order[i]][order[j]] != prefix[j] - prefix[i]:
                return NotLine((order[i], order[j]))
    return LineMetricCert(order, weights)


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
    """
    p = cert.p
    m = [rat(v) for v in marginals]
    if len(m) != p:
        raise ValueError(f"expected {p} marginal scales, got {len(m)}")
    mline = [m[comp] for comp in cert.order]
    w = [rat(v) for v in cert.weights]

    prefix_mask = [0] * (p + 1)
    for k, comp in enumerate(cert.order):
        prefix_mask[k + 1] = prefix_mask[k] | (1 << comp)
    fm = prefix_mask[p]

    entries: dict[int, Rat] = {}
    for k in range(p - 1):
        pair = (mline[k] + mline[k + 1] - w[k]) / 2
        bpre = mline[k] - pair
        bsuf = mline[k + 1] - pair
        pre_mask = prefix_mask[k + 1]
        suf_mask = fm ^ prefix_mask[k + 1]
        entries[pre_mask] = entries.get(pre_mask, ZERO) + bpre
        entries[suf_mask] = entries.get(suf_mask, ZERO) + bsuf
    bfull = (mline[0] + mline[-1] - sum(w, ZERO)) / 2
    entries[fm] = entries.get(fm, ZERO) + bfull

    negative = tuple((mask, v) for mask, v in sorted(entries.items()) if v < 0)
    if negative:
        return NotRealizableAtTheseMarginals(negative)
    model = TmModel.from_entries(p, {m_: v for m_, v in entries.items() if v != 0})
    # The formulas reconstruct marginals and distances identically; trip only on bugs.
    if model.marginal_scales() != tuple(m):
        raise InternalError("line model does not reproduce its marginal scales")
    return LineTmModel(model, cert, tuple(m))


def higher_order_from_line(line_model: LineTmModel, subset: int) -> Rat:
    """lambda(J) of a line model: the pairwise coefficient of J's extremes.

    Along the line, every atom is a prefix or a suffix, so containing a set
    is the same as containing its extreme positions.
    """
    cert = line_model.cert
    p = cert.p
    if subset == 0 or subset >= (1 << p):
        raise ValueError(f"subset mask {subset} out of range")
    pos = cert.position_of()
    positions = [pos[i] for i in range(p) if subset >> i & 1]
    lo, hi = min(positions), max(positions)
    mline_lo = line_model.marginals[cert.order[lo]]
    mline_hi = line_model.marginals[cert.order[hi]]
    value = (mline_lo + mline_hi - cert.distance(lo, hi)) / 2
    if value != line_model.model.lambda_of(subset):
        raise InternalError("line formula disagrees with the model's lambda")
    return value


# ---------------------------------------------------------------------------
# Decomposition uniqueness.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RigidityReport:
    """Cut-weight ranges of a semimetric's decompositions, with a verdict.

    A rigid report (unique decomposition) is a *proof*: its ranges are the
    one decomposition x*, and ``certificate`` holds multipliers y, one per
    pair (i, j), i < j, in lexicographic order (the rows of
    ``realize.cut_system``), with y'A_J >= 1 for every cut J outside the
    support of x*, y'A_J >= 0 for the cuts inside it, and y'd = 0.  Any
    decomposition x then has sum of x_J over cuts outside the support
    <= y'A x = y'd = 0, so it lives on the support, whose cut vectors are
    linearly independent (they are basic in the simplex that found x*).
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


def rigidity_probe(d: SemiMetric, trials: int = 20, seed: int = 0) -> RigidityReport:
    """Decide whether d has exactly one cut decomposition, with a proof.

    Phase one of the cut system gives a decomposition x* with support S,
    which lies inside the simplex basis, so the cut vectors of S are
    linearly independent.  One warm-started LP maximizes the total weight
    outside S: the decomposition is unique iff that optimum is 0, and its
    dual is then the report's certificate, checked here in integers.  A
    unique x* is the optimum of every objective, so the report is what
    ``trials`` objectives would observe, built without solving them.

    Otherwise the cut system is re-solved under ``trials`` objectives,
    alternating between single-cut min/max pairs (cycling through the
    canonical cuts) and seeded random integer cost vectors, each warm-started
    from the phase-one basis.  If those all return one decomposition, x* and
    the decider's optimum (which differ) are added, so a non-unique d never
    gets a rigid report.  Requires d to be decomposable at all.
    """
    from .realize import _pairings, cut_system  # deferred: realize imports this module

    if trials < 1:
        raise ValueError("need at least one objective")
    cols, rows, rhs = cut_system(d)
    if not rows:
        # p = 1: no pairs and no cuts; the empty decomposition is the only one
        return RigidityReport(d.p, (), True, None, 1, ())
    from .lp import ExactSimplex

    lp = ExactSimplex(rows, rhs)
    if not lp.feasible:
        raise NotInCutCone("semimetric admits no cut decomposition")
    n = len(cols)
    x_star = lp.witness()
    outside = [0 if v else 1 for v in x_star]
    decider = lp.copy()
    excess, x_other = decider.maximize(outside)
    if excess == 0:
        # the certificate in integers: y = ys / q, q > 0
        ys, q = to_common_numerators(decider.dual)
        bs, _ = to_common_numerators(rhs)
        if sum(a * b for a, b in zip(ys, bs)) != 0:
            raise InternalError("uniqueness certificate: y'd != 0")
        loads = _pairings(ys, rows).tolist()  # q * y'A_j
        for j, (load, out) in enumerate(zip(loads, outside)):
            if load < q * out:
                raise InternalError(f"uniqueness certificate fails on cut column {j}")
        ranges = tuple((cols[j], x_star[j], x_star[j]) for j in range(n))
        return RigidityReport(d.p, ranges, True, None, trials, tuple(decider.dual))

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
