"""Independent brute-force oracles for the lattice algebra and the sampler.

Everything here is written as the naive O(4**p) double loop straight off the
defining sums, deliberately sharing no code with the transforms under test.
The sampler and exact-law references are earlier, plainer implementations
kept to pin that the faster ones return the same bytes; the estimator
reference counts each target's hits with its own gather over every sample,
as the estimators did before they read the exceedance-set histogram, kept
to pin that they report the same rows; the rigidity reference is the
objective-cycling probe that the exact uniqueness decider replaced, kept to
pin that the decider reports what it reported; the dense simplex is the
Bareiss tableau that the revised simplex in ``lp`` replaced, kept to pin
that it makes the same pivots; the line-metric references are
the ``Fraction`` versions of detection, the line model and the collapse of
higher-order coefficients that the integer ones replaced, kept to pin that
those return the same values of the same types; the instance references
are the per-pair ``Fraction`` loops that ``random_cut_metric`` and
``pair_matrix_from_beta`` ran before they went through the shared
incidence, kept to pin that every generated instance stays the same; the
butterfly reference is the level loop the transforms ran before they sized
numpy's ufunc buffer to each level's run, kept to pin that every transform
returns the same numerators; the violation references are the per-subset
``Fraction`` loops over ``values`` that the numerator checks replaced, kept
to pin that those return the same pairs in the same order.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from taildep.coeffs import Kind, SubsetFn, TdMatrix
from taildep.errors import InternalError, TaildepError, UnboundedObjective
from taildep.lp import ExactSimplex, SimplexStats
from taildep.rationals import ZERO, Rat, rat, to_common_numerators
from taildep.realize import cut_system
from taildep.spectral import (
    CutDecomposition,
    LineMetricCert,
    LineTmModel,
    NotLine,
    NotRealizableAtTheseMarginals,
    RigidityReport,
    SemiMetric,
)
from taildep.simulate import EstimationRow
from taildep.tm import TmModel, exact_joint_exceedance, exact_union_exceedance


def brute_lambda_from_beta(beta: SubsetFn) -> SubsetFn:
    p = beta.p
    vals = []
    for L in range(1, 1 << p):
        acc = ZERO
        for J in range(1, 1 << p):
            if J & L == L:
                acc += beta[J]
        vals.append(acc)
    return SubsetFn(p, tuple(vals), Kind.LAMBDA)


def brute_theta_from_beta(beta: SubsetFn) -> SubsetFn:
    p = beta.p
    vals = []
    for K in range(1, 1 << p):
        acc = ZERO
        for J in range(1, 1 << p):
            if J & K:
                acc += beta[J]
        vals.append(acc)
    return SubsetFn(p, tuple(vals), Kind.THETA)


def brute_beta_from_lambda(lam: SubsetFn) -> list:
    p = lam.p
    vals = []
    for J in range(1, 1 << p):
        acc = ZERO
        for L in range(1, 1 << p):
            if L & J == J:
                extra = (L & ~J).bit_count()
                acc += lam[L] if extra % 2 == 0 else -lam[L]
        vals.append(acc)
    return vals


def brute_beta_from_theta(theta: SubsetFn) -> list:
    p = theta.p
    full = (1 << p) - 1
    vals = []
    for J in range(1, 1 << p):
        jc = full ^ J
        acc = ZERO
        for K in range(1, 1 << p):
            if K & jc == jc:
                sign = (J & K).bit_count() + 1
                acc += theta[K] if sign % 2 == 0 else -theta[K]
        vals.append(acc)
    return vals


def brute_theta_from_lambda(lam: SubsetFn) -> SubsetFn:
    p = lam.p
    vals = []
    for K in range(1, 1 << p):
        acc = ZERO
        for L in range(1, 1 << p):
            if L & K == L:
                acc += lam[L] if L.bit_count() % 2 == 1 else -lam[L]
        vals.append(acc)
    return SubsetFn(p, tuple(vals), Kind.THETA)


def brute_lambda_from_theta(theta: SubsetFn) -> SubsetFn:
    p = theta.p
    vals = []
    for L in range(1, 1 << p):
        acc = ZERO
        for K in range(1, 1 << p):
            if K & L == K:
                acc += theta[K] if K.bit_count() % 2 == 1 else -theta[K]
        vals.append(acc)
    return SubsetFn(p, tuple(vals), Kind.LAMBDA)


def reference_butterfly(
    arr: np.ndarray, p: int, op: np.ufunc, *, superset: bool, swap: bool = False
) -> np.ndarray:
    """The in-place lattice butterfly of `coeffs._butterfly` under the
    caller's ufunc buffer at every level."""
    for i in range(p):
        block = arr.reshape(-1, 2, 1 << i)
        lo, hi = block[:, 0], block[:, 1]
        w, o = (lo, hi) if superset else (hi, lo)
        args = (o, w) if swap else (w, o)
        op(*args, out=w, order="F" if i < 4 else "C")
    return arr


def reference_lambda_violations(lam: SubsetFn) -> list[tuple[int, int]]:
    out = []
    for mask in range(1, 1 << lam.p):
        v = lam.values[mask - 1]
        for i in range(lam.p):
            bit = 1 << i
            if not mask & bit:
                if v < lam.values[(mask | bit) - 1]:
                    out.append((mask, mask | bit))
    return out


def reference_theta_violations(theta: SubsetFn) -> list[tuple[int, int]]:
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


def brute_cut_reconstruction(weights: dict, p: int) -> list[list]:
    """d(i,j) = sum over cuts of weight(J) * |1_J(i) - 1_J(j)| by direct loop."""
    d = [[ZERO] * p for _ in range(p)]
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            acc = ZERO
            for J, w in weights.items():
                ini = bool(J >> i & 1)
                inj = bool(J >> j & 1)
                if ini != inj:
                    acc += w
            d[i][j] = acc
    return d


def reference_random_cut_metric(p: int, rng: random.Random, n_cuts: int | None = None) -> SemiMetric:
    """``instances.random_cut_metric`` as a per-pair loop over the drawn cuts."""
    if n_cuts is None:
        n_cuts = max(2, p)
    rows = [[ZERO] * p for _ in range(p)]
    for _ in range(n_cuts):
        mask = rng.randrange(1, (1 << p) - 1)
        w = rat(rng.randint(0, 12), 8)
        for i in range(p):
            ini = mask >> i & 1
            for j in range(i + 1, p):
                if ini != (mask >> j & 1):
                    rows[i][j] += w
                    rows[j][i] += w
    return SemiMetric(p, tuple(tuple(row) for row in rows))


def reference_pair_matrix_from_beta(beta: SubsetFn) -> TdMatrix:
    """``instances.pair_matrix_from_beta`` as direct pair sums over the support."""
    p = beta.p
    rows = [[ZERO] * p for _ in range(p)]
    for mask, v in beta.support():
        for i in range(p):
            if mask >> i & 1:
                rows[i][i] += v
                for j in range(i + 1, p):
                    if mask >> j & 1:
                        rows[i][j] += v
                        rows[j][i] += v
    return TdMatrix(p, tuple(tuple(r) for r in rows))


def brute_bernoulli_moment(pmf: dict, subset_mask: int) -> Rat:
    """E[prod of indicator(i in Theta) for i in subset] under a set-valued pmf."""
    acc = ZERO
    for J, prob in pmf.items():
        if J & subset_mask == subset_mask:
            acc += prob
    return acc


def reference_sample(model, n: int, seed: int, block_size: int) -> np.ndarray:
    """The per-block sampler: one exponential matrix per block, one gather per component."""
    support = model.support()
    weights = np.array([float(v) for _, v in support])
    atoms_of = [
        np.array([a for a, (mask, _) in enumerate(support) if mask >> i & 1], dtype=int)
        for i in range(model.p)
    ]
    out = np.zeros((n, model.p))
    n_atoms = len(support)
    start = 0
    block_index = 0
    while start < n:
        take = min(block_size, n - start)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
        gen = np.random.Generator(np.random.Philox(ss))
        z = 1.0 / gen.standard_exponential((take, n_atoms))
        for i in range(model.p):
            idx = atoms_of[i]
            if idx.size:
                out[start : start + take, i] = (z[:, idx] * weights[idx]).max(axis=1)
        start += take
        block_index += 1
    return out


def reference_joint_exceedance(model, subset: int, u: float) -> float:
    """Inclusion-exclusion over expm1 terms, theta(S) summed in rationals per submask."""
    support = model.support()
    bits = [1 << i for i in range(model.p) if subset >> i & 1]
    acc = 0.0
    for pick in range(1 << len(bits)):
        s_mask = 0
        for t, bit in enumerate(bits):
            if pick >> t & 1:
                s_mask |= bit
        theta_s = sum((v for m, v in support if m & s_mask), ZERO)
        term = math.expm1(-float(theta_s) / u)
        acc += term if pick.bit_count() % 2 == 0 else -term
    return acc


def reference_estimate(
    kind: str, model, samples: np.ndarray, subset: int, u: float
) -> EstimationRow:
    """The per-column estimator: one gather over every row of samples > u per target.

    Samples are never NaN, so "all of the subset's columns exceed u" is
    min > u and "some column exceeds u" is max > u.
    """
    bits = [i for i in range(model.p) if subset >> i & 1]
    n = samples.shape[0]
    cols = (samples > u)[:, bits]
    if kind == "lambda":
        hits = np.count_nonzero(cols.all(axis=1))
        exact = exact_joint_exceedance(model, subset, u)
        limit = model.lambda_of(subset)
    else:
        hits = np.count_nonzero(cols.any(axis=1))
        exact = exact_union_exceedance(model, subset, u)
        limit = model.theta_of(subset)
    phat = hits / n
    return EstimationRow(
        kind=kind,
        subset=subset,
        u=u,
        n=n,
        empirical=u * phat,
        exact_finite_u=u * exact,
        asymptotic=float(limit),
        std_error=u * float(np.sqrt(phat * (1 - phat) / n)),
    )


def reference_rigidity_probe(d, trials: int = 20, seed: int = 0) -> RigidityReport:
    """The objective-cycling probe: weight ranges seen under ``trials`` solves.

    Objectives alternate between single-cut min/max pairs (cycling through
    the canonical cuts) and seeded random integer cost vectors.  All-
    degenerate ranges are only evidence of uniqueness.
    """
    if trials < 1:
        raise ValueError("need at least one objective")
    cols, rows, rhs = cut_system(d)
    lp = ExactSimplex(rows, rhs) if len(rows) else None
    if lp is not None and not lp.feasible:
        raise ValueError("semimetric admits no cut decomposition")
    n = len(cols)
    lo = [None] * n
    hi = [None] * n
    first_x = None
    witness_pair = None
    rng = random.Random(seed)

    def record(x):
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

    used = 0
    if lp is None or n == 0:
        record([])
        used = 1
    else:
        cut_cycle = 0
        while used < trials:
            if used % 4 in (0, 1):
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
            used += 1

    ranges = tuple(
        (cols[j], lo[j] if lo[j] is not None else ZERO, hi[j] if hi[j] is not None else ZERO)
        for j in range(n)
    )
    rigid = all(l == h for _, l, h in ranges)
    pair = None
    if witness_pair is not None:
        pair = tuple(
            CutDecomposition(
                d.p, tuple((cols[j], x[j]) for j in range(n) if x[j] != 0), ZERO
            )
            for x in witness_pair
        )
    return RigidityReport(d.p, ranges, rigid, pair, used)


def _fraction_prefix(weights) -> list:
    prefix = [ZERO]
    for w in weights:
        prefix.append(prefix[-1] + w)
    return prefix


def reference_detect_line_metric(d):
    """``detect_line_metric`` comparing and summing the entries of d as
    rationals: diametral anchor, order by distance from it (ties by index),
    then every pair checked against the prefix sums of the gaps."""
    p = d.p
    if p == 1:
        return LineMetricCert((0,), ())
    anchor, best = 0, ZERO
    for i in range(p):
        for j in range(i + 1, p):
            if d.d[i][j] > best:
                best, anchor = d.d[i][j], i
    order = tuple(sorted(range(p), key=lambda v: (d.d[anchor][v], v)))
    weights = tuple(d.d[order[k]][order[k + 1]] for k in range(p - 1))
    prefix = _fraction_prefix(weights)
    for i in range(p):
        for j in range(i + 1, p):
            if d.d[order[i]][order[j]] != prefix[j] - prefix[i]:
                return NotLine((order[i], order[j]))
    return LineMetricCert(order, weights)


def reference_line_tm_model(cert, marginals):
    """``line_tm_model`` in rationals: the prefix, suffix and full-set
    weights from the pairwise coefficients (m_k + m_{k+1} - w_k) / 2."""
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
    entries = {}
    for k in range(p - 1):
        pair = (mline[k] + mline[k + 1] - w[k]) / 2
        pre_mask, suf_mask = prefix_mask[k + 1], fm ^ prefix_mask[k + 1]
        entries[pre_mask] = entries.get(pre_mask, ZERO) + mline[k] - pair
        entries[suf_mask] = entries.get(suf_mask, ZERO) + mline[k + 1] - pair
    entries[fm] = entries.get(fm, ZERO) + (mline[0] + mline[-1] - sum(w, ZERO)) / 2
    negative = tuple((mask, v) for mask, v in sorted(entries.items()) if v < 0)
    if negative:
        return NotRealizableAtTheseMarginals(negative)
    model = TmModel.from_entries(p, {mask: v for mask, v in entries.items() if v != 0})
    if model.marginal_scales() != tuple(m):
        raise InternalError("line model does not reproduce its marginal scales")
    return LineTmModel(model, cert, tuple(m))


def reference_higher_order_from_line(line_model, subset: int):
    """``higher_order_from_line`` in rationals: (m_lo + x_lo) / 2 +
    (m_hi - x_hi) / 2 at J's extreme line positions lo <= hi, checked
    against the model's ``lambda_of``."""
    cert = line_model.cert
    p = cert.p
    if subset == 0 or subset >= (1 << p):
        raise ValueError(f"subset mask {subset} out of range")
    pos = cert.position_of()
    positions = [pos[i] for i in range(p) if subset >> i & 1]
    lo, hi = min(positions), max(positions)
    xs = _fraction_prefix(cert.weights)
    m_lo, m_hi = line_model.marginals[cert.order[lo]], line_model.marginals[cert.order[hi]]
    value = (m_lo + xs[lo]) / 2 + (m_hi - xs[hi]) / 2
    if value != line_model.model.lambda_of(subset):
        raise InternalError("line formula disagrees with the model's lambda")
    return value


def exact_weight_ranges(d) -> tuple:
    """((canonical mask, min, max), ...) of every cut weight over all
    decompositions of d, by one minimization and one maximization per cut."""
    cols, rows, rhs = cut_system(d)
    if not len(rows):
        return ()
    lp = ExactSimplex(rows, rhs)
    if not lp.feasible:
        raise ValueError("semimetric admits no cut decomposition")
    out = []
    for j, mask in enumerate(cols):
        unit = [0] * len(cols)
        unit[j] = 1
        low, _ = lp.minimize(unit)
        high, _ = lp.maximize(unit)
        out.append((mask, low, high))
    return tuple(out)


def fraction_certificate_holds(d, report: RigidityReport) -> bool:
    """Plain-Fraction check of a rigid report's certificate y: y'A_J >= [J
    outside the support of the ranges] for every canonical cut J, and y'd = 0,
    with the cut system rebuilt here from d by direct loops."""
    p = d.p
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    y = [Fraction(int(v.numerator), int(v.denominator)) for v in report.certificate]
    if len(y) != len(pairs):
        return False
    cuts = [m for m in range(1, (1 << p) - 1) if m & 1]
    if [m for m, _, _ in report.ranges] != cuts:
        return False
    dist = [Fraction(int(d.d[i][j].numerator), int(d.d[i][j].denominator)) for i, j in pairs]
    if sum(a * b for a, b in zip(y, dist)) != 0:
        return False
    for mask, low, high in report.ranges:
        if low != high:
            return False
        load = sum(
            (yk for yk, (i, j) in zip(y, pairs) if (mask >> i & 1) != (mask >> j & 1)),
            Fraction(0),
        )
        if load < (0 if low else 1):
            return False
    return True


def _exact(value):
    return value if type(value) is int else rat(value)


class DenseSimplex:
    """The dense Bareiss tableau simplex: every pivot rewrites all
    m x (n + m + 1) entries of N = D * B^-1 [A | I | b].

    Same entering rule, ratio test and answers as ``lp.ExactSimplex``, and
    the same ``stats`` counters (not the timings), so a test can require
    both to make the same pivots.
    """

    def __init__(self, rows, rhs) -> None:
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()  # Python ints: the tableau outgrows int64
        self.n = n = len(rows[0]) if rows else 0
        m = len(rows)
        if len(rhs) != m:
            raise ValueError("rhs length does not match row count")
        flat = []
        for row in rows:
            if len(row) != n:
                raise ValueError("ragged constraint matrix")
            flat.extend(_exact(v) for v in row)
        nums, self._scale_a = to_common_numerators(flat)
        b_nums, self._scale_b = to_common_numerators([_exact(v) for v in rhs])
        signs = []
        N: list[list[int]] = []
        for i in range(m):
            row = nums[i * n : (i + 1) * n]
            b = b_nums[i]
            if b < 0:
                row = [-v for v in row]
                b = -b
                signs.append(-1)
            else:
                signs.append(1)
            art = [0] * m
            art[i] = 1
            N.append(row + art + [b])
        self._signs = signs
        self._N = N
        self._D = 1
        self._basis = [n + i for i in range(m)]
        self.farkas = None
        self.dual = None
        self.stats = SimplexStats()
        self.feasible = self._phase_one(m)
        if self.feasible:
            self._eliminate_artificials()

    def _pivot(self, leave: int, col: int, obj: list | None = None) -> list | None:
        N = self._N
        D = self._D
        prow = N[leave]
        if prow[-1] == 0:
            self.stats.degenerate_pivots += 1
        piv = prow[col]
        if piv < 0:
            prow = N[leave] = [-v for v in prow]
            piv = -piv

        def update(row: list) -> list:
            f = row[col]
            if f:
                return [(a * piv - f * c) // D for a, c in zip(row, prow)]
            if piv == D:
                return row
            return [a * piv // D if a else 0 for a in row]

        for i in range(len(N)):
            if i != leave:
                N[i] = update(N[i])
        self._D = piv
        self.stats.d_bits = max(self.stats.d_bits, piv.bit_length())
        self._basis[leave] = col
        return None if obj is None else update(obj)

    def _ratio_test(self, col: int) -> int:
        N = self._N
        candidates = [i for i in range(len(N)) if N[i][col] > 0]
        if not candidates:
            return -1
        for j in [-1, *range(len(N[0]) - 1)]:
            if len(candidates) == 1:
                break
            best = candidates[0]
            bn, bd = N[best][j], N[best][col]
            keep = [best]
            for i in candidates[1:]:
                row = N[i]
                lhs, rhs = row[j] * bd, bn * row[col]
                if lhs < rhs:
                    bn, bd = row[j], row[col]
                    keep = [i]
                elif lhs == rhs:
                    keep.append(i)
            candidates = keep
        return candidates[0]

    def _phase_one(self, m: int) -> bool:
        N = self._N
        n = self.n
        z = [sum(column) for column in zip(*N)] if N else [0] * (n + 1)
        while True:
            best = max(z[:n], default=0)
            if best <= 0:
                break
            col = z.index(best)
            leave = self._ratio_test(col)
            if leave < 0:
                raise TaildepError("phase-one ratio test failed")
            z = self._pivot(leave, col, z)
            self.stats.phase_one_pivots += 1
        if z[-1] > 0:
            D = self._D
            self.farkas = [Rat(s * z[n + i], D) for i, s in enumerate(self._signs)]
            return False
        return True

    def _eliminate_artificials(self) -> None:
        N = self._N
        n = self.n
        keep = []
        for i in range(len(N)):
            if self._basis[i] >= n:
                col = next((j for j in range(n) if N[i][j] != 0), None)
                if col is None:
                    continue
                self._pivot(i, col)
                self.stats.phase_one_pivots += 1
            keep.append(i)
        self._N = [N[i] for i in keep]
        self._basis = [self._basis[i] for i in keep]

    def witness(self) -> list:
        if not self.feasible:
            raise TaildepError("no witness: system is infeasible")
        x = [ZERO] * self.n
        D = self._D
        for i, j in enumerate(self._basis):
            x[j] = Rat(self._N[i][-1] * self._scale_a, D * self._scale_b)
        return x

    def minimize(self, costs):
        if not self.feasible:
            raise TaildepError("cannot optimize an infeasible system")
        n = self.n
        signs = self._signs
        c, scale = to_common_numerators([_exact(v) for v in costs])
        N = self._N
        D = self._D
        rc = [cj * D for cj in c] + [0] * (len(signs) + 1)
        for i, j in enumerate(self._basis):
            f = c[j]
            if f:
                rc = [r - f * v for r, v in zip(rc, N[i])]
        while True:
            best = min(rc[:n], default=0)
            if best >= 0:
                break
            col = rc.index(best)
            leave = self._ratio_test(col)
            if leave < 0:
                raise UnboundedObjective("objective unbounded over the feasible cone")
            rc = self._pivot(leave, col, rc)
            self.stats.phase_two_pivots += 1
        D = self._D
        self.dual = [
            Rat(-s * rc[n + i] * self._scale_a, scale * D) for i, s in enumerate(signs)
        ]
        value = Rat(-rc[-1] * self._scale_a, scale * D * self._scale_b)
        return value, self.witness()

    def maximize(self, costs):
        value, x = self.minimize([-rat(v) for v in costs])
        self.dual = [-v for v in self.dual]
        return -value, x
