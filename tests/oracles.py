"""Independent brute-force oracles for the lattice algebra and the sampler.

Everything here is written as the naive O(4**p) double loop straight off the
defining sums, deliberately sharing no code with the transforms under test.
The sampler and exact-law references are earlier, plainer implementations
kept to pin that the faster ones return the same bytes; the rigidity
reference is the objective-cycling probe that the exact uniqueness decider
replaced, kept to pin that the decider reports what it reported.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from taildep.coeffs import Kind, SubsetFn
from taildep.lp import ExactSimplex
from taildep.rationals import ZERO, Rat, rat
from taildep.realize import cut_system
from taildep.spectral import CutDecomposition, RigidityReport


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


def reference_rigidity_probe(d, trials: int = 20, seed: int = 0) -> RigidityReport:
    """The objective-cycling probe: weight ranges seen under ``trials`` solves.

    Objectives alternate between single-cut min/max pairs (cycling through
    the canonical cuts) and seeded random integer cost vectors.  All-
    degenerate ranges are only evidence of uniqueness.
    """
    if trials < 1:
        raise ValueError("need at least one objective")
    cols, rows, rhs = cut_system(d)
    lp = ExactSimplex(rows, rhs) if rows else None
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


def exact_weight_ranges(d) -> tuple:
    """((canonical mask, min, max), ...) of every cut weight over all
    decompositions of d, by one minimization and one maximization per cut."""
    cols, rows, rhs = cut_system(d)
    if not rows:
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
