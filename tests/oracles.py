"""Independent brute-force oracles for the lattice algebra and the sampler.

Everything here is written as the naive O(4**p) double loop straight off the
defining sums, deliberately sharing no code with the transforms under test.
The sampler and exact-law references are earlier, plainer implementations
kept to pin that the faster ones return the same bytes.
"""

from __future__ import annotations

import math

import numpy as np

from taildep.coeffs import Kind, SubsetFn
from taildep.rationals import ZERO, Rat


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
