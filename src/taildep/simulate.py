"""Monte-Carlo engine for the max-stable models, with exact cross-checks.

Sampling uses the atomic spectral construction directly: one standard
1-Frechet variable per atom (inverse transform Z = 1/E from a unit
exponential), each component taking the max of its atoms' weighted values.
The spectral measure here is finitely atomic, so this is exact, not a
truncated series.

Streams are counter-based (Philox) and seeded per block through spawn
keys, so identical (seed, block size) produce bit-identical output and
blocks are independent, which makes generation embarrassingly parallel
and estimator merges associative.  All exceedance counting is strict
(X > u).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateModel, DomainError
from .rationals import RatLike, rat
from .tm import (
    TmModel,
    cdf,
    cdf_exponent,
    exact_joint_exceedance,
    exact_union_exceedance,
    ExceedanceSetDist,
)

DEFAULT_BLOCK_SIZE = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Reproducible sampling run: identical configs give bit-identical output."""

    model: TmModel
    n_samples: int
    u: float
    seed: int
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise DomainError("n_samples must be >= 1")
        if not self.u > 0:
            raise DomainError("threshold u must be positive")
        if self.block_size < 1:
            raise DomainError("block_size must be >= 1")


def sample_config(config: SimConfig) -> np.ndarray:
    """Draw the sample stream described by a config, bit-reproducibly."""
    return sample(
        config.model, config.n_samples, config.seed, block_size=config.block_size
    )


def sample(
    model: TmModel,
    n: int,
    seed: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Draw n iid vectors from the model; returns an (n, p) float array.

    Component i is the max of beta(J) / E_J over atoms J containing i,
    with E_J unit exponentials redrawn independently per sample.
    """
    if model.is_degenerate:
        raise DegenerateModel("cannot sample a model with all-zero weights")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if n < 1:
        raise DomainError("n must be >= 1")
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


# ---------------------------------------------------------------------------
# Coefficient estimators with exact references.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimationRow:
    """One estimation target: empirical value vs its two references.

    ``exact_finite_u`` is u times the closed-form exceedance probability at
    the same threshold (the unbiased comparison point); ``asymptotic`` is
    the limiting coefficient, which the empirical value approaches only as
    u grows.  ``std_error`` = u * sqrt(phat (1 - phat) / n).
    """

    kind: str  # "lambda" | "theta"
    subset: int
    u: float
    n: int
    empirical: float
    exact_finite_u: float
    asymptotic: float
    std_error: float

    def deviation_in_se(self) -> float:
        if self.std_error == 0:
            return 0.0 if self.empirical == self.exact_finite_u else float("inf")
        return abs(self.empirical - self.exact_finite_u) / self.std_error


@dataclass(frozen=True)
class EstimationReport:
    u: float
    n: int
    rows: tuple


def estimate_lambda(
    model: TmModel, samples: np.ndarray, subset: int, u: float
) -> EstimationRow:
    """u * fraction of samples with every component of the subset above u."""
    if not u > 0:
        raise DomainError("threshold u must be positive")
    bits = [i for i in range(model.p) if subset >> i & 1]
    if not bits:
        raise DomainError("subset must be nonempty")
    n = samples.shape[0]
    hits = int((samples[:, bits].min(axis=1) > u).sum())
    phat = hits / n
    return EstimationRow(
        kind="lambda",
        subset=subset,
        u=u,
        n=n,
        empirical=u * phat,
        exact_finite_u=u * exact_joint_exceedance(model, subset, u),
        asymptotic=float(model.lambda_of(subset)),
        std_error=u * float(np.sqrt(phat * (1 - phat) / n)),
    )


def estimate_theta(
    model: TmModel, samples: np.ndarray, subset: int, u: float
) -> EstimationRow:
    """u * fraction of samples with some component of the subset above u."""
    if not u > 0:
        raise DomainError("threshold u must be positive")
    bits = [i for i in range(model.p) if subset >> i & 1]
    if not bits:
        raise DomainError("subset must be nonempty")
    n = samples.shape[0]
    hits = int((samples[:, bits].max(axis=1) > u).sum())
    phat = hits / n
    return EstimationRow(
        kind="theta",
        subset=subset,
        u=u,
        n=n,
        empirical=u * phat,
        exact_finite_u=u * exact_union_exceedance(model, subset, u),
        asymptotic=float(model.theta_of(subset)),
        std_error=u * float(np.sqrt(phat * (1 - phat) / n)),
    )


def estimation_report(
    model: TmModel,
    samples: np.ndarray,
    u: float,
    lambda_subsets: Sequence[int] = (),
    theta_subsets: Sequence[int] = (),
) -> EstimationReport:
    rows = [estimate_lambda(model, samples, s, u) for s in lambda_subsets]
    rows += [estimate_theta(model, samples, s, u) for s in theta_subsets]
    return EstimationReport(u=u, n=samples.shape[0], rows=tuple(rows))


# ---------------------------------------------------------------------------
# Exceedance-set histogram.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExceedanceHistogram:
    """Empirical law of the exceedance set {i : X_i > u}, given nonempty."""

    p: int
    u: float
    n_total: int
    n_nonempty: int
    counts: tuple  # ((mask, count), ...) for observed nonempty sets

    def empirical(self) -> dict[int, float]:
        if self.n_nonempty == 0:
            return {}
        return {m: c / self.n_nonempty for m, c in self.counts}


def exceedance_set_histogram(
    samples: np.ndarray, u: float
) -> ExceedanceHistogram:
    if not u > 0:
        raise DomainError("threshold u must be positive")
    p = samples.shape[1]
    powers = (1 << np.arange(p)).astype(np.int64)
    masks = (samples > u).astype(np.int64) @ powers
    masks = masks[masks > 0]
    values, counts = np.unique(masks, return_counts=True)
    return ExceedanceHistogram(
        p=p,
        u=u,
        n_total=samples.shape[0],
        n_nonempty=int(masks.size),
        counts=tuple((int(m), int(c)) for m, c in zip(values, counts)),
    )


def tv_distance(hist: ExceedanceHistogram, dist: ExceedanceSetDist) -> float:
    """Total-variation distance between the histogram and the limit pmf."""
    emp = hist.empirical()
    limit = {m: float(q) for m, q in dist.pmf}
    total = 0.0
    for m in set(emp) | set(limit):
        total += abs(emp.get(m, 0.0) - limit.get(m, 0.0))
    return total / 2.0


# ---------------------------------------------------------------------------
# Max-stability diagnostics.
# ---------------------------------------------------------------------------


def max_stability_exponent_identity(
    model: TmModel, x: Sequence[RatLike], n_fold: int
) -> bool:
    """Symbolic check of the stability identity on the CDF exponent.

    P[X <= x] = P[X <= n x]**n is equivalent to n * E(n x) = E(x) for the
    rational exponent E; this verifies it exactly.
    """
    if n_fold < 1:
        raise DomainError("n_fold must be >= 1")
    xs = [rat(v) for v in x]
    scaled = [n_fold * v for v in xs]
    return n_fold * cdf_exponent(model, scaled) == cdf_exponent(model, xs)


@dataclass(frozen=True)
class MaxStabilityPoint:
    x: tuple
    empirical: float
    exact: float
    std_error: float
    flagged: bool


@dataclass(frozen=True)
class MaxStabilityReport:
    n_fold: int
    n: int
    points: tuple

    @property
    def flags(self) -> int:
        return sum(1 for pt in self.points if pt.flagged)


def max_stability_check(
    model: TmModel,
    n_fold: int,
    grid: Sequence[Sequence[float]],
    n: int = 100_000,
    seed: int = 0,
    se_factor: float = 4.0,
) -> MaxStabilityReport:
    """Empirical CDF of scaled n_fold-wise maxima against the exact CDF.

    Draws n groups of n_fold samples, takes componentwise maxima divided by
    n_fold (distributed like one sample), and flags grid points where the
    empirical CDF strays beyond ``se_factor`` binomial standard errors.
    """
    if n_fold < 2:
        raise DomainError("n_fold must be >= 2")
    raw = sample(model, n * n_fold, seed)
    maxima = raw.reshape(n, n_fold, model.p).max(axis=1) / n_fold
    points = []
    for x in grid:
        xs = [float(v) for v in x]
        exact = cdf(model, xs)
        emp = float((maxima <= np.asarray(xs)).all(axis=1).mean())
        se = float(np.sqrt(exact * (1 - exact) / n))
        flagged = abs(emp - exact) > se_factor * se
        points.append(
            MaxStabilityPoint(tuple(xs), emp, exact, se, flagged)
        )
    return MaxStabilityReport(n_fold=n_fold, n=n, points=tuple(points))


# ---------------------------------------------------------------------------
# Marginal-law diagnostic.
# ---------------------------------------------------------------------------


def marginal_ks_statistic(model: TmModel, samples: np.ndarray, component: int) -> float:
    """Kolmogorov-Smirnov distance of one marginal to its exact Frechet law."""
    scale = float(model.marginal_scales()[component])
    x = np.sort(samples[:, component])
    n = x.size
    if scale == 0:
        return float((x > 0).mean())
    cdf_vals = np.exp(-scale / np.maximum(x, 1e-300))
    upper = np.abs(np.arange(1, n + 1) / n - cdf_vals).max()
    lower = np.abs(cdf_vals - np.arange(0, n) / n).max()
    return float(max(upper, lower))


__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "SimConfig",
    "sample",
    "sample_config",
    "EstimationRow",
    "EstimationReport",
    "estimate_lambda",
    "estimate_theta",
    "estimation_report",
    "ExceedanceHistogram",
    "exceedance_set_histogram",
    "tv_distance",
    "max_stability_exponent_identity",
    "MaxStabilityPoint",
    "MaxStabilityReport",
    "max_stability_check",
    "marginal_ks_statistic",
]
