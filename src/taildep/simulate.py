"""Monte-Carlo engine for the max-stable models, with exact cross-checks.

Sampling uses the atomic spectral construction directly: one standard
1-Frechet variable per atom (inverse transform Z = 1/E from a unit
exponential), each component taking the max of its atoms' weighted values.
The spectral measure here is finitely atomic, so this is exact, not a
truncated series.

Streams are counter-based (Philox) and seeded per block through spawn
keys, so identical (seed, block size) produce bit-identical output and
blocks are independent, which makes estimator merges associative.  All
exceedance counting is strict (X > u).

Inside a block, rows are drawn a fixed chunk at a time from the block's
one generator; consecutive fills continue the same Philox stream, so a
chunk boundary changes no value.  Each chunk of exponentials becomes
1 / E_J in place and is then weighted as it is transposed, in one
multiply into one row per atom, so every value still gets the same two
IEEE operations, 1 / E then times beta(J), whatever the chunking.  Each
atom's row is then folded into its components' running maxima through a
list of (component row, atom row) view pairs that is built once per chunk
height; max is exact, so the fold order does not matter either.  Blocks
run concurrently on a thread pool with one worker per available CPU
(numpy's generator fills and ufuncs release the GIL); each worker
allocates its chunk buffers once and reuses them for all of its blocks,
and the workers write disjoint slices of the output.  Every value is thus
a function of its block's stream alone, so the bytes returned depend on
(model, n, seed, block size) only, never on the thread count, the chunk
size or which worker drew a block.

Every coefficient estimate is read off the exceedance-set histogram.  The
extremal coefficients are functionals of the random exceedance set
{i : X_i > u} (the paper's exceedance-set characterisation), so one pass
over the samples counts each distinct nonempty set M, and each target is
a sum over those sets:

    lambda(L) hits = sum of count(M) over M containing L   (M & L == L)
    theta(K) hits  = sum of count(M) over M meeting K      (M & K != 0)

Each sum runs vectorized over the observed sets, at most min(n, 2**p - 1)
of them, with no 2**p table, so it works up to HARD_MAX_P.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coeffs import HARD_MAX_P
from .errors import DegenerateModel, DomainError
from .rationals import RatLike, rat
from .tm import (
    TmModel,
    cdf,
    cdf_exponent,
    exact_joint_exceedance,
    exact_union_exceedance,
    ExceedanceSetDist,
    _check_mask,
)

DEFAULT_BLOCK_SIZE = 1 << 16
# Rows drawn and reduced at a time inside a block: the working set of one
# chunk stays in cache, and the chunk size never changes the output.
_CHUNK_ROWS = 4096


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def sample(
    model: TmModel,
    n: int,
    seed: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Draw n iid vectors from the model; returns an (n, p) float array.

    Component i is the max of beta(J) / E_J over atoms J containing i,
    with E_J unit exponentials redrawn independently per sample.  Block b
    draws from its own Philox stream (seed, spawn key b), a chunk of rows
    at a time into buffers its worker allocated once: 1 / E in place, then
    times beta(J) while being transposed to one row per atom, then folded
    into the component maxima through view pairs prebuilt per chunk
    height.  Blocks are drawn concurrently on a thread pool; the bytes
    returned depend on (model, n, seed, block_size) only, not on how many
    threads run.
    """
    if model.is_degenerate:
        raise DegenerateModel("cannot sample a model with all-zero weights")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if n < 1:
        raise DomainError("n must be >= 1")
    p = model.p
    support = model.support()
    # a column, one weight per atom row of the transposed chunk
    weights = np.array([float(v) for _, v in support])[:, None]
    members = [[i for i in range(p) if mask >> i & 1] for mask, _ in support]
    n_atoms = len(support)
    chunk = min(_CHUNK_ROWS, block_size, n)
    out = np.zeros((n, p))
    n_blocks = -(-n // block_size)
    workers = min(n_blocks, _available_cpus())

    def fill_share(first: int) -> None:
        # worker k takes blocks k, k + workers, ...: one task per worker, so
        # a million one-row blocks queue no million futures.  The worker
        # allocates its chunk buffers once and keeps, per chunk height (at
        # most three: full, a block's last chunk, the last block's last
        # chunk), their views and the fold's (component row, atom row) pairs.
        z = np.empty((chunk, n_atoms))
        zt = np.empty((n_atoms, chunk))
        acc = np.empty((p, chunk))
        views = {}
        for block_index in range(first, n_blocks, workers):
            start = block_index * block_size
            stop = min(start + block_size, n)
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
            gen = np.random.Generator(np.random.Philox(ss))
            for lo in range(start, stop, chunk):
                rows = min(chunk, stop - lo)
                if rows not in views:
                    zr, ac = zt[:, :rows], acc[:, :rows]
                    folds = [(ac[i], zr[a]) for a, comps in enumerate(members) for i in comps]
                    views[rows] = z[:rows], zr, ac, folds
                zc, zr, ac, folds = views[rows]
                gen.standard_exponential(out=zc)
                np.divide(1.0, zc, out=zc)
                np.multiply(zc.T, weights, out=zr)
                ac.fill(0.0)
                for ai, za in folds:
                    np.maximum(ai, za, out=ai)
                out[lo : lo + rows] = ac.T

    if workers == 1:
        fill_share(0)
    else:
        # imported on first use: concurrent.futures loads logging, which no
        # other part of the package needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            # list() re-raises the first exception a worker hit
            list(pool.map(fill_share, range(workers)))
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


def _check_threshold(u: float) -> None:
    if not 0 < u < math.inf:
        raise DomainError(f"threshold u must be positive and finite, got {u}")


def estimation_report(
    model: TmModel,
    hist: ExceedanceHistogram,
    lambda_subsets: Sequence[int] = (),
    theta_subsets: Sequence[int] = (),
) -> EstimationReport:
    """One row per target; its hits are a sum over the histogram's sets (module docstring)."""
    _check_threshold(hist.u)
    if hist.p != model.p:
        raise DomainError(f"histogram has p={hist.p} but the model has p={model.p}")
    u, n = hist.u, hist.n_total
    if n == 0:  # every estimate and its standard error divide by n
        raise DomainError("cannot estimate from 0 samples")
    table = np.array(hist.counts, dtype=np.int64).reshape(-1, 2)
    masks, counts = table[:, 0], table[:, 1]
    rows = []
    for kind, subsets in (("lambda", lambda_subsets), ("theta", theta_subsets)):
        for subset in subsets:
            _check_mask(subset, model.p)
            common = masks & subset
            if kind == "lambda":
                hits = counts[common == subset].sum()
                exact = exact_joint_exceedance(model, subset, u)
                limit = model.lambda_of(subset)
            else:
                hits = counts[common != 0].sum()
                exact = exact_union_exceedance(model, subset, u)
                limit = model.theta_of(subset)
            phat = hits / n
            rows.append(EstimationRow(
                kind=kind,
                subset=subset,
                u=u,
                n=n,
                empirical=u * phat,
                exact_finite_u=u * exact,
                asymptotic=float(limit),
                std_error=u * float(np.sqrt(phat * (1 - phat) / n)),
            ))
    return EstimationReport(u=u, n=n, rows=tuple(rows))


def estimate_lambda(
    model: TmModel, samples: np.ndarray, subset: int, u: float
) -> EstimationRow:
    """u * fraction of samples with every component of the subset above u."""
    return estimation_report(model, exceedance_set_histogram(samples, u), [subset]).rows[0]


def estimate_theta(
    model: TmModel, samples: np.ndarray, subset: int, u: float
) -> EstimationRow:
    """u * fraction of samples with some component of the subset above u."""
    return estimation_report(model, exceedance_set_histogram(samples, u), (), [subset]).rows[0]


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
    _check_threshold(u)
    n, p = samples.shape
    if p > HARD_MAX_P:
        raise DomainError(f"p={p} exceeds the hard cap {HARD_MAX_P}")
    # bit i of row r's mask is samples[r, i] > u.  Rows are padded to whole
    # bytes so one flat packbits packs them (far faster than packing along
    # axis 1), and HARD_MAX_P < 32, so four little-endian bytes hold a mask.
    nbytes = -(-p // 8)
    bits = np.zeros((n, 8 * nbytes), dtype=bool)
    np.greater(samples, u, out=bits[:, :p])
    packed = np.zeros((n, 4), dtype=np.uint8)
    packed[:, :nbytes] = np.packbits(bits, bitorder="little").reshape(n, nbytes)
    masks = packed.view("<u4").ravel()
    masks = masks[masks > 0]
    values, counts = np.unique(masks, return_counts=True)
    return ExceedanceHistogram(
        p=p,
        u=u,
        n_total=n,
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
    n = samples.shape[0]
    if n == 0:
        raise DomainError("cannot test a marginal on 0 samples")
    if not 0 <= component < model.p:
        raise DomainError(f"component {component} out of range for p={model.p}")
    scale = float(model.marginal_scales()[component])
    x = np.sort(samples[:, component])
    if scale == 0:
        return float((x > 0).mean())
    cdf_vals = np.exp(-scale / np.maximum(x, 1e-300))
    upper = np.abs(np.arange(1, n + 1) / n - cdf_vals).max()
    lower = np.abs(cdf_vals - np.arange(0, n) / n).max()
    return float(max(upper, lower))


__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "sample",
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
