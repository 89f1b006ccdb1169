"""Deterministic fixture and random-instance generators.

These produce exact-rational instances with known ground truth: weight
systems with prescribed marginals, bivariate matrices that are realizable
by construction (or unrealizable by a forced triangle violation), line
metrics, graph metrics, and the bipartite K_{2,3} shortest-path metric,
the smallest graph metric outside the cut cone.

All randomness flows through a caller-supplied ``random.Random`` so every
corpus is reproducible from its seed.
"""

from __future__ import annotations

import random
from typing import Sequence

from .coeffs import Kind, SubsetFn, TdMatrix, lambda_from_beta, td_matrix
from .rationals import Rat, RatLike, ZERO, rat
from .spectral import CutDecomposition, SemiMetric
from .subsets import canonical_cut, full_mask, mask_of
from .tm import TmModel


def line_fixture_model() -> TmModel:
    """The running 3-component line example: gaps (1, 2), all marginals 2."""
    return TmModel.from_entries(
        3,
        {
            mask_of(1): rat("1/2"),
            mask_of(1, 2): 1,
            mask_of(1, 2, 3): rat("1/2"),
            mask_of(2, 3): rat("1/2"),
            mask_of(3): 1,
        },
    )


def line_fixture_metric() -> SemiMetric:
    return SemiMetric.from_rows([[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def independence_model(p: int) -> TmModel:
    return TmModel.from_entries(p, {1 << i: 1 for i in range(p)})


def comonotone_model(p: int, scale: RatLike = 1) -> TmModel:
    return TmModel.from_entries(p, {full_mask(p): rat(scale)})


def k23_metric() -> SemiMetric:
    """Shortest-path metric of complete bipartite K_{2,3} (parts {1,2} and {3,4,5})."""
    part = [0, 0, 1, 1, 1]
    rows = [
        [ZERO if i == j else rat(1) if part[i] != part[j] else rat(2) for j in range(5)]
        for i in range(5)
    ]
    return SemiMetric.from_rows(rows)


# ---------------------------------------------------------------------------
# Random weight systems.
# ---------------------------------------------------------------------------


def random_rat(rng: random.Random, lo: int = 0, hi: int = 16, den: int = 16) -> Rat:
    return rat(rng.randint(lo, hi), den)


def random_beta(
    p: int,
    rng: random.Random,
    n_atoms: int | None = None,
    den: int = 16,
) -> SubsetFn:
    """Sparse nonnegative weight system on ~n_atoms random subsets."""
    if n_atoms is None:
        n_atoms = max(2, 2 * p)
    entries: dict[int, Rat] = {}
    for _ in range(n_atoms):
        mask = rng.randrange(1, 1 << p)
        entries[mask] = entries.get(mask, ZERO) + rat(rng.randint(1, den), den)
    return SubsetFn.from_entries(p, entries, Kind.BETA)


def random_unit_margin_beta(p: int, rng: random.Random) -> SubsetFn:
    """Random nonnegative weights whose per-component sums are exactly 1.

    Scatter dyadic mass on random subsets, downscale so no marginal exceeds
    1, then top the singletons up to exact unit marginals.
    """
    entries: dict[int, Rat] = {}
    for _ in range(3 * p):
        mask = rng.randrange(1, 1 << p)
        entries[mask] = entries.get(mask, ZERO) + rat(rng.randint(1, 16), 256)
    margins = [
        sum((v for m, v in entries.items() if m >> i & 1), ZERO) for i in range(p)
    ]
    mx = max(margins)
    if mx > 1:
        entries = {m: v / (2 * mx) for m, v in entries.items()}
        margins = [v / (2 * mx) for v in margins]
    for i in range(p):
        top_up = 1 - margins[i]
        if top_up:
            entries[1 << i] = entries.get(1 << i, ZERO) + top_up
    return SubsetFn.from_entries(p, entries, Kind.BETA)


def pair_matrix_from_beta(beta: SubsetFn) -> TdMatrix:
    """Bivariate matrix of a weight system."""
    return td_matrix(lambda_from_beta(beta))


def violate_triangle(L: TdMatrix, rng: random.Random) -> TdMatrix:
    """Force a spectral-distance triangle violation into a unit-diagonal matrix.

    Realizable matrices satisfy L_ij + L_ik - L_jk <= 1 for every triple;
    pinning one triple to 7/8, 7/8, 1/8 breaks that while preserving the
    matrix-level invariants, so the result is never realizable.
    """
    p = L.p
    if p < 3:
        raise ValueError("need p >= 3 to violate a triangle")
    i, j, k = rng.sample(range(p), 3)
    rows = [list(row) for row in L.lam]
    hi = rat(rng.randint(14, 15), 16)
    lo = rat(rng.randint(0, 2), 16)
    rows[i][j] = rows[j][i] = hi
    rows[i][k] = rows[k][i] = hi
    rows[j][k] = rows[k][j] = lo
    return TdMatrix(p, tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# Random metrics.
# ---------------------------------------------------------------------------


def line_metric_from_weights(
    weights: Sequence[RatLike], order: Sequence[int] | None = None
) -> SemiMetric:
    """Line semimetric with the given consecutive gaps, optionally relabeled."""
    w = [rat(v) for v in weights]
    p = len(w) + 1
    if order is None:
        order = list(range(p))
    pos = {comp: k for k, comp in enumerate(order)}
    prefix = [ZERO]
    for v in w:
        prefix.append(prefix[-1] + v)
    rows = [
        [abs(prefix[pos[i]] - prefix[pos[j]]) for j in range(p)] for i in range(p)
    ]
    return SemiMetric.from_rows(rows)


def random_line_instance(
    p: int, rng: random.Random
) -> tuple[list[Rat], list[Rat]]:
    """Random gaps and marginal scales guaranteed to induce a valid model.

    The prefix/suffix weights are nonnegative iff consecutive marginals
    differ by at most the gap between them, and the full-set weight is
    nonnegative iff the end marginals cover the total length; both are
    arranged by a bounded random walk plus a global shift.
    """
    weights = [random_rat(rng, 0, 12, 4) for _ in range(p - 1)]
    marginals = [rat(rng.randint(1, 8), 2)]
    for w in weights:
        step_den = 4
        step = w * rat(rng.randint(-step_den, step_den), step_den)
        marginals.append(marginals[-1] + step)
    total = sum(weights, ZERO)
    shift = ZERO
    if marginals[0] + marginals[-1] < total:
        shift = (total - marginals[0] - marginals[-1] + 1) / 2
    floor = min(marginals)
    if floor + shift <= 0:
        shift += 1 - (floor + shift)
    marginals = [m + shift for m in marginals]
    return weights, marginals


def random_graph_metric(p: int, rng: random.Random, den: int = 8) -> SemiMetric:
    """Shortest-path closure of a random complete weighted graph.

    Always a metric; frequently outside the cut cone for p >= 5, which makes
    these good adversarial decider inputs.
    """
    d = [[ZERO] * p for _ in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            v = rat(rng.randint(1, 2 * den), den)
            d[i][j] = d[j][i] = v
    for k in range(p):
        for i in range(p):
            dik = d[i][k]
            for j in range(p):
                if d[i][j] > dik + d[k][j]:
                    d[i][j] = dik + d[k][j]
    return SemiMetric(p, tuple(tuple(row) for row in d))


def random_cut_metric(p: int, rng: random.Random, n_cuts: int | None = None) -> SemiMetric:
    """Nonnegative combination of random cut semimetrics (decomposable by build)."""
    if n_cuts is None:
        n_cuts = max(2, p)
    cuts: dict[int, Rat] = {}
    for _ in range(n_cuts):
        mask = canonical_cut(rng.randrange(1, full_mask(p)), p)
        cuts[mask] = cuts.get(mask, ZERO) + rat(rng.randint(0, 12), 8)
    return CutDecomposition(p, tuple(cuts.items()), ZERO).reconstruct()


def random_subset_pmf(
    p: int, rng: random.Random, include_empty: bool = False, n_atoms: int | None = None
) -> dict[int, Rat]:
    """Random exact pmf over subsets (optionally including the empty set)."""
    if n_atoms is None:
        n_atoms = max(2, 2 * p)
    lo = 0 if include_empty else 1
    weights: dict[int, int] = {}
    for _ in range(n_atoms):
        mask = rng.randrange(lo, 1 << p)
        weights[mask] = weights.get(mask, 0) + rng.randint(1, 9)
    total = sum(weights.values())
    return {mask: rat(w, total) for mask, w in weights.items()}
