"""Max-stable model synthesis from subset coefficients, and its exact laws.

A nonnegative weight beta(J) per nonempty subset J parameterizes the
max-stable vector

    X_i = max over J containing i of beta(J) * Z_J,

with Z_J iid standard 1-Frechet.  Its joint CDF is

    P[X <= x] = exp( - sum_J beta(J) / min_{i in J} x_i ),

so every distributional quantity of interest here has a closed form in the
weights.  The limiting exceedance set of the model (the set of components
that are simultaneously extreme, conditioned on some component being
extreme) is the random subset with pmf beta(J) / theta_total, which is also
the bridge to Bernoulli-compatible moment tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .coeffs import (
    Kind,
    SubsetFn,
    _butterfly,
    beta_from_lambda,
    beta_from_theta,
    lambda_from_beta,
    theta_from_beta,
)
from .errors import (
    DegenerateModel,
    DomainError,
    InternalError,
    InvalidPmf,
    ScaleTooSmall,
)
from .rationals import Rat, RatLike, ZERO, rat
from .subsets import set_str


def _check_mask(mask: int, p: int) -> None:
    """Refuse anything but a nonempty subset of {1, ..., p}."""
    if not 0 < mask < 1 << p:
        raise DomainError(f"subset mask {mask} out of range for p={p}")


@dataclass(frozen=True)
class TmModel:
    """Max-stable model given by nonnegative subset weights.

    Degenerate models (all weights zero) are representable; every
    coefficient query on them returns 0.
    """

    p: int
    beta: SubsetFn

    def __post_init__(self) -> None:
        if self.beta.kind is not Kind.BETA:
            raise ValueError("TmModel weights must have kind beta (all >= 0)")
        if self.beta.p != self.p:
            raise ValueError("dimension mismatch between p and weights")

    @classmethod
    def from_entries(cls, p: int, entries: Mapping[int, RatLike]) -> "TmModel":
        return cls(p, SubsetFn.from_entries(p, entries, Kind.BETA))

    @property
    def is_degenerate(self) -> bool:
        # the weights are nonnegative: all zero iff their sum is
        return self.beta.total() == 0

    def __getstate__(self) -> dict:
        # pickle the fields only, not the cached support numerators
        return {"p": self.p, "beta": self.beta}

    def support(self) -> tuple[tuple[int, Rat], ...]:
        """Nonzero weights as ((mask, weight), ...)."""
        return self.beta.support()

    def theta_total(self) -> Rat:
        """Total mass = extremal coefficient of the full index set."""
        return self.beta.total()

    def marginal_scales(self) -> tuple[Rat, ...]:
        """Scale of each 1-Frechet marginal: sum of weights over sets containing i."""
        return tuple(self.lambda_of(1 << i) for i in range(self.p))

    def lambdas(self) -> SubsetFn:
        return lambda_from_beta(self.beta)

    def thetas(self) -> SubsetFn:
        return theta_from_beta(self.beta)

    @cached_property
    def _support_numerators(self) -> tuple[list[int], list[int], int]:
        """(masks, numerators, den) of the support, over beta's denominator.

        Kept in the instance dict, outside the fields: equality, hash and
        repr never see it."""
        nums, den = self.beta._numerators()
        where = np.flatnonzero(nums)
        return (where + 1).tolist(), nums[where].tolist(), den

    def theta_of(self, mask: int) -> Rat:
        """theta(K) for one subset: an integer sum over the atoms meeting K."""
        _check_mask(mask, self.p)
        masks, nums, den = self._support_numerators
        return rat(sum(n for m, n in zip(masks, nums) if m & mask), den)

    def lambda_of(self, mask: int) -> Rat:
        _check_mask(mask, self.p)
        masks, nums, den = self._support_numerators
        return rat(sum(n for m, n in zip(masks, nums) if m & mask == mask), den)


@dataclass(frozen=True)
class RealizabilityFailure:
    """Witness that a coefficient system is not realizable: its negative atoms."""

    kind: Kind
    negative: tuple  # ((mask, value), ...)

    def masks(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.negative)

    def describe(self) -> str:
        parts = ", ".join(f"beta({set_str(m)}) = {v}" for m, v in self.negative)
        return f"not realizable; negative atom weights: {parts}"


def synthesize(system: SubsetFn) -> TmModel | RealizabilityFailure:
    """Invert a lambda or theta system to model weights, if one exists.

    Returns the model whose coefficients reproduce the input exactly
    (checked by re-applying the forward transform), or the list of subsets
    with negative inverted weight as the failure witness.
    """
    if system.kind is Kind.LAMBDA:
        inv = beta_from_lambda(system)
        forward = lambda_from_beta
    elif system.kind is Kind.THETA:
        inv = beta_from_theta(system)
        forward = theta_from_beta
    else:
        raise ValueError(f"synthesize expects kind lambda or theta, got {system.kind.value}")
    if inv.kind is Kind.RAW:
        negative = tuple((m, inv[m]) for m in inv.negative_masks())
        return RealizabilityFailure(system.kind, negative)
    model = TmModel(system.p, inv)
    # Moebius inversion is exact, so this can only trip on an internal bug.
    # The round trip keeps the input's denominator, so this compares integer
    # numerators and builds no rationals.
    if forward(inv) != system:
        raise InternalError("Moebius inversion does not reproduce its input")
    return model


# ---------------------------------------------------------------------------
# Exact distributional formulas.
# ---------------------------------------------------------------------------


def cdf_exponent(model: TmModel, x: Sequence[RatLike]) -> Rat:
    """Exact rational exponent E(x) with P[X <= x] = exp(-E(x)).

    E(x) = sum over atoms J of beta(J) / min_{i in J} x_i.  Exposed
    separately so the max-stability identity n * E(n x) = E(x) can be
    machine-checked symbolically.
    """
    xs = [rat(v) for v in x]
    if len(xs) != model.p:
        raise DomainError(f"expected {model.p} coordinates, got {len(xs)}")
    if any(v <= 0 for v in xs):
        raise DomainError("all coordinates must be positive")
    acc = ZERO
    for mask, w in model.support():
        m = min(xs[i] for i in range(model.p) if mask >> i & 1)
        acc += w / m
    return acc


def cdf(model: TmModel, x: Sequence[float]) -> float:
    """P[X_i <= x_i for all i], evaluated in floating point."""
    if len(x) != model.p:
        raise DomainError(f"expected {model.p} coordinates, got {len(x)}")
    if any(not v > 0 for v in x):
        raise DomainError("all coordinates must be positive")
    acc = 0.0
    for mask, w in model.support():
        m = min(float(x[i]) for i in range(model.p) if mask >> i & 1)
        acc += float(w) / m
    return math.exp(-acc)


def exact_joint_exceedance(model: TmModel, subset: int, u: float) -> float:
    """P[X_i > u for every i in the subset], by inclusion-exclusion.

    Expanding the product of (1 - indicator(X_i <= u)) gives

        P = sum over S inside the subset of (-1)^|S| exp(-theta(S) / u),

    with theta(empty) = 0.  Multiplied by u this converges to lambda(subset)
    as u grows; the gap is O(1/u), so finite-u values are the honest
    comparison target for simulation output.

    The signs sum to zero over a nonempty subset, so each exp term is taken
    as expm1 = exp - 1 without changing the sum.  At large u every exp term
    rounds to 1 and their sum cancels to nothing, while each expm1 term
    keeps -theta(S) / u to full relative precision.

    Every theta(S) comes from one table: each atom's integer numerator
    (over beta's common denominator) is added at the atom's trace on
    the subset, one subset-sum pass turns that into the weight of atoms
    whose trace lies inside T, and theta(S) is the total minus that weight
    at T = subset minus S.  The int true division numerator / denominator
    rounds correctly, as float() of the exact rational does.
    """
    if not u > 0:
        raise DomainError(f"threshold must be positive, got {u}")
    _check_mask(subset, model.p)
    masks, nums, den = model._support_numerators
    bits = [i for i in range(model.p) if subset >> i & 1]
    full = (1 << len(bits)) - 1
    inside = np.zeros(full + 1, dtype=object)  # Python ints: no overflow
    for mask, num in zip(masks, nums):
        trace = sum(1 << t for t, i in enumerate(bits) if mask >> i & 1)
        inside[trace] += num
    inside = _butterfly(inside, len(bits), np.add, superset=False).tolist()
    total = inside[full]
    acc = 0.0
    for pick in range(full + 1):
        theta_s = (total - inside[full ^ pick]) / den
        term = math.expm1(-theta_s / u)
        acc += term if pick.bit_count() % 2 == 0 else -term
    return acc


def exact_union_exceedance(model: TmModel, subset: int, u: float) -> float:
    """P[X_i > u for some i in the subset] = 1 - exp(-theta(subset)/u)."""
    if not u > 0:
        raise DomainError(f"threshold must be positive, got {u}")
    return -math.expm1(-float(model.theta_of(subset)) / u)


# ---------------------------------------------------------------------------
# Limiting exceedance set.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExceedanceSetDist:
    """Distribution of the limiting exceedance set of a model.

    pmf(J) = beta(J) / theta_total over the (sparse) support; the hitting
    and inclusion functionals are theta and lambda rescaled by the
    normalizer.
    """

    p: int
    pmf: tuple  # ((mask, probability), ...) over the support
    normalizer: Rat  # theta of the full index set

    def as_dict(self) -> dict[int, Rat]:
        return dict(self.pmf)

    def probability(self, mask: int) -> Rat:
        _check_mask(mask, self.p)
        for m, q in self.pmf:
            if m == mask:
                return q
        return ZERO

    def hitting(self, mask: int) -> Rat:
        """P[exceedance set meets the given subset]."""
        _check_mask(mask, self.p)
        return sum((q for m, q in self.pmf if m & mask), ZERO)

    def inclusion(self, mask: int) -> Rat:
        """P[exceedance set contains the given subset]."""
        _check_mask(mask, self.p)
        return sum((q for m, q in self.pmf if m & mask == mask), ZERO)


def exceedance_set_dist(model: TmModel) -> ExceedanceSetDist:
    if model.is_degenerate:
        raise DegenerateModel("degenerate model has no exceedance-set limit")
    total = model.theta_total()
    pmf = tuple((mask, v / total) for mask, v in model.support())
    return ExceedanceSetDist(model.p, pmf, total)


# ---------------------------------------------------------------------------
# Bernoulli bridge.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BernoulliTensor:
    """Moment tensor T(i_1, ..., i_k) = lambda(distinct indices) / scale.

    Realized by ξ(i) = B * indicator(i in Θ) with Θ the model's limiting
    exceedance set and P[B = 1] = theta_total / scale, which is why the
    scale must be at least theta_total (a sharp bound).  The tensor depends
    on an index tuple only through its set of distinct values, so storage
    is the underlying lambda system plus the scale.
    """

    p: int
    order: int
    scale: Rat
    lam: SubsetFn
    theta_total: Rat

    def value(self, indices: Sequence[int]) -> Rat:
        """Entry for a k-tuple of 0-based component indices (repeats allowed)."""
        if len(indices) != self.order:
            raise DomainError(f"expected {self.order} indices, got {len(indices)}")
        mask = 0
        for i in indices:
            if not 0 <= i < self.p:
                raise DomainError(f"index {i} out of range")
            mask |= 1 << i
        return self.lam[mask] / self.scale

    def bernoulli_success_prob(self) -> Rat:
        """P[B = 1] of the implied thinning variable: theta_total / scale."""
        return self.theta_total / self.scale


def tensor_from_model(model: TmModel, order: int, scale: RatLike) -> BernoulliTensor:
    """Moment tensor of the model at a given scale; scale >= theta_total required."""
    if order < 1:
        raise DomainError(f"tensor order must be >= 1, got {order}")
    c = rat(scale)
    total = model.theta_total()
    if c < total:
        raise ScaleTooSmall(
            f"scale {c} is below theta_total = {total}; the bound is sharp"
        )
    return BernoulliTensor(model.p, order, c, model.lambdas(), total)


@dataclass(frozen=True)
class BernoulliModelResult:
    """Model built from a set-valued pmf, plus the mass dropped at the empty set."""

    model: TmModel
    dropped_empty_mass: Rat


def model_from_bernoulli(pmf: Mapping[int, RatLike], p: int) -> BernoulliModelResult:
    """Model whose atom weights are P[Theta = J] for nonempty J.

    The input pmf may put mass on the empty set (mask 0); that mass cannot
    influence any coefficient and is dropped, but reported.  The output
    model satisfies lambda(L) = E[prod over i in L of xi(i)] exactly, where
    xi is the Bernoulli vector of the input set.
    """
    entries: dict[int, Rat] = {}
    total = ZERO
    dropped = ZERO
    for mask, v in pmf.items():
        q = rat(v)
        if q < 0:
            raise InvalidPmf(f"negative mass {q} at subset {set_str(mask)}")
        if not 0 <= mask < (1 << p):
            raise InvalidPmf(f"subset mask {mask} out of range for p={p}")
        total += q
        if mask == 0:
            dropped += q
        elif q != 0:
            entries[mask] = entries.get(mask, ZERO) + q
    if total != 1:
        raise InvalidPmf(f"pmf sums to {total}, expected exactly 1")
    model = TmModel.from_entries(p, entries)
    return BernoulliModelResult(model, dropped)


__all__ = [
    "TmModel",
    "RealizabilityFailure",
    "synthesize",
    "cdf",
    "cdf_exponent",
    "exact_joint_exceedance",
    "exact_union_exceedance",
    "ExceedanceSetDist",
    "exceedance_set_dist",
    "BernoulliTensor",
    "tensor_from_model",
    "BernoulliModelResult",
    "model_from_bernoulli",
]
