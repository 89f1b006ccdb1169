"""Model synthesis, exact laws, exceedance sets, and the Bernoulli bridge."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from taildep.coeffs import Kind, SubsetFn, lambda_from_beta, theta_from_beta
from taildep import coeffs, tm
from taildep.errors import (
    DegenerateModel,
    DomainError,
    InternalError,
    InvalidBeta,
    InvalidPmf,
    ScaleTooSmall,
)
from taildep.instances import (
    comonotone_model,
    independence_model,
    random_beta,
    random_subset_pmf,
)
from taildep.rationals import ZERO, rat, to_common_numerators
from taildep.subsets import mask_of
from taildep.tm import (
    RealizabilityFailure,
    TmModel,
    cdf,
    cdf_exponent,
    exact_joint_exceedance,
    exact_union_exceedance,
    exceedance_set_dist,
    model_from_bernoulli,
    synthesize,
    tensor_from_model,
)

from oracles import brute_bernoulli_moment, reference_joint_exceedance


# numerators over the common denominator 15 * 2**70 leave int64
_WIDE_ATOMS = {1: rat(1 << 80, 3), 5: rat(7, 1 << 70), 7: rat((1 << 90) + 1, 5)}


def _sums_cases():
    rng = random.Random(31)
    for p in range(1, 7):
        yield pytest.param(TmModel(p, random_beta(p, rng)), id=f"random-p{p}")
    yield pytest.param(TmModel.from_entries(1, {1: rat(5, 3)}), id="p1")
    yield pytest.param(TmModel.from_entries(1, {}), id="p1-degenerate")
    yield pytest.param(TmModel.from_entries(4, {}), id="degenerate")
    yield pytest.param(TmModel.from_entries(3, _WIDE_ATOMS), id="past-int64")


@pytest.mark.parametrize("model", list(_sums_cases()))
def test_lambda_and_theta_of_equal_fraction_support_sums(model):
    # the integer sums over beta's denominator against plain Fraction sums
    # of the weights on the atoms containing (lambda) or meeting (theta) K
    weights = [(m, Fraction(v)) for m, v in model.beta.entries() if v]
    for query in (model.lambda_of, model.theta_of):  # K = 0 is no subset
        with pytest.raises(DomainError, match=f"^subset mask 0 out of range for p={model.p}$"):
            query(0)
    for K in range(1, 1 << model.p):
        lam = model.lambda_of(K)
        theta = model.theta_of(K)
        assert lam == sum((v for m, v in weights if m & K == K), Fraction(0))
        assert theta == sum((v for m, v in weights if m & K), Fraction(0))
        assert type(lam.numerator) is int and type(theta.numerator) is int


@pytest.mark.parametrize("model", list(_sums_cases()))
def test_marginal_scales_equal_fraction_sums(model):
    weights = [(m, Fraction(v)) for m, v in model.beta.entries() if v]
    assert model.marginal_scales() == tuple(
        sum((v for m, v in weights if m >> i & 1), Fraction(0)) for i in range(model.p)
    )


def test_wide_atoms_hold_numerators_past_int64():
    assert TmModel.from_entries(3, _WIDE_ATOMS).beta._numerators()[0].dtype == object


def test_model_weights_must_be_kind_beta():
    # the weights of every model are nonnegative: only kind BETA is
    # accepted, and kind BETA holds no negative entry
    with pytest.raises(ValueError, match="kind beta"):
        TmModel(2, SubsetFn(2, (rat(-1), rat(1), rat(1)), Kind.RAW))
    with pytest.raises(ValueError, match="kind beta"):
        TmModel(2, SubsetFn(2, (rat(1),) * 3, Kind.RAW))
    with pytest.raises(InvalidBeta, match="negative beta entries"):
        SubsetFn(2, (rat(-1), rat(1), rat(1)), Kind.BETA)


class TestSynthesize:
    def test_recovers_any_nonnegative_system(self, rng):
        for _ in range(20):
            beta = random_beta(rng.randint(1, 6), rng)
            model = synthesize(lambda_from_beta(beta))
            assert isinstance(model, TmModel)
            assert model.beta.values == beta.values
            model_th = synthesize(theta_from_beta(beta))
            assert model_th.beta.values == beta.values

    def test_failure_witness_p2(self):
        lam = SubsetFn.from_entries(2, {1: 1, 2: 1, 3: rat(3, 2)}, Kind.LAMBDA)
        failure = synthesize(lam)
        assert isinstance(failure, RealizabilityFailure)
        assert failure.masks() == (1, 2)
        assert dict(failure.negative)[1] == rat(-1, 2)

    def test_independence_supported_on_singletons(self):
        lam = lambda_from_beta(independence_model(3).beta)
        model = synthesize(lam)
        assert {m for m, _ in model.support()} == {1, 2, 4}

    @pytest.mark.parametrize("forward", [lambda_from_beta, theta_from_beta])
    def test_round_trip_check_compares_numerators(self, monkeypatch, rng, forward):
        # a forward transform off by one in one numerator, over the input's
        # own denominator, must trip the integer round-trip check
        def perturbed(beta):
            fn = forward(beta)
            nums, den = fn._numerators()
            nums = nums.copy()
            nums[-1] += 1
            return SubsetFn._from_numerators(fn.p, nums, den, fn.kind)

        system = forward(random_beta(5, rng))
        assert isinstance(synthesize(system), TmModel)
        monkeypatch.setattr(tm, forward.__name__, perturbed)
        with pytest.raises(InternalError):
            synthesize(system)

    def test_builds_no_rationals(self, monkeypatch, rng):
        beta = random_beta(6, rng)
        lam, theta = lambda_from_beta(beta), theta_from_beta(beta)

        def refuse(nums, den):
            raise AssertionError("rationals built")

        monkeypatch.setattr(coeffs, "from_common_numerators", refuse)
        for system in (lam, theta):
            model = synthesize(system)
            assert isinstance(model, TmModel) and model.beta == beta


class TestCdf:
    def test_comonotone_pair(self):
        assert cdf(comonotone_model(2), [1.0, 1.0]) == pytest.approx(math.exp(-1))

    def test_independence_product(self):
        model = independence_model(2)
        assert cdf(model, [1.0, 2.0]) == pytest.approx(math.exp(-1.5))

    def test_line_instance_at_ones(self, line_model):
        assert cdf(line_model, [1.0, 1.0, 1.0]) == pytest.approx(math.exp(-3.5))

    def test_nonpositive_coordinate_rejected(self, line_model):
        with pytest.raises(DomainError):
            cdf(line_model, [1.0, 0.0, 1.0])

    def test_multiplicative_across_independent_blocks(self, rng):
        # no atom meets both {1,2} and {3}: CDF factors
        model = TmModel.from_entries(
            3, {mask_of(1, 2): rat(1, 2), mask_of(1): 1, mask_of(3): rat(3, 4)}
        )
        x = [1.3, 0.7, 2.9]
        left = TmModel.from_entries(2, {mask_of(1, 2): rat(1, 2), mask_of(1): 1})
        right = TmModel.from_entries(1, {1: rat(3, 4)})
        assert cdf(model, x) == pytest.approx(cdf(left, x[:2]) * cdf(right, x[2:]))

    def test_max_stability_exponent_identity(self, line_model, rng):
        for _ in range(10):
            x = [rat(rng.randint(1, 12), rng.randint(1, 7)) for _ in range(3)]
            n = rng.randint(2, 9)
            assert n * cdf_exponent(line_model, [n * v for v in x]) == cdf_exponent(
                line_model, x
            )


class TestExactJointExceedance:
    def test_comonotone_pair_closed_form(self):
        p_val = exact_joint_exceedance(comonotone_model(2), 3, 1.0)
        assert p_val == pytest.approx(1 - math.exp(-1))

    def test_independence_vanishing_limit(self):
        model = independence_model(2)
        for u in [10.0, 100.0, 1000.0]:
            p_val = exact_joint_exceedance(model, 3, u)
            assert p_val == pytest.approx((1 - math.exp(-1 / u)) ** 2)
        assert 1000.0 * exact_joint_exceedance(model, 3, 1000.0) < 1e-2

    def test_line_pair_13_finite_u_values(self, line_model):
        # u * P at u=100 evaluates to ~0.5208, i.e. 4.2% above the limit 1/2;
        # the 1% agreement with the limit needs u around 450 or larger.
        mask = mask_of(1, 3)
        u100 = 100.0 * exact_joint_exceedance(line_model, mask, 100.0)
        assert u100 == pytest.approx(
            100.0 * (1 - 2 * math.exp(-0.02) + math.exp(-0.035))
        )
        assert abs(u100 - 0.5) / 0.5 == pytest.approx(0.0417, abs=5e-3)
        u1000 = 1000.0 * exact_joint_exceedance(line_model, mask, 1000.0)
        assert abs(u1000 - 0.5) / 0.5 < 0.01

    def test_asymptotic_gap_shrinks_when_u_doubles(self, line_model):
        lam = float(line_model.lambda_of(mask_of(1, 3)))
        gaps = []
        u = 50.0
        for _ in range(6):
            gaps.append(abs(u * exact_joint_exceedance(line_model, mask_of(1, 3), u) - lam))
            u *= 2
        for g_prev, g_next in zip(gaps, gaps[1:]):
            assert g_next < g_prev
            assert g_next > 0.35 * g_prev  # gap is genuinely O(1/u), not faster

    def test_invalid_threshold(self, line_model):
        with pytest.raises(DomainError):
            exact_joint_exceedance(line_model, 1, 0.0)

    @pytest.mark.parametrize("law", [
        exact_joint_exceedance,
        exact_union_exceedance,
        pytest.param(lambda model, m, u: model.lambda_of(m), id="lambda_of"),
        pytest.param(lambda model, m, u: model.theta_of(m), id="theta_of"),
        pytest.param(lambda model, m, u: exceedance_set_dist(model).probability(m),
                     id="probability"),
        pytest.param(lambda model, m, u: exceedance_set_dist(model).hitting(m), id="hitting"),
        pytest.param(lambda model, m, u: exceedance_set_dist(model).inclusion(m),
                     id="inclusion"),
    ])
    @pytest.mark.parametrize("subset", [-1, -3, 1 << 3, 0])
    def test_masks_out_of_range(self, line_model, law, subset):
        # a mask outside 1..2**p - 1 is no subset: refused, never summed
        with pytest.raises(DomainError, match=f"^subset mask {subset} out of range for p=3$"):
            law(line_model, subset, 100.0)

    def test_large_threshold_keeps_the_line_pair(self, line_model):
        # every exp(-theta/u) rounds to 1.0 here; the answer is still ~lam/u
        lam = float(line_model.lambda_of(mask_of(1, 3)))
        for u in (1e12, 1e100, 1e300):
            assert u * exact_joint_exceedance(line_model, mask_of(1, 3), u) == (
                pytest.approx(lam, rel=1e-9)
            )


def _mp_joint_exceedance(support, subset, u):
    """Inclusion-exclusion over exp terms, with 50 digits left after cancellation."""
    bits = [b for b in range(subset.bit_length()) if subset >> b & 1]
    with mpmath.workdps(50 + int(math.log10(u))):
        terms = []
        for pick in range(1 << len(bits)):
            s_mask = sum(1 << bits[t] for t in range(len(bits)) if pick >> t & 1)
            theta = sum((v for m, v in support if m & s_mask), ZERO)
            e = mpmath.exp(-mpmath.mpf(theta.numerator) / theta.denominator / mpmath.mpf(u))
            terms.append(e if pick.bit_count() % 2 == 0 else -e)
        return mpmath.fsum(terms)


@st.composite
def _model_subset_threshold(draw):
    p = draw(st.integers(1, 4))
    entries = draw(
        st.dictionaries(
            st.integers(1, (1 << p) - 1), st.integers(1, 16), min_size=1, max_size=6
        )
    )
    model = TmModel.from_entries(p, {m: rat(v, 16) for m, v in entries.items()})
    # a nonempty subset of some atom, so lambda(subset) > 0
    atom = draw(st.sampled_from(sorted(entries)))
    subset = draw(st.integers(1, atom).filter(lambda s: s & atom == s))
    u = 10.0 ** draw(st.floats(2, 300))
    return model, subset, u


@given(_model_subset_threshold())
def test_joint_exceedance_matches_mpmath_up_to_1e300(case):
    model, subset, u = case
    assert model.lambda_of(subset) > 0
    exact = _mp_joint_exceedance(model.support(), subset, u)
    value = exact_joint_exceedance(model, subset, u)
    assert abs(value - float(exact)) <= 1e-9 * float(exact)


@st.composite
def _random_model_subset_threshold(draw):
    p = draw(st.integers(1, 8))
    entries = draw(
        st.dictionaries(
            st.integers(1, (1 << p) - 1),
            st.fractions(min_value=0, max_value=20, max_denominator=60).filter(bool),
            min_size=1,
            max_size=40,
        )
    )
    model = TmModel.from_entries(p, {m: rat(v) for m, v in entries.items()})
    subset = draw(st.integers(1, (1 << p) - 1))
    u = 10.0 ** draw(st.floats(0.2, 300))
    return model, subset, u


@given(_random_model_subset_threshold())
def test_joint_exceedance_equals_per_submask_sums(case):
    model, subset, u = case
    value = exact_joint_exceedance(model, subset, u)
    assert value == reference_joint_exceedance(model, subset, u)


def _support_joint_exceedance(model, subset, u):
    """Inclusion-exclusion with every theta(S) from a subset-sum table of
    the support's numerators over their own reduced common denominator,
    which can be smaller than beta's."""
    support = model.support()
    nums, den = to_common_numerators([v for _, v in support])
    bits = [i for i in range(model.p) if subset >> i & 1]
    full = (1 << len(bits)) - 1
    inside = [0] * (full + 1)
    for (mask, _), num in zip(support, nums):
        inside[sum(1 << t for t, i in enumerate(bits) if mask >> i & 1)] += num
    for t in range(len(bits)):
        for cell in range(full + 1):
            if cell >> t & 1:
                inside[cell] += inside[cell ^ 1 << t]
    acc = 0.0
    for pick in range(full + 1):
        term = math.expm1(-((inside[full] - inside[full ^ pick]) / den) / u)
        acc += term if pick.bit_count() % 2 == 0 else -term
    return acc


@st.composite
def _wide_model_subset_threshold(draw):
    p = draw(st.integers(1, 6))
    weight = st.one_of(
        st.fractions(min_value=0, max_value=20, max_denominator=60),
        st.builds(rat, st.integers(0, 1 << 90), st.integers(1, 1 << 70)),
    )
    entries = draw(st.dictionaries(st.integers(1, (1 << p) - 1), weight, max_size=12))
    model = TmModel.from_entries(p, entries)
    return model, draw(st.integers(1, (1 << p) - 1)), 10.0 ** draw(st.floats(-2, 300))


@given(_wide_model_subset_threshold())
@example((TmModel.from_entries(3, _WIDE_ATOMS), 1, 0.5))
@example((TmModel.from_entries(3, _WIDE_ATOMS), 5, 1e3))
@example((TmModel.from_entries(3, _WIDE_ATOMS), 7, 1e300))
def test_joint_exceedance_equals_support_denominator_formula(case):
    # beta's denominator can be a multiple of the support's reduced one;
    # int true division rounds the same rational to the same float
    model, subset, u = case
    assert exact_joint_exceedance(model, subset, u) == _support_joint_exceedance(
        model, subset, u
    )


class TestExceedanceSetDist:
    def test_independence_pair(self):
        dist = exceedance_set_dist(independence_model(2))
        assert dist.probability(1) == dist.probability(2) == rat(1, 2)
        assert dist.probability(3) == 0

    def test_comonotone_concentrates_on_full_set(self):
        dist = exceedance_set_dist(comonotone_model(2))
        assert dist.probability(3) == 1

    def test_line_instance_pmf(self, line_model):
        dist = exceedance_set_dist(line_model)
        assert dist.normalizer == rat(7, 2)
        assert dist.probability(mask_of(1, 2)) == rat(2, 7)
        assert sum((q for _, q in dist.pmf), ZERO) == 1

    def test_functionals_match_pmf_summation(self, rng):
        for _ in range(15):
            beta = random_beta(rng.randint(1, 5), rng)
            tm_model = TmModel(beta.p, beta)
            if tm_model.is_degenerate:
                continue
            dist = exceedance_set_dist(tm_model)
            th = theta_from_beta(beta)
            lam = lambda_from_beta(beta)
            total = tm_model.theta_total()
            for mask in range(1, 1 << beta.p):
                assert dist.hitting(mask) == th[mask] / total
                assert dist.inclusion(mask) == lam[mask] / total

    def test_degenerate_rejected(self):
        degenerate = TmModel.from_entries(2, {})
        with pytest.raises(DegenerateModel):
            exceedance_set_dist(degenerate)


class TestBernoulliTensor:
    def test_pair_tensor_at_minimal_scale_is_inclusion_probability(self, line_model):
        dist = exceedance_set_dist(line_model)
        tensor = tensor_from_model(line_model, 2, line_model.theta_total())
        for i in range(3):
            for j in range(3):
                assert tensor.value((i, j)) == dist.inclusion(
                    (1 << i) | (1 << j)
                )

    def test_independence_pair_values(self):
        tensor = tensor_from_model(independence_model(2), 2, 2)
        assert tensor.value((0, 1)) == 0
        assert tensor.value((0, 0)) == rat(1, 2)

    def test_line_triple_value(self, line_model):
        tensor = tensor_from_model(line_model, 3, rat(7, 2))
        assert tensor.value((0, 1, 2)) == rat(1, 7)

    def test_scale_below_bound_rejected(self, line_model):
        with pytest.raises(ScaleTooSmall):
            tensor_from_model(line_model, 2, rat(7, 2) - rat(1, 1000))

    def test_zero_scale_rejected(self):
        # a degenerate model's bound theta_total is 0, but every entry divides by the scale
        with pytest.raises(ScaleTooSmall):
            tensor_from_model(TmModel.from_entries(2, {}), 2, 0)

    def test_success_probability(self, line_model):
        tensor = tensor_from_model(line_model, 2, 7)
        assert tensor.bernoulli_success_prob() == rat(1, 2)


class TestModelFromBernoulli:
    def test_iid_half_pair(self):
        pmf = {0: rat(1, 4), 1: rat(1, 4), 2: rat(1, 4), 3: rat(1, 4)}
        result = model_from_bernoulli(pmf, 2)
        assert result.dropped_empty_mass == rat(1, 4)
        beta = result.model.beta
        assert beta[1] == beta[2] == beta[3] == rat(1, 4)
        assert result.model.lambda_of(3) == rat(1, 4)

    def test_deterministic_full_set(self):
        result = model_from_bernoulli({3: 1}, 2)
        assert result.model.lambda_of(1) == result.model.lambda_of(3) == 1

    def test_all_zero_vector_gives_degenerate_model(self):
        result = model_from_bernoulli({0: 1}, 2)
        assert result.model.is_degenerate
        for mask in range(1, 4):
            assert result.model.lambda_of(mask) == 0
            assert result.model.theta_of(mask) == 0

    def test_moments_reproduced_exactly(self, rng):
        for _ in range(20):
            p = rng.randint(1, 5)
            pmf = random_subset_pmf(p, rng, include_empty=True)
            model = model_from_bernoulli(pmf, p).model
            for mask in range(1, 1 << p):
                assert model.lambda_of(mask) == brute_bernoulli_moment(pmf, mask)

    def test_negative_mass_rejected(self):
        with pytest.raises(InvalidPmf):
            model_from_bernoulli({1: rat(3, 2), 2: rat(-1, 2)}, 2)

    def test_non_unit_total_rejected(self):
        with pytest.raises(InvalidPmf):
            model_from_bernoulli({1: rat(1, 2)}, 2)


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda p: st.lists(
            st.fractions(min_value=0, max_value=10, max_denominator=8),
            min_size=(1 << p) - 1,
            max_size=(1 << p) - 1,
        ).map(lambda vals: SubsetFn.from_values(p, [rat(str(v)) for v in vals], Kind.BETA))
    )
)
def test_bernoulli_round_trip(beta):
    """Tensor at the minimal scale, re-read as a set pmf, reproduces lambda/theta_total."""
    model = TmModel(beta.p, beta)
    if model.is_degenerate:
        return
    dist = exceedance_set_dist(model)
    tensor = tensor_from_model(model, 2, model.theta_total())
    rebuilt = model_from_bernoulli(dist.as_dict(), beta.p).model
    for mask in range(1, 1 << beta.p):
        assert rebuilt.lambda_of(mask) == tensor.lam[mask] / tensor.scale
        assert rebuilt.lambda_of(mask) * model.theta_total() == model.lambda_of(mask)
