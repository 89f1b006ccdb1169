"""Subset coefficient algebra: frozen examples, oracles, and properties."""

import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from taildep.coeffs import (
    Kind,
    SubsetFn,
    TdMatrix,
    beta_from_lambda,
    beta_from_theta,
    lambda_from_beta,
    lambda_from_theta,
    lambda_violations,
    linear_combination,
    spectral_distance_entry,
    td_matrix,
    theta_from_beta,
    theta_from_lambda,
    theta_violations,
)
from taildep.errors import InvalidBeta, InvalidTdMatrix, SizeLimitError
from taildep.instances import line_fixture_model, random_beta
from taildep.rationals import ZERO, rat
from taildep.subsets import mask_of

from oracles import (
    brute_beta_from_lambda,
    brute_beta_from_theta,
    brute_lambda_from_beta,
    brute_lambda_from_theta,
    brute_theta_from_beta,
    brute_theta_from_lambda,
)


def rational_values(n, max_num=30, max_den=12):
    return st.lists(
        st.fractions(min_value=0, max_value=max_num, max_denominator=max_den),
        min_size=n,
        max_size=n,
    )


def beta_systems(max_p=6):
    return st.integers(min_value=1, max_value=max_p).flatmap(
        lambda p: rational_values((1 << p) - 1).map(
            lambda vals: SubsetFn.from_values(p, [rat(str(v)) for v in vals], Kind.BETA)
        )
    )


# ---------------------------------------------------------------------------
# Frozen examples.
# ---------------------------------------------------------------------------


class TestLambdaFromBeta:
    def test_p2_symbolic_sums(self):
        a, b, c = rat(3, 7), rat(5, 2), rat(1, 3)
        beta = SubsetFn.from_entries(2, {1: a, 2: b, 3: c}, Kind.BETA)
        lam = lambda_from_beta(beta)
        assert lam[mask_of(1)] == a + c
        assert lam[mask_of(2)] == b + c
        assert lam[mask_of(1, 2)] == c

    def test_p3_independence(self):
        beta = SubsetFn.from_entries(3, {1: 1, 2: 1, 4: 1}, Kind.BETA)
        lam = lambda_from_beta(beta)
        for mask in range(1, 8):
            assert lam[mask] == (1 if mask.bit_count() == 1 else 0)

    def test_line_instance(self):
        lam = lambda_from_beta(line_fixture_model().beta)
        assert [lam[mask_of(*s)] for s in [(1,), (2,), (3,)]] == [2, 2, 2]
        assert lam[mask_of(1, 2)] == rat(3, 2)
        assert lam[mask_of(2, 3)] == 1
        assert lam[mask_of(1, 3)] == rat(1, 2)
        assert lam[mask_of(1, 2, 3)] == rat(1, 2)

    def test_rejects_non_beta_kind(self):
        lam = SubsetFn.from_entries(2, {1: 1, 2: 1, 3: 0}, Kind.LAMBDA)
        with pytest.raises(InvalidBeta):
            lambda_from_beta(lam)


class TestThetaFromBeta:
    def test_independence_is_cardinality(self):
        beta = SubsetFn.from_entries(3, {1: 1, 2: 1, 4: 1}, Kind.BETA)
        th = theta_from_beta(beta)
        for mask in range(1, 8):
            assert th[mask] == mask.bit_count()

    def test_comonotone_pair(self):
        beta = SubsetFn.from_entries(2, {3: 1}, Kind.BETA)
        th = theta_from_beta(beta)
        assert th[1] == th[2] == th[3] == 1

    def test_line_instance_total(self):
        th = theta_from_beta(line_fixture_model().beta)
        assert th[mask_of(1, 2, 3)] == rat(7, 2)


class TestBetaFromLambda:
    def test_round_trip_is_identity(self, rng):
        for _ in range(25):
            p = rng.randint(1, 6)
            beta = random_beta(p, rng)
            assert beta_from_lambda(lambda_from_beta(beta)).values == beta.values

    def test_p2_hand_solve(self):
        lam = SubsetFn.from_entries(2, {1: 1, 2: 1, 3: rat(1, 2)}, Kind.LAMBDA)
        beta = beta_from_lambda(lam)
        assert beta.kind is Kind.BETA
        assert beta[1] == beta[2] == beta[3] == rat(1, 2)

    def test_p2_invalid_flagged_not_raised(self):
        lam = SubsetFn.from_entries(2, {1: 1, 2: 1, 3: rat(3, 2)}, Kind.LAMBDA)
        beta = beta_from_lambda(lam)
        assert beta.kind is Kind.RAW
        assert beta[1] == beta[2] == rat(-1, 2)
        assert beta.negative_masks() == (1, 2)


class TestBetaFromTheta:
    def test_round_trip_is_identity(self, rng):
        for _ in range(25):
            p = rng.randint(1, 6)
            beta = random_beta(p, rng)
            assert beta_from_theta(theta_from_beta(beta)).values == beta.values

    def test_p2_hand_solve(self):
        th = SubsetFn.from_entries(2, {1: 1, 2: 1, 3: rat(3, 2)}, Kind.THETA)
        beta = beta_from_theta(th)
        assert beta[1] == beta[2] == beta[3] == rat(1, 2)

    def test_independence_recovers_singletons(self):
        th = SubsetFn.from_values(
            3, [mask.bit_count() for mask in range(1, 8)], Kind.THETA
        )
        beta = beta_from_theta(th)
        for mask in range(1, 8):
            assert beta[mask] == (1 if mask.bit_count() == 1 else 0)


class TestThetaLambdaInclusionExclusion:
    def test_p2_identity(self):
        lam = SubsetFn.from_entries(2, {1: rat(2, 3), 2: rat(1, 2), 3: rat(1, 4)}, Kind.LAMBDA)
        th = theta_from_lambda(lam)
        assert th[3] == lam[1] + lam[2] - lam[3]

    def test_round_trip(self, rng):
        for _ in range(25):
            p = rng.randint(1, 6)
            lam = lambda_from_beta(random_beta(p, rng))
            assert lambda_from_theta(theta_from_lambda(lam)).values == lam.values

    def test_line_instance_pair_13(self):
        lam = lambda_from_beta(line_fixture_model().beta)
        th = theta_from_lambda(lam)
        assert th[mask_of(1, 3)] == 2 + 2 - rat(1, 2)


class TestTdMatrixAndDistance:
    def test_equal_scales_simplification(self, rng):
        # d(i,j) = 2(c - lambda(i,j)) whenever both marginals equal c
        lam = lambda_from_beta(line_fixture_model().beta)
        td = td_matrix(lam)
        c = td.lam[0][0]
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert spectral_distance_entry(td, i, j) == 2 * (c - td.lam[i][j])

    def test_comonotone_pair_distance_zero(self):
        td = TdMatrix.from_rows([[1, 1], [1, 1]])
        assert spectral_distance_entry(td, 0, 1) == 0

    def test_line_instance_distances(self):
        td = td_matrix(lambda_from_beta(line_fixture_model().beta))
        assert spectral_distance_entry(td, 0, 1) == 1
        assert spectral_distance_entry(td, 1, 2) == 2
        assert spectral_distance_entry(td, 0, 2) == 3

    def test_invariant_violations_rejected(self):
        with pytest.raises(InvalidTdMatrix):
            TdMatrix.from_rows([[1, 2], [2, 1]])  # pair exceeds marginals
        with pytest.raises(InvalidTdMatrix):
            TdMatrix.from_rows([[1, rat(1, 2)], [rat(1, 3), 1]])  # asymmetric


# ---------------------------------------------------------------------------
# Brute-force agreement and property tests.
# ---------------------------------------------------------------------------


@given(beta_systems(max_p=5))
def test_forward_transforms_match_bruteforce(beta):
    assert lambda_from_beta(beta).values == brute_lambda_from_beta(beta).values
    assert theta_from_beta(beta).values == brute_theta_from_beta(beta).values


@given(beta_systems(max_p=5))
def test_inversions_match_bruteforce(beta):
    lam = lambda_from_beta(beta)
    th = theta_from_beta(beta)
    assert beta_from_lambda(lam).values == tuple(brute_beta_from_lambda(lam))
    assert beta_from_theta(th).values == tuple(brute_beta_from_theta(th))
    assert theta_from_lambda(lam).values == brute_theta_from_lambda(lam).values
    assert lambda_from_theta(th).values == brute_lambda_from_theta(th).values


@given(beta_systems(max_p=6))
def test_round_trips_and_cross_consistency(beta):
    lam = lambda_from_beta(beta)
    th = theta_from_beta(beta)
    assert beta_from_lambda(lam).values == beta.values
    assert beta_from_theta(th).values == beta.values
    assert theta_from_lambda(lam).values == th.values
    assert lambda_from_theta(th).values == lam.values


@given(beta_systems(max_p=5), st.integers(min_value=60, max_value=200))
def test_transforms_exact_beyond_int64(beta, bits):
    # numerators past 2**63 take the arbitrary-precision butterfly
    big = beta.scaled(rat((1 << bits) + 1, 3))
    lam, th = lambda_from_beta(big), theta_from_beta(big)
    assert lam.values == brute_lambda_from_beta(big).values
    assert th.values == brute_theta_from_beta(big).values
    assert beta_from_lambda(lam).values == big.values
    assert beta_from_theta(th).values == big.values
    assert theta_from_lambda(lam).values == th.values


@pytest.mark.parametrize("total", [(1 << 63) - 1, 1 << 63])
def test_transforms_exact_at_int64_limit(total):
    # lambda({1}) and theta({1,2}) both equal the total
    beta = SubsetFn.from_values(2, [total - 1, 0, 1], Kind.BETA)
    lam, th = lambda_from_beta(beta), theta_from_beta(beta)
    assert lam.values == brute_lambda_from_beta(beta).values
    assert th.values == brute_theta_from_beta(beta).values
    assert lam[1] == th[3] == total
    assert beta_from_lambda(lam).values == beta_from_theta(th).values == beta.values


def test_transform_results_behave_like_built_systems():
    beta = line_fixture_model().beta
    for fn in (lambda_from_beta(beta), theta_from_beta(beta)):
        built = SubsetFn(fn.p, tuple(fn.values), fn.kind)
        assert fn == built and hash(fn) == hash(built) and repr(fn) == repr(built)
        assert pickle.loads(pickle.dumps(fn)) == fn
        with pytest.raises(FrozenInstanceError):
            fn.kind = Kind.RAW
    raw = beta_from_lambda(lambda_from_beta(beta).scaled(-1))
    assert raw.kind is Kind.RAW and raw.negative_masks()


def test_int64_input_with_object_intermediate():
    # beta's |numerators| sum to 2**63 - 1, lambda's and theta's do not
    beta = SubsetFn.from_values(2, [1 << 62, 0, (1 << 62) - 1], Kind.BETA)
    lam, th = lambda_from_beta(beta), theta_from_beta(beta)
    assert beta._numerators()[0].dtype == np.int64
    assert lam._numerators()[0].dtype == th._numerators()[0].dtype == object
    assert lam.values == brute_lambda_from_beta(beta).values
    assert th.values == brute_theta_from_beta(beta).values
    assert beta_from_lambda(lam).values == tuple(brute_beta_from_lambda(lam)) == beta.values
    assert beta_from_theta(th).values == tuple(brute_beta_from_theta(th)) == beta.values
    assert theta_from_lambda(lam).values == brute_theta_from_lambda(lam).values
    assert lambda_from_theta(th).values == brute_lambda_from_theta(th).values
    # the inversions come back to int64
    assert beta_from_lambda(lam)._numerators()[0].dtype == np.int64


@given(beta_systems(max_p=5), st.sampled_from([0, 62, 63, 64, 130]))
def test_transform_values_have_int_parts(beta, bits):
    big = beta.scaled((1 << bits) + 1)
    lam, th = lambda_from_beta(big), theta_from_beta(big)
    raw = beta_from_lambda(lam.scaled(-1)) if lam.total() else beta_from_lambda(lam)
    for fn in (lam, th, beta_from_lambda(lam), beta_from_theta(th),
               theta_from_lambda(lam), lambda_from_theta(th), raw):
        for q in fn.values:
            assert type(q.numerator) is int and type(q.denominator) is int


def test_item_read_builds_no_rationals():
    rng = np.random.default_rng(16)
    nums = rng.integers(0, 9, size=(1 << 16) - 1).tolist()
    beta = SubsetFn.from_values(16, [rat(v, 8) for v in nums], Kind.BETA)
    masks = [1, 3, 0b1010, 1 << 15, (1 << 16) - 1]
    huge = beta.scaled(1 << 70)  # numerators beyond int64
    for fn in (lambda_from_beta(beta), theta_from_beta(beta), lambda_from_beta(huge)):
        reads = [fn[mask] for mask in masks]
        assert fn._values is None
        assert reads == [fn.values[mask - 1] for mask in masks]
        assert all(type(q.numerator) is int and type(q.denominator) is int for q in reads)


def test_stored_numerators_are_read_only():
    beta = line_fixture_model().beta
    for fn in (beta, lambda_from_beta(beta), beta.scaled(3), beta.with_kind(Kind.RAW)):
        nums, _ = fn._numerators()
        with pytest.raises(ValueError):
            nums[0] = 1


def _built(p, values, kind):
    """SubsetFn from rationals, or the exception it raises."""
    try:
        return SubsetFn(p, tuple(values), kind)
    except InvalidBeta as exc:
        return type(exc)


def _same(fn, built):
    assert fn == built and built == fn
    assert fn.kind is built.kind
    assert hash(fn) == hash(built) and repr(fn) == repr(built)


@given(
    beta_systems(max_p=5),
    st.one_of(
        st.fractions(min_value=-5, max_value=5, max_denominator=8),
        st.integers(-(1 << 70), 1 << 70),
        st.just(Fraction(0)),
    ),
)
def test_with_kind_and_scaled_match_rational_builds(beta, c):
    c = rat(c)
    lam = lambda_from_beta(beta)
    raw = beta_from_lambda(lam.scaled(-1))
    for fn in (beta, lam, raw, SubsetFn(beta.p, lam.values, Kind.LAMBDA)):
        expected = _built(fn.p, (c * v for v in fn.values), fn.kind)
        if expected is InvalidBeta:
            with pytest.raises(InvalidBeta):
                fn.scaled(c)
        else:
            _same(fn.scaled(c), expected)
        for kind in Kind:
            expected = _built(fn.p, fn.values, kind)
            if expected is InvalidBeta:
                with pytest.raises(InvalidBeta):
                    fn.with_kind(kind)
            else:
                _same(fn.with_kind(kind), expected)


def test_equality_across_denominators():
    lam = lambda_from_beta(line_fixture_model().beta)
    twice = lam.scaled(rat(2, 3)).scaled(rat(3, 2))  # same values, larger denominator
    assert twice._numerators()[1] != lam._numerators()[1]
    assert twice == lam and hash(twice) == hash(lam)
    assert lam.scaled(rat(2, 3)) != lam


@given(beta_systems(max_p=6))
def test_lambda_monotone_and_theta_subadditive(beta):
    lam = lambda_from_beta(beta)
    th = theta_from_beta(beta)
    assert lambda_violations(lam) == []
    assert theta_violations(th) == []
    # subadditivity over disjoint unions
    p = beta.p
    full = (1 << p) - 1
    for k in range(1, full + 1):
        comp = full ^ k
        if comp:
            assert th[k | comp] <= th[k] + th[comp]


@given(
    beta_systems(max_p=5),
    st.fractions(min_value=0, max_value=5, max_denominator=8),
    st.fractions(min_value=0, max_value=5, max_denominator=8),
)
def test_max_linear_combinations_are_linear(beta, g1, g2):
    g1, g2 = rat(str(g1)), rat(str(g2))
    other = SubsetFn(beta.p, tuple(reversed(beta.values)), Kind.BETA)
    combo = linear_combination([(g1, beta), (g2, other)], Kind.BETA)
    lam_combo = lambda_from_beta(combo)
    expected = linear_combination(
        [(g1, lambda_from_beta(beta)), (g2, lambda_from_beta(other))], Kind.LAMBDA
    )
    assert lam_combo.values == expected.values
    # and the induced spectral distances add likewise
    td_c = td_matrix(lam_combo)
    td_a = td_matrix(lambda_from_beta(beta))
    td_b = td_matrix(lambda_from_beta(other))
    for i in range(beta.p):
        for j in range(beta.p):
            assert spectral_distance_entry(td_c, i, j) == g1 * spectral_distance_entry(
                td_a, i, j
            ) + g2 * spectral_distance_entry(td_b, i, j)


# ---------------------------------------------------------------------------
# Guards and input validation.
# ---------------------------------------------------------------------------


def test_beta_constructor_rejects_negative():
    with pytest.raises(InvalidBeta):
        SubsetFn.from_entries(2, {1: rat(-1, 2)}, Kind.BETA)


def test_raw_kind_allows_negative():
    fn = SubsetFn.from_entries(2, {1: rat(-1, 2)}, Kind.RAW)
    assert fn.negative_masks() == (1,)


def test_soft_size_guard(monkeypatch):
    # coefficient arrays have only the hard cap; TAILDEP_MAX_P guards the deciders
    for env in (None, "12", "18"):
        if env is None:
            monkeypatch.delenv("TAILDEP_MAX_P", raising=False)
        else:
            monkeypatch.setenv("TAILDEP_MAX_P", env)
        assert SubsetFn.zeros(17, Kind.BETA).p == 17
        with pytest.raises(SizeLimitError):
            SubsetFn.zeros(27, Kind.BETA)


def test_hard_size_guard():
    with pytest.raises(SizeLimitError):
        SubsetFn.zeros(27, Kind.BETA)


def test_wrong_length_rejected():
    with pytest.raises(ValueError):
        SubsetFn(2, (ZERO, ZERO), Kind.BETA)


def test_float_coercion_refused():
    with pytest.raises(TypeError):
        rat(0.5)
