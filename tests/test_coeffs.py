"""Subset coefficient algebra: frozen examples, oracles, and properties."""

import os
import pickle
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from taildep import coeffs, tm
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
from taildep.instances import (
    line_fixture_model,
    pair_matrix_from_beta,
    random_beta,
    random_unit_margin_beta,
)
from taildep.rationals import ZERO, rat
from taildep.subsets import mask_of

from oracles import (
    brute_beta_from_lambda,
    brute_beta_from_theta,
    brute_lambda_from_beta,
    brute_lambda_from_theta,
    brute_theta_from_beta,
    brute_theta_from_lambda,
    reference_butterfly,
    reference_lambda_violations,
    reference_pair_matrix_from_beta,
    reference_theta_violations,
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


@pytest.mark.parametrize("p", range(1, 10))
def test_pair_matrix_from_beta_matches_the_pair_loop(p):
    # the bivariate restriction of lambda equals the direct pair sums over
    # the support, so no test or bench input moves
    for seed in range(20):
        rng = random.Random(seed)
        for beta in (random_beta(p, rng), random_unit_margin_beta(p, rng)):
            assert pair_matrix_from_beta(beta) == reference_pair_matrix_from_beta(beta)


def _dense_p8_beta():
    """A fixed dense p = 8 system: the butterfly's levels 4 to 7 follow runs
    of 16 to 128 entries, the levels below walk the blocks."""
    rng = random.Random(8)
    values = [rat(rng.randint(0, 40), rng.choice([1, 2, 3, 8])) for _ in range(255)]
    return SubsetFn.from_values(8, values, Kind.BETA)


_P8_INT64 = _dense_p8_beta()
_P8_OBJECT = _P8_INT64.scaled((1 << 70) + 1)  # numerators past 2**63


@given(beta_systems(max_p=5))
@example(_P8_INT64)
@example(_P8_OBJECT)
def test_forward_transforms_match_bruteforce(beta):
    assert lambda_from_beta(beta).values == brute_lambda_from_beta(beta).values
    assert theta_from_beta(beta).values == brute_theta_from_beta(beta).values


@given(beta_systems(max_p=5))
@example(_P8_INT64)
@example(_P8_OBJECT)
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


def _dense_beta(p):
    """A fixed dense integer system; from p = 14 on its butterflies run
    levels 5 to 12 with numpy's ufunc buffer sized to each level's run."""
    rng = random.Random(p)
    return SubsetFn.from_values(p, [rng.randrange(0, 48) for _ in range((1 << p) - 1)], Kind.BETA)


_P14 = _dense_beta(14)


def _six_transforms(beta):
    lam, th = lambda_from_beta(beta), theta_from_beta(beta)
    return (lam, th, beta_from_lambda(lam), beta_from_theta(th),
            theta_from_lambda(lam), lambda_from_theta(th))


@pytest.mark.parametrize("p", [14, 16])
@pytest.mark.parametrize("dtype, scale", [(np.int64, 1), (object, (1 << 70) + 1)])
def test_tuned_butterfly_keeps_every_numerator(p, dtype, scale, monkeypatch):
    beta = (_P14 if p == 14 else _dense_beta(p)).scaled(scale)
    tuned = _six_transforms(beta)
    monkeypatch.setattr(coeffs, "_butterfly", reference_butterfly)
    for got, want in zip(tuned, _six_transforms(beta)):
        (nums, den), (ref_nums, ref_den) = got._numerators(), want._numerators()
        assert nums.dtype == ref_nums.dtype == dtype
        assert np.array_equal(nums, ref_nums) and den == ref_den and got.kind is want.kind


def _levels(p, *, fail_at=None):
    """numpy's ufunc buffer size at each level of a p-level butterfly,
    through a stand-in for np.add that raises at level ``fail_at``."""
    sizes = []

    def op(*args, out, order):
        sizes.append(np.getbufsize())
        if len(sizes) - 1 == fail_at:
            raise RuntimeError(f"level {fail_at}")
        np.add(*args, out=out, order=order)

    coeffs._butterfly(np.zeros(1 << p, dtype=np.int64), p, op, superset=True)
    return sizes


def test_butterfly_sizes_the_buffer_to_the_middle_runs_from_p_14():
    default = np.getbufsize()
    assert _levels(13) == [default] * 13
    assert _levels(15) == [default] * 5 + [1 << i for i in range(5, 13)] + [default] * 2
    assert np.getbufsize() == default


def test_small_butterflies_make_no_buffer_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("a buffer call below p = 14")

    monkeypatch.setattr(np, "getbufsize", refuse)
    monkeypatch.setattr(np, "setbufsize", refuse)
    beta = _dense_beta(13)
    assert _six_transforms(beta)[2] == beta


def test_p14_transform_restores_the_default_buffer():
    default = np.getbufsize()
    lam = lambda_from_beta(_P14)
    assert np.getbufsize() == default == 8192
    assert beta_from_lambda(lam) == _P14


def test_p14_transform_restores_a_caller_set_buffer():
    with np.errstate():
        np.setbufsize(1 << 14)
        lam = lambda_from_beta(_P14)
        assert np.getbufsize() == 1 << 14
        assert _levels(14) == [1 << 14] * 5 + [1 << i for i in range(5, 13)] + [1 << 14]
        assert np.getbufsize() == 1 << 14
    assert lam == lambda_from_beta(_P14)


def test_butterfly_restores_the_buffer_when_a_tuned_level_raises():
    default = np.getbufsize()
    with pytest.raises(RuntimeError, match="level 7"):
        _levels(14, fail_at=7)
    assert np.getbufsize() == default


_LEVEL_VARIANTS = [  # (op, superset, swap) of each transform's butterfly, and one more
    (np.add, True, False),
    (np.subtract, True, False),
    (np.subtract, False, False),
    (np.subtract, False, True),
    (np.add, False, False),
]


def _edge_numerators(p, rng, *, signed):
    """2**p - 1 numerators whose absolute values sum to exactly 2**63 - 1,
    each negated with probability 1/2 when ``signed``."""
    top = (1 << 63) - 1
    cuts = sorted(rng.randrange(top) for _ in range((1 << p) - 2))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, top])]
    return [-v if signed and rng.random() < 0.5 else v for v in parts]


def _every_transform(beta, raw):
    """The six transforms of beta, the four that take a signed system of
    raw as lambda and as theta, and synthesize of lambda and of raw."""
    lam, th = lambda_from_beta(beta), theta_from_beta(beta)
    out = [lam, th, beta_from_lambda(lam), beta_from_theta(th),
           theta_from_lambda(lam), lambda_from_theta(th)]
    raw_lam, raw_th = raw.with_kind(Kind.LAMBDA), raw.with_kind(Kind.THETA)
    out += [beta_from_lambda(raw_lam), theta_from_lambda(raw_lam),
            beta_from_theta(raw_th), lambda_from_theta(raw_th)]
    model, failure = tm.synthesize(lam), tm.synthesize(raw_lam)
    return out + [model.beta], failure


def _same_numerators(got, want):
    for fn, ref in zip(got, want, strict=True):
        (nums, den), (ref_nums, ref_den) = fn._numerators(), ref._numerators()
        assert nums.dtype == ref_nums.dtype and den == ref_den and fn.kind is ref.kind
        assert np.array_equal(nums, ref_nums)


@pytest.mark.parametrize("p", range(1, coeffs._KERNEL_P + 2))
def test_product_and_levels_keep_every_numerator_at_the_int64_edge(p, monkeypatch):
    # |numerators| summing to 2**63 - 1 bound every partial sum of K @ x
    # exactly at int64's edge; the last p is past _KERNEL_P: the levels
    rng = random.Random(p)
    beta = SubsetFn._from_numerators(p, _edge_numerators(p, rng, signed=False), 3, Kind.BETA)
    raw = SubsetFn._from_numerators(p, _edge_numerators(p, rng, signed=True), 5, Kind.RAW)
    small_beta = _dense_beta(p)
    small_raw = SubsetFn._from_numerators(
        p, [rng.randrange(-47, 48) for _ in range((1 << p) - 1)], 7, Kind.RAW)
    assert beta._numerators()[0].dtype == raw._numerators()[0].dtype == np.int64
    kernels = []
    real_kernel = coeffs._kernel
    monkeypatch.setattr(coeffs, "_kernel", lambda *key: kernels.append(key) or real_kernel(*key))
    got = [_every_transform(beta, raw), _every_transform(small_beta, small_raw)]
    assert bool(kernels) is (p <= coeffs._KERNEL_P)

    # the object twins stay on the levels
    monkeypatch.setattr(coeffs, "_kernel", None)
    big = (1 << 70) + 1
    twins = _every_transform(beta.scaled(big), raw.scaled(big))
    assert {fn._numerators()[0].dtype for fn in twins[0]} == {np.dtype(object)}

    monkeypatch.setattr(coeffs, "_butterfly", reference_butterfly)
    want = [_every_transform(beta, raw), _every_transform(small_beta, small_raw)]
    for (fns, failure), (ref_fns, ref_failure) in zip(got, want):
        _same_numerators(fns, ref_fns)
        assert failure == ref_failure
    ref_twins = _every_transform(beta.scaled(big), raw.scaled(big))
    _same_numerators(twins[0], ref_twins[0])
    assert twins[1] == ref_twins[1]


@pytest.mark.parametrize("p", range(1, coeffs._KERNEL_P + 1))
def test_kernel_is_the_level_path_on_unit_vectors(p):
    for op, superset, swap in _LEVEL_VARIANTS:
        kernel = coeffs._kernel(p, op, superset, swap)
        columns = [reference_butterfly(unit, p, op, superset=superset, swap=swap)
                   for unit in np.eye(1 << p, dtype=np.int64)]
        assert kernel.dtype == np.int64 and not kernel.flags.writeable
        assert np.array_equal(kernel, np.column_stack(columns))
        assert coeffs._kernel(p, op, superset, swap) is kernel
        with pytest.raises(ValueError):
            kernel[0, 0] = 2


def test_stand_in_ops_never_take_the_product(monkeypatch):
    monkeypatch.setattr(coeffs, "_kernel", None)
    calls = []

    def add(*args, **kwargs):
        calls.append(1)
        np.add(*args, **kwargs)

    for p in range(1, coeffs._KERNEL_P + 1):
        arr = np.arange(1 << p, dtype=np.int64)
        want = reference_butterfly(arr.copy(), p, np.add, superset=True)
        assert coeffs._butterfly(arr, p, add, superset=True) is arr
        assert np.array_equal(arr, want)
    assert len(calls) == sum(range(1, coeffs._KERNEL_P + 1))


def test_lattice_timings_script_runs():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "lattice_timings.py"), "--p", "4", "--repeats", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "p=4 dtype=int64 repeats=2" in result.stdout
    assert result.stdout.count("_from_") == 6 and "synthesize" in result.stdout
    table = result.stdout.split("levels against product")[1].splitlines()[2:]
    assert [int(row.split()[0]) for row in table] == list(range(2, 11))


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


@pytest.mark.parametrize("scale", [1, (1 << 70) + 1], ids=["int64", "object"])
@pytest.mark.parametrize("p", range(1, 7))
def test_violations_match_fraction_loops_on_raw_systems(p, scale):
    # signed values over mixed denominators break both invariants often
    rng = random.Random(p)
    found = set()
    for _ in range(20):
        dens = [1, 2, 3, 4, 6]
        values = [Fraction(rng.randint(-6, 6), rng.choice(dens)) for _ in range(1, 1 << p)]
        fn = SubsetFn.from_values(p, values, Kind.RAW).scaled(scale)
        assert fn._values is None
        lam, th = lambda_violations(fn), theta_violations(fn)
        assert lam == reference_lambda_violations(fn)
        assert th == reference_theta_violations(fn)
        found |= {"lambda"} if lam else set()
        found |= {"theta"} if th else set()
    assert found == ({"lambda", "theta"} if p > 1 else set())  # p = 1 has no pair


def test_violations_build_no_rationals(monkeypatch):
    fn = SubsetFn.from_values(3, [3, -1, 2, 5, 0, 1, 4], Kind.RAW).scaled(1)
    seen = []
    real = coeffs.from_common_numerators

    def spy(nums, den):
        seen.append(len(nums))
        return real(nums, den)

    monkeypatch.setattr(coeffs, "from_common_numerators", spy)
    lambda_violations(fn)
    theta_violations(fn)
    assert seen == [] and fn._values is None


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


def test_equality_across_denominators(monkeypatch):
    lam = lambda_from_beta(line_fixture_model().beta)
    twice = lam.scaled(rat(2, 3)).scaled(rat(3, 2))  # same values, larger denominator
    big = (1 << 70) + 1
    wide = lam.scaled(big).scaled(rat(1, big))  # same values, object numerators
    assert twice._numerators()[1] != lam._numerators()[1]
    assert wide._numerators()[0].dtype == object and lam._numerators()[0].dtype == np.int64
    zero = SubsetFn.zeros(3, Kind.RAW)
    tiny_zero = zero.scaled(rat(1, 1 << 70))  # int64 zeros over a denominator past int64
    pickled = pickle.loads(pickle.dumps(lam))
    fresh = lambda_from_beta(line_fixture_model().beta)

    def refuse(nums, den):
        raise AssertionError("hash built rationals")

    monkeypatch.setattr(coeffs, "from_common_numerators", refuse)
    h_lam, h_twice, h_wide, h_pickled, h_fresh, h_zero, h_tiny = map(
        hash, (lam, twice, wide, pickled, fresh, zero, tiny_zero))
    assert fresh._values is None
    monkeypatch.undo()
    assert twice == lam and h_twice == h_lam
    assert wide == lam and h_wide == h_lam
    assert pickled == lam and h_pickled == h_lam
    assert fresh == lam and h_fresh == h_lam
    assert tiny_zero == zero and h_tiny == h_zero
    assert hash(lam.with_kind(Kind.RAW)) != h_lam
    assert lam.scaled(rat(2, 3)) != lam and hash(lam.scaled(rat(2, 3))) != h_lam


def _stored_as_numerators(fn, expected):
    """``fn`` holds read-only numerators and no rationals until ``values`` is
    read, and matches ``expected`` in equality, hash, repr and pickle."""
    nums, den = fn._numerators()
    assert not nums.flags.writeable and den > 0
    assert fn._values is None
    fn[1], fn.support(), fn.total(), fn.negative_masks()
    assert fn._values is None
    assert fn.values == expected.values and fn._values is not None
    _same(fn, expected)
    _same(pickle.loads(pickle.dumps(fn)), expected)


_ENTRY_VALUES = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=8),
    st.integers(-(1 << 70), 1 << 70),
)


@given(
    st.integers(1, 5).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.dictionaries(st.integers(1, (1 << p) - 1), _ENTRY_VALUES, max_size=8),
        )
    ),
    st.sampled_from(list(Kind)),
    _ENTRY_VALUES,
)
def test_numerator_builds_match_rational_builds(case, kind, c):
    p, entries = case
    c = rat(c)
    values = [rat(entries.get(m, 0)) for m in range(1, 1 << p)]

    def raw():
        return SubsetFn.from_entries(p, entries, Kind.RAW)

    for built, make in (
        (_built(p, values, kind), lambda: SubsetFn.from_entries(p, entries, kind)),
        (_built(p, [ZERO] * len(values), kind), lambda: SubsetFn.zeros(p, kind)),
        (_built(p, values, kind), lambda: raw().with_kind(kind)),
        (_built(p, [c * v for v in values], Kind.RAW), lambda: raw().scaled(c)),
    ):
        if built is InvalidBeta:
            with pytest.raises(InvalidBeta):
                make()
        else:
            _stored_as_numerators(make(), built)


def test_rational_builds_keep_their_rationals():
    values = (rat(1, 3), ZERO, rat(-2, 5))
    fn = SubsetFn(2, values, Kind.RAW)
    assert fn._values is values
    assert fn._numerators()[0].tolist() == [5, 0, -6] and fn._numerators()[1] == 15


def test_support_builds_only_nonzero_rationals(monkeypatch):
    entries = {1: rat(1, 3), 0b101: rat(2, 7), 1 << 15: rat(5), (1 << 16) - 1: rat(-1, 6)}
    fn = SubsetFn.from_entries(16, entries, Kind.RAW)
    seen = []
    real = coeffs.from_common_numerators

    def spy(nums, den):
        seen.append(list(nums))
        return real(nums, den)

    monkeypatch.setattr(coeffs, "from_common_numerators", spy)
    assert fn.support() == tuple(sorted(entries.items()))
    assert len(seen) == 1 and len(seen[0]) == len(entries) and all(seen[0])
    assert fn._values is None


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


def test_soft_size_guard():
    # coefficient arrays have only the hard cap; max_p guards the deciders
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
