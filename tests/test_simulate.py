"""Monte-Carlo engine: exact-law agreement, reproducibility, diagnostics.

Statistical assertions are seed-locked: thresholds were chosen so the
pinned seeds pass deterministically, with the binomial standard error as
the yardstick.
"""

import hashlib
import math
import random
import sys

import numpy as np
import pytest

from oracles import reference_estimate, reference_sample
from taildep import simulate
from taildep.errors import DegenerateModel, DomainError
from taildep.instances import comonotone_model, independence_model, line_fixture_model
from taildep.rationals import rat
from taildep.simulate import (
    DEFAULT_BLOCK_SIZE,
    ExceedanceHistogram,
    estimate_lambda,
    estimate_theta,
    estimation_report,
    exceedance_set_histogram,
    marginal_ks_statistic,
    max_stability_check,
    max_stability_exponent_identity,
    sample,
    tv_distance,
)
from taildep.subsets import mask_of
from taildep.tm import TmModel, cdf, exceedance_set_dist


class TestSampling:
    def test_comonotone_components_identical(self):
        xs = sample(comonotone_model(2), 2000, seed=11)
        assert np.array_equal(xs[:, 0], xs[:, 1])

    def test_reproducibility_bit_identical(self, line_model):
        a = sample(line_model, 50_000, seed=123)
        b = sample(line_model, 50_000, seed=123)
        assert np.array_equal(a, b)

    def test_block_prefix_stability(self, line_model):
        # growing n extends the stream without disturbing earlier blocks
        small = sample(line_model, 10_000, seed=9)
        large = sample(line_model, 90_000, seed=9)
        assert np.array_equal(small, large[:10_000])

    def test_empirical_cdf_matches_exact(self, line_model):
        n = 200_000
        xs = sample(line_model, n, seed=77)
        for point in [(1.0, 1.0, 1.0), (2.0, 1.0, 3.0), (5.0, 5.0, 5.0)]:
            exact = cdf(line_model, list(point))
            emp = float((xs <= np.array(point)).all(axis=1).mean())
            se = math.sqrt(exact * (1 - exact) / n)
            assert abs(emp - exact) <= 4 * se

    def test_independence_exceedance_indicators_uncorrelated(self):
        n = 200_000
        xs = sample(independence_model(2), n, seed=5)
        ind = xs > 10.0
        corr = np.corrcoef(ind[:, 0], ind[:, 1])[0, 1]
        assert abs(corr) < 4 / math.sqrt(n)

    def test_marginal_ks_below_strict_critical_value(self, line_model):
        n = 10**6
        xs = sample(line_model, n, seed=7)
        crit = math.sqrt(math.log(2 / 0.001) / 2) / math.sqrt(n)
        for i in range(3):
            assert marginal_ks_statistic(line_model, xs, i) < crit

    def test_marginal_ks_refuses_empty_samples_and_bad_components(self, line_model):
        with pytest.raises(DomainError):
            marginal_ks_statistic(line_model, np.empty((0, 3)), 0)
        xs = sample(line_model, 100, seed=0)
        for component in (3, -1):
            with pytest.raises(DomainError):
                marginal_ks_statistic(line_model, xs, component)

    def test_zero_block_size_rejected_at_once(self, line_model):
        with pytest.raises(ValueError):
            sample(line_model, 10, seed=0, block_size=0)
        with pytest.raises(ValueError):
            sample(line_model, 10, seed=0, block_size=-1)

    def test_degenerate_model_rejected(self):
        with pytest.raises(DegenerateModel):
            sample(TmModel.from_entries(2, {}), 10, seed=0)

    def test_component_in_no_atom_is_zero(self):
        model = TmModel.from_entries(2, {1: 1})  # component 2 never extreme
        xs = sample(model, 100, seed=0)
        assert (xs[:, 1] == 0).all()


def _p8_model(n_atoms=60, seed=8):
    rng = random.Random(seed)
    masks = {255}
    while len(masks) < n_atoms:
        masks.add(rng.randrange(1, 255))
    return TmModel.from_entries(8, {m: rat(rng.randint(1, 16), 16) for m in masks})


# sha256 of sample(line_fixture_model(), 10_000, seed=3), recorded from the
# per-block sampler in tests/oracles.py before the chunked kernel replaced
# it, so the oracle cannot drift along with the code
LINE_SEED3_SHA256 = "3cf16258c9e389cf74546ae3dbfd73aa5e208c1be146d0e8232b0867bdc3f598"


class TestSamplerBytes:
    """The sampler returns exactly the bytes of the per-block reference loop."""

    @pytest.mark.parametrize(
        "model, n, block_size",
        [
            (line_fixture_model(), 10_007, 3000),  # ragged blocks and chunks
            (line_fixture_model(), 100, DEFAULT_BLOCK_SIZE),  # below one chunk
            (line_fixture_model(), 50, 1),
            (line_fixture_model(), 20_000, 1000),
            (TmModel.from_entries(3, {1: rat(1, 2), 5: 2}), 9_000, 4096),  # zero marginal
            (TmModel.from_entries(1, {1: rat(3, 4)}), 5_000, 1024),  # p = 1
            (_p8_model(), 70_001, DEFAULT_BLOCK_SIZE),  # 60 atoms, two blocks
            # every block ends on a short chunk, and a worker's next block
            # starts again on full chunks
            (_p8_model(), 25_000, 10_000),
            (_p8_model(n_atoms=255), 9_000, 4096),  # every atom at p = 8
        ],
        ids=[
            "ragged", "below-chunk", "block-1", "block-1000", "zero-marginal", "p1", "p8",
            "p8-short-chunks", "p8-dense",
        ],
    )
    def test_matches_reference_loop(self, model, n, block_size):
        got = sample(model, n, seed=17, block_size=block_size)
        assert got.tobytes() == reference_sample(model, n, 17, block_size).tobytes()

    def test_pinned_digest(self):
        xs = sample(line_fixture_model(), 10_000, seed=3)
        assert hashlib.sha256(xs.tobytes()).hexdigest() == LINE_SEED3_SHA256
        ref = reference_sample(line_fixture_model(), 10_000, 3, DEFAULT_BLOCK_SIZE)
        assert hashlib.sha256(ref.tobytes()).hexdigest() == LINE_SEED3_SHA256

    def test_threaded_calls_repeat_exactly(self):
        model = _p8_model()
        a = sample(model, 40_000, seed=5, block_size=5000)
        b = sample(model, 40_000, seed=5, block_size=5000)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("cpus", [1, 8])
    def test_thread_count_does_not_change_bytes(self, monkeypatch, cpus):
        # more workers than cores, switching threads as often as possible
        monkeypatch.setattr(simulate, "_available_cpus", lambda: cpus)
        model = _p8_model()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sample(model, 30_000, seed=6, block_size=2000)
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == reference_sample(model, 30_000, 6, 2000).tobytes()


class TestEstimators:
    def test_line_pair_13_within_3se_of_finite_u_reference(self, line_model):
        xs = sample(line_model, 10**6, seed=7)
        row = estimate_lambda(line_model, xs, mask_of(1, 3), 100.0)
        assert row.deviation_in_se() <= 3.0
        assert row.exact_finite_u == pytest.approx(0.520807, abs=1e-5)
        assert row.asymptotic == pytest.approx(0.5)

    def test_singleton_theta_matches_marginal_reference(self, line_model):
        xs = sample(line_model, 400_000, seed=21)
        row = estimate_theta(line_model, xs, mask_of(2), 50.0)
        assert row.exact_finite_u == pytest.approx(50.0 * (1 - math.exp(-2 / 50.0)))
        assert row.deviation_in_se() <= 4.0

    def test_comonotone_lambda_equals_theta_per_sample(self):
        model = comonotone_model(2)
        xs = sample(model, 50_000, seed=3)
        for u in [0.5, 2.0, 40.0]:
            lam_row = estimate_lambda(model, xs, 3, u)
            th_row = estimate_theta(model, xs, 3, u)
            assert lam_row.empirical == th_row.empirical

    def test_std_error_formula(self, line_model):
        xs = sample(line_model, 10_000, seed=1)
        row = estimate_lambda(line_model, xs, 1, 5.0)
        phat = row.empirical / row.u
        assert row.std_error == pytest.approx(
            row.u * math.sqrt(phat * (1 - phat) / row.n)
        )

    def test_estimator_consistency_over_replications(self, line_model):
        # tolerance test, not proof: >= 99 of 100 replications land within
        # 4 SE of the exact finite-threshold value, for every target
        misses = 0
        reps = 100
        for seed in range(reps):
            xs = sample(line_model, 20_000, seed=1000 + seed)
            rep = estimation_report(
                line_model, exceedance_set_histogram(xs, 40.0),
                lambda_subsets=[mask_of(1, 2)], theta_subsets=[7],
            )
            misses += any(row.deviation_in_se() > 4.0 for row in rep.rows)
        assert misses <= 1

    def test_report_rows_equal_wrapper_rows(self):
        model = _p8_model()
        xs = sample(model, 50_000, seed=4)
        lam = [1 << i for i in range(8)] + [255, 0b1011]
        theta = [255, 0b110]
        rep = estimation_report(model, exceedance_set_histogram(xs, 3.0), lam, theta)
        expected = [estimate_lambda(model, xs, s, 3.0) for s in lam]
        expected += [estimate_theta(model, xs, s, 3.0) for s in theta]
        assert list(rep.rows) == expected

    def test_bad_threshold_and_empty_subset(self, line_model):
        xs = sample(line_model, 100, seed=0)
        with pytest.raises(DomainError):
            estimate_lambda(line_model, xs, 1, 0.0)
        with pytest.raises(DomainError):
            estimate_lambda(line_model, xs, 0, 1.0)

    @pytest.mark.parametrize("u", [math.inf, -math.inf, math.nan])
    def test_non_finite_threshold_rejected(self, line_model, u):
        # an infinite u used to give u * 0 = nan as the estimate
        xs = sample(line_model, 100, seed=0)
        with pytest.raises(DomainError):
            estimate_lambda(line_model, xs, 1, u)
        with pytest.raises(DomainError):
            estimate_theta(line_model, xs, 1, u)
        with pytest.raises(DomainError):
            exceedance_set_histogram(xs, u)
        hist = ExceedanceHistogram(p=3, u=u, n_total=100, n_nonempty=0, counts=())
        with pytest.raises(DomainError):
            estimation_report(line_model, hist, [1])

    def test_no_samples_rejected(self, line_model):
        # with n = 0 every estimate and its standard error would be nan
        with pytest.raises(DomainError, match="0 samples"):
            estimate_lambda(line_model, np.empty((0, 3)), 1, 10.0)

    def test_report_rejects_other_p_and_subsets_outside_p(self, line_model):
        hist = exceedance_set_histogram(sample(line_model, 100, seed=0), 1.0)
        with pytest.raises(DomainError):
            estimation_report(_p8_model(), hist, [1])
        for subset in (0, 8, 9, -1):
            with pytest.raises(DomainError):
                estimation_report(line_model, hist, [subset])
            with pytest.raises(DomainError):
                estimation_report(line_model, hist, (), [subset])


def _covering_model(p, rng):
    """Random atoms plus the full set, so every component is positive."""
    full = (1 << p) - 1
    masks = {full} | {rng.randrange(1, full + 1) for _ in range(3 * p)}
    return TmModel.from_entries(p, {m: rat(rng.randint(1, 16), 16) for m in masks})


class TestEstimatorsMatchPerColumnCounts:
    """Rows read off the histogram equal the per-column reference, field for field."""

    @pytest.mark.parametrize("p", range(1, 11))
    def test_rows_equal_reference(self, p):
        rng = random.Random(500 + p)
        model = _covering_model(p, rng)
        n = 4000
        xs = sample(model, n, seed=p)
        full = (1 << p) - 1
        if p <= 6:
            targets = list(range(1, full + 1))
        else:
            targets = sorted({rng.randrange(1, full) for _ in range(40)} | {full})
        # an ordinary u, one no sample exceeds (strict >) and one every
        # component of every sample exceeds
        us = (2.0, float(xs.max()), float(xs.min()) / 2)
        nonempty = []
        for u in us:
            hist = exceedance_set_histogram(xs, u)
            nonempty.append(hist.n_nonempty)
            rep = estimation_report(model, hist, targets, targets)
            expected = [reference_estimate("lambda", model, xs, s, u) for s in targets]
            expected += [reference_estimate("theta", model, xs, s, u) for s in targets]
            assert list(rep.rows) == expected
            assert (rep.u, rep.n) == (u, n)
        assert 0 < nonempty[0] and nonempty[1:] == [0, n]


class TestExceedanceHistogram:
    def test_independence_splits_evenly(self):
        model = independence_model(2)
        xs = sample(model, 10**6, seed=13)
        hist = exceedance_set_histogram(xs, 200.0)
        emp = hist.empirical()
        assert abs(emp.get(1, 0) - 0.5) < 0.01
        assert abs(emp.get(2, 0) - 0.5) < 0.01
        assert emp.get(3, 0) < 0.005

    def test_line_tv_below_one_percent(self, line_model):
        xs = sample(line_model, 10**6, seed=7)
        hist = exceedance_set_histogram(xs, 100.0)
        tv = tv_distance(hist, exceedance_set_dist(line_model))
        assert tv < 0.01

    @pytest.mark.parametrize("p", [7, 8])  # rows padded to a byte, or not
    def test_masks_match_bitwise_sum(self, p):
        xs = sample(_p8_model(), 50_000, seed=12)[:, :p]
        hist = exceedance_set_histogram(xs, 2.0)
        masks = (xs > 2.0).astype(np.int64) @ (1 << np.arange(p))
        values, counts = np.unique(masks[masks > 0], return_counts=True)
        assert hist.counts == tuple(zip(values.tolist(), counts.tolist()))

    def test_more_components_than_masks_hold_rejected(self):
        with pytest.raises(DomainError):
            exceedance_set_histogram(np.ones((4, 27)), 0.5)

    def test_comonotone_concentrates_on_full_set(self):
        model = comonotone_model(3, scale=2)
        for u in [0.1, 1.0, 50.0]:
            xs = sample(model, 20_000, seed=2)
            hist = exceedance_set_histogram(xs, u)
            assert hist.empirical() == {7: 1.0}


class TestMaxStability:
    def test_exponent_identity_symbolic(self, line_model):
        grid = [
            [rat(1), rat(1), rat(1)],
            [rat(3, 2), rat(2, 7), rat(5)],
            [rat(1, 3), rat(4, 9), rat(2)],
        ]
        for x in grid:
            for n in [2, 3, 5, 8]:
                assert max_stability_exponent_identity(line_model, x, n)

    def test_line_no_flags_at_fixed_seed(self, line_model):
        grid = [
            (0.5, 0.5, 0.5),
            (1.0, 1.0, 1.0),
            (2.0, 1.0, 3.0),
            (4.0, 4.0, 4.0),
            (1.0, 5.0, 2.0),
        ]
        report = max_stability_check(line_model, 5, grid, n=100_000, seed=31)
        assert report.flags == 0

    def test_independence_product_factorization(self):
        model = independence_model(2)
        report = max_stability_check(model, 3, [(1.0, 2.0)], n=50_000, seed=4)
        pt = report.points[0]
        assert pt.exact == pytest.approx(math.exp(-1) * math.exp(-0.5))
        assert not pt.flagged

    def test_nfold_must_be_at_least_two(self, line_model):
        with pytest.raises(DomainError):
            max_stability_check(line_model, 1, [(1.0, 1.0, 1.0)], n=100, seed=0)
