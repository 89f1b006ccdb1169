"""Semimetric validation, cut decompositions, line metrics, uniqueness decider."""

import dataclasses
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from taildep import spectral
from taildep.coeffs import lambda_from_beta, td_matrix
from taildep.errors import InternalError, MalformedMatrix, NotInCutCone
from taildep.instances import (
    comonotone_model,
    independence_model,
    k23_metric,
    line_metric_from_weights,
    random_beta,
    random_cut_metric,
    random_graph_metric,
    random_line_instance,
)
from taildep.lp import ExactSimplex
from taildep.rationals import ZERO, rat
from taildep.spectral import (
    CutDecomposition,
    LineMetricCert,
    LineTmModel,
    NotLine,
    NotRealizableAtTheseMarginals,
    SemiMetric,
    canonical_cut,
    canonical_cuts,
    cut_decomposition,
    detect_line_metric,
    distance_from_td,
    higher_order_from_line,
    line_tm_model,
    rigidity_probe,
    validate,
)
from taildep.subsets import mask_of
from taildep.tm import TmModel

from oracles import (
    brute_cut_reconstruction,
    exact_weight_ranges,
    fraction_certificate_holds,
    reference_detect_line_metric,
    reference_higher_order_from_line,
    reference_line_tm_model,
    reference_random_cut_metric,
    reference_rigidity_probe,
)


class TestValidate:
    def test_comonotone_pair_semimetric_not_metric(self):
        d = SemiMetric.from_rows([[0, 0], [0, 0]])
        report = validate(d)
        assert report.is_semimetric and not report.is_metric

    def test_line_metric_valid(self, line_metric):
        report = validate(line_metric)
        assert report.is_semimetric and report.is_metric
        assert report.violations == ()

    def test_forced_triangle_violation_reported(self):
        d = SemiMetric.from_rows([[0, 0, 0], [0, 0, 2], [0, 2, 0]])
        report = validate(d)
        assert not report.is_semimetric
        assert (1, 0, 2) in report.violations  # d(2,3) > d(2,1) + d(1,3)

    def test_malformed_matrices_rejected(self):
        with pytest.raises(MalformedMatrix):
            SemiMetric.from_rows([[0, 1], [2, 0]])
        with pytest.raises(MalformedMatrix):
            SemiMetric.from_rows([[0, -1], [-1, 0]])
        with pytest.raises(MalformedMatrix):
            SemiMetric.from_rows([[1, 0], [0, 0]])


class TestCutDecomposition:
    def test_independence_pair(self):
        cuts = cut_decomposition(independence_model(2))
        assert cuts.weight(1) == 2
        assert cuts.slack_full == 0
        assert cuts.reconstruct().d[0][1] == 2

    def test_comonotone_pair_pure_slack(self):
        cuts = cut_decomposition(comonotone_model(2))
        assert cuts.cuts == ()
        assert cuts.slack_full == 1
        assert cuts.reconstruct().d[0][1] == 0

    def test_line_instance_merges_onto_gaps(self, line_model, line_metric):
        cuts = cut_decomposition(line_model)
        assert cuts.weight(mask_of(1)) == 1
        assert cuts.weight(mask_of(1, 2)) == 2
        assert cuts.weight(mask_of(1, 3)) == 0
        assert cuts.slack_full == rat(1, 2)
        assert cuts.reconstruct().d == line_metric.d

    def test_reconstruction_matches_bruteforce_and_distance(self, rng):
        for _ in range(15):
            beta = random_beta(rng.randint(2, 6), rng)
            model = TmModel(beta.p, beta)
            cuts = cut_decomposition(model)
            recon = cuts.reconstruct()
            # against the O(p^2 * cuts) direct loop
            brute = brute_cut_reconstruction(
                {m: w for m, w in cuts.cuts}, beta.p
            )
            assert [list(row) for row in recon.d] == brute
            # and against the coefficient-level spectral distance
            dist = distance_from_td(td_matrix(lambda_from_beta(beta)))
            assert recon.d == dist.d

    def test_reconstruction_always_a_semimetric(self, rng):
        for _ in range(10):
            beta = random_beta(rng.randint(2, 6), rng)
            recon = cut_decomposition(TmModel(beta.p, beta)).reconstruct()
            assert validate(recon).is_semimetric

    @pytest.mark.parametrize("p", range(1, 10))
    def test_random_cut_metric_matches_the_pair_loop(self, p):
        # the same draws and the same distances as the per-pair Fraction
        # loop, so no test or bench input moves
        for seed in range(20):
            for n_cuts in (None, 0, 1, 3, 4 * p):
                got, want = random.Random(seed), random.Random(seed)
                if p == 1 and n_cuts != 0:
                    # no proper cut to draw
                    with pytest.raises(ValueError):
                        random_cut_metric(p, got, n_cuts)
                    with pytest.raises(ValueError):
                        reference_random_cut_metric(p, want, n_cuts)
                    continue
                d = random_cut_metric(p, got, n_cuts)
                assert d == reference_random_cut_metric(p, want, n_cuts)
                assert got.getstate() == want.getstate()

    def test_reconstruct_at_p1_without_cuts_and_past_int64(self):
        assert CutDecomposition(1, (), ZERO).reconstruct() == SemiMetric.from_rows([[0]])
        zero = SemiMetric.from_rows([[0] * 4] * 4)
        assert CutDecomposition(4, (), rat(3)).reconstruct() == zero
        assert CutDecomposition(4, ((3, ZERO),), ZERO).reconstruct() == zero
        weights = {0b001: rat(1 << 70, 3), 0b011: rat(1, 5), 0b101: rat(1 << 64)}
        recon = CutDecomposition(3, tuple(weights.items()), ZERO).reconstruct()
        assert [list(row) for row in recon.d] == brute_cut_reconstruction(weights, 3)

    def test_canonical_side_contains_component_one(self):
        assert canonical_cut(0b110, 3) == 0b001
        assert canonical_cut(0b011, 3) == 0b011
        assert all(m & 1 for m in canonical_cuts(5))
        assert len(canonical_cuts(5)) == 15


class TestDetectLineMetric:
    def test_line_fixture(self, line_metric):
        cert = detect_line_metric(line_metric)
        assert isinstance(cert, LineMetricCert)
        assert cert.order == (0, 1, 2)
        assert cert.weights == (1, 2)

    def test_equilateral_rejected(self):
        d = SemiMetric.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        result = detect_line_metric(d)
        assert isinstance(result, NotLine)

    def test_any_two_points_are_a_line(self):
        d = SemiMetric.from_rows([[0, rat(5, 3)], [rat(5, 3), 0]])
        cert = detect_line_metric(d)
        assert isinstance(cert, LineMetricCert)
        assert cert.weights == (rat(5, 3),)

    def test_zero_weights_and_colocated_points(self):
        d = line_metric_from_weights([0, 5, 0])
        cert = detect_line_metric(d)
        assert isinstance(cert, LineMetricCert)
        assert cert.distance(0, 3) == 5

    def test_all_zero_metric_is_a_line(self):
        d = SemiMetric.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert isinstance(detect_line_metric(d), LineMetricCert)

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=8, max_denominator=6),
            min_size=1,
            max_size=11,
        ),
        st.randoms(use_true_random=False),
    )
    def test_round_trip_on_generated_lines(self, weights, pyrandom):
        weights = [rat(str(w)) for w in weights]
        p = len(weights) + 1
        order = list(range(p))
        pyrandom.shuffle(order)
        d = line_metric_from_weights(weights, order)
        cert = detect_line_metric(d)
        assert isinstance(cert, LineMetricCert)
        # the recovered placement reproduces every pairwise distance
        pos = cert.position_of()
        for i in range(p):
            for j in range(p):
                assert cert.distance(pos[i], pos[j]) == d.d[i][j]


class TestLineTmModel:
    def test_fixture_weights(self, line_metric, line_model):
        cert = detect_line_metric(line_metric)
        built = line_tm_model(cert, [2, 2, 2])
        assert isinstance(built, LineTmModel)
        assert dict(built.model.support()) == dict(line_model.support())

    def test_too_small_marginals_fail_with_witness(self, line_metric):
        cert = detect_line_metric(line_metric)
        failure = line_tm_model(cert, [1, 1, 1])
        assert isinstance(failure, NotRealizableAtTheseMarginals)
        assert dict(failure.negative)[mask_of(1, 2, 3)] == rat(-1, 2)

    def test_zero_weights_comonotone(self):
        d = line_metric_from_weights([0, 0])
        cert = detect_line_metric(d)
        built = line_tm_model(cert, [rat(5, 2)] * 3)
        assert isinstance(built, LineTmModel)
        assert dict(built.model.support()) == {mask_of(1, 2, 3): rat(5, 2)}

    def test_support_only_prefixes_and_suffixes(self, rng):
        for _ in range(20):
            p = rng.randint(2, 8)
            weights, marginals = random_line_instance(p, rng)
            cert = detect_line_metric(line_metric_from_weights(weights))
            built = line_tm_model(cert, [marginals[cert.position_of()[i]] for i in range(p)])
            assert isinstance(built, LineTmModel)
            full = (1 << p) - 1
            pos = cert.position_of()
            for mask, w in built.model.support():
                positions = sorted(pos[i] for i in range(p) if mask >> i & 1)
                contiguous = positions == list(range(positions[0], positions[-1] + 1))
                assert contiguous and (0 in positions or p - 1 in positions) or mask == full

    def test_higher_order_collapses_to_extremes(self, line_metric):
        cert = detect_line_metric(line_metric)
        built = line_tm_model(cert, [2, 2, 2])
        assert higher_order_from_line(built, mask_of(1, 2, 3)) == rat(1, 2)
        assert higher_order_from_line(built, mask_of(1, 3)) == rat(1, 2)
        assert higher_order_from_line(built, mask_of(2)) == 2
        # gap-skipping subsets equal their contiguous hulls, all subsets
        lam = lambda_from_beta(built.model.beta)
        for mask in range(1, 8):
            assert higher_order_from_line(built, mask) == lam[mask]


# gaps: zero, small with mixed denominators, and numerators past int64
GAPS = st.one_of(
    st.just(ZERO),
    st.fractions(min_value=0, max_value=8, max_denominator=12),
    st.builds(Fraction, st.integers(2**62, 2**80), st.integers(1, 2**66)),
)


def _typed(values):
    return [(type(v), v.numerator, v.denominator) for v in values]


def _line_case(weights, rng):
    """A line with these gaps under a random relabelling, and marginals per
    component: a walk moving at most one gap per step, shifted so the end
    marginals cover the line's length (realizable), plus an extra amount
    that is negative (too small: the full-set weight goes negative) about
    one time in three, or past int64."""
    p = len(weights) + 1
    order = rng.sample(range(p), p)
    walk = [Fraction(rng.randint(0, 8), rng.choice([1, 2, 3, 7]))]
    for w in weights:
        walk.append(walk[-1] + w * Fraction(rng.randint(-4, 4), 4))
    extra = rng.choice([
        ZERO, Fraction(rng.randint(1, 9), rng.choice([1, 5, 9])),
        Fraction(-rng.randint(1, 9), rng.choice([1, 4])), Fraction(2**70, 3),
    ])
    shift = (sum(weights, ZERO) - walk[0] - walk[-1]) / 2 + extra
    marginals = [None] * p
    for pos, comp in enumerate(order):
        m = walk[pos] + shift
        # integral marginals go in as ints, the rest as rationals
        marginals[comp] = int(m) if m.denominator == 1 else m
    return line_metric_from_weights(weights, order), marginals


class TestIntegerLinePath:
    """Detection, the line model and the collapse run on integer
    numerators; each returns what the rational versions (oracles) return,
    value for value and type for type."""

    @given(st.lists(GAPS, max_size=8), st.randoms(use_true_random=False))
    @example([], random.Random(1))  # p = 1
    @example([Fraction(5, 3)], random.Random(2))  # p = 2
    @example([ZERO] * 4, random.Random(3))  # the all-zero metric
    def test_line_path_equals_fraction_reference(self, weights, rng):
        d, marginals = _line_case(weights, rng)
        cert, want = detect_line_metric(d), reference_detect_line_metric(d)
        assert isinstance(cert, LineMetricCert) and cert == want
        assert _typed(cert.weights) == _typed(want.weights)
        built = line_tm_model(cert, marginals)
        ref = reference_line_tm_model(want, marginals)
        assert type(built) is type(ref) and built == ref
        if isinstance(ref, NotRealizableAtTheseMarginals):
            assert [m for m, _ in built.negative] == [m for m, _ in ref.negative]
            assert _typed(v for _, v in built.negative) == _typed(v for _, v in ref.negative)
            return
        assert _typed(built.marginals) == _typed(ref.marginals)
        support, ref_support = built.model.support(), ref.model.support()
        assert [m for m, _ in support] == [m for m, _ in ref_support]
        assert _typed(v for _, v in support) == _typed(v for _, v in ref_support)
        subsets = range(1, 1 << d.p)
        assert _typed(higher_order_from_line(built, m) for m in subsets) == _typed(
            reference_higher_order_from_line(ref, m) for m in subsets
        )
        # the probe's ranges are the gaps' rationals on their prefix cuts
        report = rigidity_probe(d)
        expected, prefix = {}, 0
        for comp, gap in zip(want.order, want.weights):
            prefix |= 1 << comp
            expected[canonical_cut(prefix, d.p)] = gap
        assert [mask for mask, _, _ in report.ranges] == canonical_cuts(d.p)
        assert all(lo == hi for _, lo, hi in report.ranges)
        assert _typed(lo for _, lo, _ in report.ranges) == _typed(
            expected.get(mask, ZERO) for mask in canonical_cuts(d.p)
        )
        if d.p > 1:
            assert fraction_certificate_holds(d, report)

    @given(
        st.lists(GAPS, min_size=2, max_size=8),
        st.randoms(use_true_random=False),
        GAPS.filter(bool),
    )
    def test_bent_lines_fail_on_the_reference_pair(self, weights, rng, delta):
        # one pair pushed apart: the same verdict, and the same first
        # failing pair when it is no longer a line
        d, _ = _line_case(weights, rng)
        i, j = rng.sample(range(d.p), 2)
        rows = [list(row) for row in d.d]
        rows[i][j] += delta
        rows[j][i] += delta
        bent = SemiMetric.from_rows(rows)
        got, want = detect_line_metric(bent), reference_detect_line_metric(bent)
        assert got == want
        if isinstance(want, LineMetricCert):
            assert _typed(got.weights) == _typed(want.weights)

    @pytest.mark.parametrize("cache", ["halves", "lambdas"])
    def test_tampered_collapse_raises_internal_error(self, line_metric, monkeypatch, cache):
        # the line formula is checked against the model's own lambda table
        built = line_tm_model(detect_line_metric(line_metric), [2, 2, 2])
        subset = mask_of(1, 3)
        assert higher_order_from_line(built, subset) == rat(1, 2)
        if cache == "halves":
            rising, falling, den = built._halves
            tampered = ([v + 1 for v in rising], falling, den)
            monkeypatch.setitem(built.__dict__, "_halves", tampered)
        else:
            table, den = built._lambdas
            table = table.copy()
            table[subset - 1] += 1
            monkeypatch.setitem(built.__dict__, "_lambdas", (table, den))
        with pytest.raises(InternalError):
            higher_order_from_line(built, subset)

    def test_collapse_transforms_beta_once_per_line(self, monkeypatch):
        calls = []

        def counting(beta):
            calls.append(beta)
            return lambda_from_beta(beta)

        monkeypatch.setattr(spectral, "lambda_from_beta", counting)
        d = line_metric_from_weights([1, rat(1, 3), 2, 0, rat(5, 2)], [4, 0, 2, 5, 1, 3])
        built = line_tm_model(detect_line_metric(d), [6] * 6)
        lam = lambda_from_beta(built.model.beta)
        for subset in range(1, 1 << d.p):
            assert higher_order_from_line(built, subset) == lam[subset]
        assert calls == [built.model.beta]

    @pytest.mark.parametrize("subset", [-1, -3, 1 << 3])
    def test_collapse_rejects_masks_out_of_range(self, line_metric, subset):
        built = line_tm_model(detect_line_metric(line_metric), [2, 2, 2])
        with pytest.raises(ValueError, match=f"subset mask {subset} out of range"):
            higher_order_from_line(built, subset)

    def test_tampered_line_weights_raise_internal_error(self, line_metric, monkeypatch):
        # one more unit on the full set and one fewer on the suffix after
        # position 0 (1/2 here, so still nonnegative) moves only the first
        # component's marginal: the integer marginal check trips
        cert = detect_line_metric(line_metric)
        halves = spectral._line_halves

        def tampered(*args):
            rising, falling, den = halves(*args)
            return [rising[0] + 1, *rising[1:]], falling, den

        monkeypatch.setattr(spectral, "_line_halves", tampered)
        with pytest.raises(InternalError):
            line_tm_model(cert, [2, 2, 2])

    def test_numerator_view_stays_outside_the_fields(self, line_metric):
        twin = SemiMetric(line_metric.p, line_metric.d)
        rows, den = line_metric._row_numerators
        assert den == 1 and rows == [[0, 1, 3], [1, 0, 2], [3, 2, 0]]
        assert line_metric == twin and hash(line_metric) == hash(twin)
        assert repr(line_metric) == repr(twin)
        clone = pickle.loads(pickle.dumps(line_metric))
        assert "_row_numerators" not in clone.__dict__ and clone == line_metric

    def test_line_model_caches_stay_outside_the_fields(self, line_metric):
        cert = detect_line_metric(line_metric)
        built, twin = line_tm_model(cert, [2, 2, 2]), line_tm_model(cert, [2, 2, 2])
        higher_order_from_line(built, mask_of(1, 3))
        assert {"_halves", "_lambdas"} <= built.__dict__.keys()
        assert built == twin and hash(built) == hash(twin)
        assert repr(built) == repr(twin)
        clone = pickle.loads(pickle.dumps(built))
        assert not {"_halves", "_lambdas"} & clone.__dict__.keys()
        assert clone == built


class TestRigidityProbe:
    def test_line_ranges_degenerate_at_gap_weights(self, line_metric):
        report = rigidity_probe(line_metric, trials=20)
        assert report.rigid_consistent
        expected = {mask_of(1): rat(1), mask_of(1, 2): rat(2)}
        for mask, lo, hi in report.ranges:
            assert lo == hi == expected.get(mask, ZERO)

    def test_equilateral_p4_non_rigid_with_witness(self):
        d = SemiMetric.from_rows(
            [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
        )
        report = rigidity_probe(d, trials=20)
        assert not report.rigid_consistent
        first, second = report.witness_pair
        assert first.reconstruct().d == d.d
        assert second.reconstruct().d == d.d
        assert first.cuts != second.cuts

    def test_two_points_trivially_rigid(self):
        d = SemiMetric.from_rows([[0, rat(7, 4)], [rat(7, 4), 0]])
        report = rigidity_probe(d, trials=5)
        assert report.rigid_consistent
        assert report.ranges == ((1, rat(7, 4), rat(7, 4)),)

    def test_k23_not_in_cut_cone(self):
        with pytest.raises(NotInCutCone):
            rigidity_probe(k23_metric(), trials=3)


EQUILATERAL_P4 = SemiMetric.from_rows(
    [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
)


def _without_certificate(report):
    return dataclasses.replace(report, certificate=None)


class TestUniquenessDecider:
    @pytest.mark.parametrize("p", range(2, 8))
    def test_lines_equal_reference_with_checked_certificate(self, p):
        rng = random.Random(100 + p)
        for case in range(4):
            weights, _ = random_line_instance(p, rng)
            d = line_metric_from_weights(weights, rng.sample(range(p), p))
            report = rigidity_probe(d, trials=20, seed=case)
            assert _without_certificate(report) == reference_rigidity_probe(
                d, trials=20, seed=case
            )
            assert report.rigid_consistent
            assert fraction_certificate_holds(d, report)

    @pytest.mark.parametrize("p", range(2, 10))
    def test_warm_started_lines_equal_reference(self, p):
        # gaps as drawn, every second gap zero (co-located points), and all
        # gaps zero, each under a random relabelling; the probe proves the
        # line with its closed-form dual, the reference solves the LP under
        # every objective
        rng = random.Random(300 + p)
        drawn, _ = random_line_instance(p, rng)
        for case, weights in enumerate([
            drawn,
            [w if k % 2 else ZERO for k, w in enumerate(drawn)],
            [ZERO] * (p - 1),
        ]):
            d = line_metric_from_weights(weights, rng.sample(range(p), p))
            report = rigidity_probe(d, trials=20, seed=case)
            assert _without_certificate(report) == reference_rigidity_probe(
                d, trials=20, seed=case
            )
            assert report.rigid_consistent
            assert fraction_certificate_holds(d, report)

    def test_line_probe_starts_from_its_nonzero_gap_cuts(self, monkeypatch):
        # a line's decomposition is read off its nonzero-gap prefix cuts and
        # proved in closed form; any other metric takes the LP from scratch
        solvers = []
        init = ExactSimplex.__init__

        def spy(self, *args, **kwargs):
            solvers.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ExactSimplex, "__init__", spy)
        weights, order = [2, 0, 3, 0, 1], [4, 0, 5, 2, 1, 3]
        d = line_metric_from_weights(weights, order)
        report = rigidity_probe(d, trials=20)
        expected, prefix = set(), 0
        for comp, w in zip(order, weights):
            prefix |= 1 << comp
            if w:
                expected.add(canonical_cut(prefix, d.p))
        support = {mask for mask, lo, _ in report.ranges if lo}
        assert len(support) == 3 and support == expected
        assert report.rigid_consistent and solvers == []
        assert fraction_certificate_holds(d, report)
        rigidity_probe(EQUILATERAL_P4, trials=20)
        assert len(solvers) == 1  # not a line: the cold start

    def test_uniqueness_check_pairs_the_cut_system_array(self, monkeypatch):
        # one incidence from builder to check: the shared dual check pairs
        # the very array cut_system returns, for a line's closed-form dual
        # and for an LP dual
        from taildep import realize

        line = line_metric_from_weights([2, 0, 3, 1], [3, 0, 4, 2, 1])
        cuts = random_cut_metric(5, random.Random(0), n_cuts=3)
        assert isinstance(detect_line_metric(cuts), NotLine)
        paired, check = [], spectral._stray_column

        def pair(ys, incidence, **bounds):
            paired.append(incidence)
            return check(ys, incidence, **bounds)

        monkeypatch.setattr(spectral, "_stray_column", pair)
        for d in (line, cuts):
            assert rigidity_probe(d).rigid_consistent
        assert len(paired) == 2
        assert all(a is realize.cut_system(d)[1] for a, d in zip(paired, (line, cuts)))

    def test_p10_line_builds_no_solver(self, monkeypatch):
        # regression guard by solver count, not time: the closed-form dual
        # leaves no phase one to run, where the all-artificial basis made 366
        # pivots on this metric
        solvers = []
        init = ExactSimplex.__init__

        def spy(self, *args, **kwargs):
            solvers.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ExactSimplex, "__init__", spy)
        rng = random.Random(10)
        weights, _ = random_line_instance(10, rng)
        d = line_metric_from_weights(weights, rng.sample(range(10), 10))
        report = rigidity_probe(d, trials=20)
        assert report.rigid_consistent
        assert solvers == []
        assert fraction_certificate_holds(d, report)

    def test_p14_line_is_rigid_with_its_gap_weights(self):
        # past the LP's reach: every third gap zero, under a random relabelling
        p = 14
        rng = random.Random(14)
        drawn, _ = random_line_instance(p, rng)
        weights = [ZERO if k % 3 == 2 else w for k, w in enumerate(drawn)]
        order = rng.sample(range(p), p)
        d = line_metric_from_weights(weights, order)
        expected, prefix = {}, 0
        for comp, w in zip(order, weights):
            prefix |= 1 << comp
            if w:
                expected[canonical_cut(prefix, p)] = w
        report = rigidity_probe(d, trials=20)
        assert report.rigid_consistent
        assert [mask for mask, _, _ in report.ranges] == canonical_cuts(p)
        for mask, lo, hi in report.ranges:
            assert lo == hi == expected.get(mask, ZERO)
        assert fraction_certificate_holds(d, report)

    def test_one_point_is_rigid_with_empty_certificate(self):
        report = rigidity_probe(SemiMetric.from_rows([[0]]), trials=3)
        assert _without_certificate(report) == reference_rigidity_probe(
            SemiMetric.from_rows([[0]]), trials=3
        )
        assert report.certificate == ()

    def test_equilateral_p4_equals_reference(self):
        report = rigidity_probe(EQUILATERAL_P4, trials=20)
        assert report == reference_rigidity_probe(EQUILATERAL_P4, trials=20)
        assert report.certificate is None

    def test_non_rigid_ranges_come_from_the_objective_loop(self):
        # here the 20 objectives see more than the decider's two vertices
        d = random_cut_metric(5, random.Random(1))
        report = rigidity_probe(d, trials=20)
        assert report == reference_rigidity_probe(d, trials=20)
        assert sum(lo != hi for _, lo, hi in report.ranges) == 11

    def test_equilateral_p4_one_objective_is_not_rigid(self):
        # one objective saw one decomposition, so the old probe said rigid
        assert reference_rigidity_probe(EQUILATERAL_P4, trials=1).rigid_consistent
        report = rigidity_probe(EQUILATERAL_P4, trials=1)
        assert not report.rigid_consistent and report.certificate is None
        assert report.objectives_used == 1
        first, second = report.witness_pair
        assert first.reconstruct().d == EQUILATERAL_P4.d
        assert second.reconstruct().d == EQUILATERAL_P4.d
        assert first.cuts != second.cuts
        assert any(lo != hi for _, lo, hi in report.ranges)

    @given(
        st.sampled_from(["cut", "graph"]),
        st.integers(2, 6),
        st.randoms(use_true_random=False),
        st.integers(1, 20),
    )
    def test_verdict_matches_exact_ranges(self, kind, p, pyrandom, trials):
        d = random_cut_metric(p, pyrandom) if kind == "cut" else random_graph_metric(p, pyrandom)
        try:
            exact = exact_weight_ranges(d)
        except ValueError:
            with pytest.raises(NotInCutCone):
                rigidity_probe(d, trials=trials)
            return
        unique = all(lo == hi for _, lo, hi in exact)
        report = rigidity_probe(d, trials=trials, seed=p)
        reference = reference_rigidity_probe(d, trials=trials, seed=p)
        assert report.rigid_consistent == unique
        assert report.objectives_used == trials
        if unique:
            assert report.ranges == exact
            assert fraction_certificate_holds(d, report)
        else:
            first, second = report.witness_pair
            assert first.reconstruct().d == d.d == second.reconstruct().d
            assert first.cuts != second.cuts
            for (mask, lo, hi), (_, low, high) in zip(report.ranges, exact):
                assert low <= lo <= hi <= high
        if reference.rigid_consistent == unique:
            assert _without_certificate(report) == reference

    def test_fraction_check_rejects_tampered_certificates(self, line_metric):
        report = rigidity_probe(line_metric, trials=20)
        assert fraction_certificate_holds(line_metric, report)
        y = report.certificate
        flipped = dataclasses.replace(report, certificate=tuple(-v for v in y))
        assert not fraction_certificate_holds(line_metric, flipped)
        off = dataclasses.replace(report, certificate=(y[0] + 1, *y[1:]))
        assert not fraction_certificate_holds(line_metric, off)

    def test_wrong_dual_raises_internal_error(self, monkeypatch):
        # rigid, not a line, and with a nonzero dual, so the LP proves it
        d = random_cut_metric(4, random.Random(1))
        assert isinstance(detect_line_metric(d), NotLine)
        assert any(rigidity_probe(d, trials=20).certificate)
        assert d.d[0][1] != 0  # so shifting the first entry moves y'd
        maximize = ExactSimplex.maximize
        for tamper, message in (
            (lambda y: [-v for v in y], "uniqueness certificate fails on cut column 3"),
            (lambda y: [y[0] + 1, *y[1:]], "uniqueness certificate: y'd != 0"),
        ):
            def tampered(self, costs, tamper=tamper):
                out = maximize(self, costs)
                self.dual = tamper(self.dual)
                return out

            monkeypatch.setattr(ExactSimplex, "maximize", tampered)
            with pytest.raises(InternalError, match=f"^{re.escape(message)}$"):
                rigidity_probe(d, trials=20)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda y: [-v for v in y], "uniqueness certificate fails on cut column 2"),
            (lambda y: [y[0] + 1, *y[1:]], "uniqueness certificate: y'd != 0"),
        ],
        ids=["negated", "first-entry-off"],
    )
    def test_tampered_line_dual_raises_internal_error(self, line_metric, monkeypatch, tamper, message):
        line_dual = spectral._line_dual
        monkeypatch.setattr(spectral, "_line_dual", lambda line: tamper(line_dual(line)))
        with pytest.raises(InternalError, match=f"^{re.escape(message)}$"):
            rigidity_probe(line_metric, trials=20)


def test_line_metric_study_script_runs_optimized():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-O", str(root / "scripts" / "line_metric_study.py"),
         "--weights", "1,2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "cut {1, 2}: [2/1, 2/1]" in result.stdout
    assert "uniqueness proved: dual certificate of length 3" in result.stdout


def test_distance_from_td_shares_coeffs_examples(line_model):
    td = td_matrix(lambda_from_beta(line_model.beta))
    d = distance_from_td(td)
    assert d.d[0][1] == 1 and d.d[1][2] == 2 and d.d[0][2] == 3
