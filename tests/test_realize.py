"""Realizability deciders: ground truth both ways, certificates, reduction."""

import random
from dataclasses import replace

import numpy as np
import pytest

from taildep.cli import _outcome_payload, main
from taildep.coeffs import TdMatrix, lambda_from_beta
from taildep.errors import (
    CertificateRejected,
    DegenerateReduction,
    InternalError,
    MalformedInput,
    ScaleTooSmall,
    SizeLimitError,
)
from taildep.instances import (
    comonotone_model,
    k23_metric,
    pair_matrix_from_beta,
    random_cut_metric,
    random_graph_metric,
    random_subset_pmf,
    random_unit_margin_beta,
    violate_triangle,
)
from taildep.lp import ExactSimplex
from taildep.rationals import rat
from taildep.realize import (
    DEFAULT_MAX_P,
    Status,
    _pairings,
    cut_system,
    decide_sdr,
    decide_tdr,
    normalize_sdr_to_tdr,
    sdr_auto_scale,
    sdr_rows,
    tdr_rows,
    tdr_system,
    verify_certificate,
)
from taildep.spectral import SemiMetric, cut_decomposition
from taildep.tm import TmModel, model_from_bernoulli


@pytest.mark.parametrize("p", range(1, 9))
def test_systems_are_read_only_int64_incidences(p):
    # each builder hands out one read-only int64 array per p, shared by
    # every call, equal entry for entry to the incidence written out here by
    # bit tests; the column list is fresh on every call
    L = TdMatrix(p, ((rat(1),) * p,) * p)
    d = SemiMetric.from_rows([[0] * p] * p)
    tdr_pairs = [(i, j) for i in range(p) for j in range(i, p)]
    sdr_pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    subsets = list(range(1, 1 << p))
    cuts = [J for J in subsets[:-1] if J & 1]
    for build, pairs, masks, hit in (
        (lambda: tdr_system(L), tdr_pairs, subsets, lambda J, i, j: J >> i & 1 and J >> j & 1),
        (lambda: cut_system(d), sdr_pairs, cuts, lambda J, i, j: J >> i & 1 != J >> j & 1),
    ):
        cols, A, rhs = build()
        again = build()
        assert again[1] is A and again[0] is not cols
        assert isinstance(A, np.ndarray) and A.dtype == np.int64
        assert A.flags.writeable is False
        assert cols == masks and len(rhs) == len(pairs)
        assert A.shape == (len(pairs), len(masks))
        assert A.tolist() == [[int(bool(hit(J, i, j))) for J in masks] for i, j in pairs]


@pytest.mark.parametrize(
    "scale", [1, 1 << 56, 1 << 70], ids=["int64", "sum-past-int64", "past-int64"]
)
@pytest.mark.parametrize("transposed", [False, True], ids=["rows", "columns"])
def test_pairings_equal_python_int_sums(scale, transposed):
    # nums' A over the cut system, and over the transposed view that
    # _mismatch pairs, equal plain Python-int sums entry for entry; at
    # scale 2**56 every entry fits int64 but their sum does not
    A = cut_system(SemiMetric.from_rows([[0] * 6] * 6))[1]
    if transposed:
        A = A.T
    rng = random.Random(11)
    nums = [rng.randint(-99, 99) * scale for _ in range(A.shape[0])]
    loads = _pairings(nums, A)
    assert loads.dtype == (np.int64 if scale == 1 else object)
    assert loads.tolist() == [sum(n * a for n, a in zip(nums, col)) for col in A.T.tolist()]


class TestDecideTdr:
    def test_half_dependence_pair(self):
        L = TdMatrix.from_rows([[1, rat(1, 2)], [rat(1, 2), 1]])
        out = decide_tdr(L)
        assert out.feasible
        assert verify_certificate(out, L)
        w = out.model.beta
        assert w[1] == w[2] == w[3] == rat(1, 2)

    def test_triangle_violation_infeasible(self):
        L = TdMatrix.from_rows([[1, 1, 1], [1, 1, 0], [1, 0, 1]])
        out = decide_tdr(L)
        assert out.status is Status.INFEASIBLE
        assert verify_certificate(out, L)

    def test_bernoulli_generated_matrices_feasible(self, rng):
        for _ in range(10):
            p = rng.randint(2, 5)
            pmf = random_subset_pmf(p, rng)
            model = model_from_bernoulli(pmf, p).model
            lam = lambda_from_beta(model.beta)
            # normalize to unit diagonal: divide by the max marginal, top up
            scales = model.marginal_scales()
            if any(s == 0 for s in scales):
                continue
            mx = max(scales)
            rows = [
                [
                    rat(1) if i == j else lam[(1 << i) | (1 << j)] / mx
                    for j in range(p)
                ]
                for i in range(p)
            ]
            # topping the diagonal up to 1 is realizable by adding singleton mass
            L = TdMatrix.from_rows(rows)
            out = decide_tdr(L)
            assert out.feasible
            assert verify_certificate(out, L)

    def test_unit_margin_corpus_roundtrip(self, rng):
        for _ in range(5):
            p = rng.randint(3, 6)
            beta = random_unit_margin_beta(p, rng)
            L = pair_matrix_from_beta(beta)
            assert L.has_unit_diagonal()
            out = decide_tdr(L)
            assert out.feasible
            assert verify_certificate(out, L)
            assert pair_matrix_from_beta(out.model.beta).lam == L.lam

    def test_failed_resynthesis_is_an_internal_error(self, monkeypatch, tmp_path):
        # a synthesize that returns the wrong model trips the round-trip check
        monkeypatch.setattr(
            "taildep.realize.synthesize", lambda lam: comonotone_model(lam.p)
        )
        L = TdMatrix.from_rows([[1, rat(1, 2)], [rat(1, 2), 1]])
        with pytest.raises(InternalError):
            decide_tdr(L)
        path = tmp_path / "L.csv"
        path.write_text("1,1/2\n1/2,1\n")
        assert main(["realize", "td", "--in", str(path)]) == 1

    def test_non_unit_diagonal_rejected(self):
        L = TdMatrix.from_rows([[2, 1], [1, 2]])
        with pytest.raises(MalformedInput):
            decide_tdr(L)

    def test_size_guard(self, tmp_path, capsys):
        L = TdMatrix.from_rows(
            [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        )
        with pytest.raises(SizeLimitError, match="p=4 exceeds the decider guard 3"):
            decide_tdr(L, max_p=3)
        assert decide_tdr(L, max_p=4).feasible
        metric = [[1 - v for v in row] for row in L.lam]
        for command, rows in (("td", L.lam), ("sdr", metric)):
            path = tmp_path / f"{command}.csv"
            path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
            argv = ["realize", command, "--in", str(path)]
            assert main(argv + ["--max-p", "3"]) == 2
            assert "p=4 exceeds the decider guard 3" in capsys.readouterr().err
            assert main(argv + ["--max-p", "4"]) == 0
        big = DEFAULT_MAX_P + 1
        guard = f"p={big} exceeds the decider guard {DEFAULT_MAX_P}"
        with pytest.raises(SizeLimitError, match=guard):
            decide_tdr(TdMatrix.from_rows([[int(i == j) for j in range(big)] for i in range(big)]))


class TestDecideSdr:
    def test_line_metric_feasible(self, line_metric):
        out = decide_sdr(line_metric)
        assert out.feasible
        assert verify_certificate(out, line_metric)
        assert out.model.lambda_of(1) == sdr_auto_scale(line_metric) == 18
        assert set(out.model.marginal_scales()) == {rat(18)}

    def test_k23_infeasible_with_verified_farkas(self):
        dk = k23_metric()
        out = decide_sdr(dk)
        assert out.status is Status.INFEASIBLE
        assert verify_certificate(out, dk)

    def test_zero_metric_feasible_empty_support(self):
        d = SemiMetric.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
        out = decide_sdr(d)
        assert out.feasible
        assert cut_decomposition(out.model).cuts == ()
        assert out.model.support() == ()

    def test_explicit_scale_and_too_small_scale(self, line_metric):
        out = decide_sdr(line_metric, scale=rat(5, 2))
        assert set(out.model.marginal_scales()) == {rat(5, 2)}
        with pytest.raises(ScaleTooSmall):
            decide_sdr(line_metric, scale=rat(1, 4))

    def test_cut_generated_metrics_feasible(self, rng):
        for _ in range(10):
            d = random_cut_metric(rng.randint(2, 6), rng)
            out = decide_sdr(d)
            assert out.feasible
            assert verify_certificate(out, d)
            assert cut_decomposition(out.model).reconstruct().d == d.d

    def test_p1_trivial(self):
        d = SemiMetric.from_rows([[0]])
        out = decide_sdr(d)
        assert out.feasible
        # no pairs and no cuts: a requested scale is all full-set slack
        out = decide_sdr(d, scale="5")
        assert out.feasible and out.model.lambda_of(1) == 5
        assert out.model.support() == ((1, rat(5)),)
        assert verify_certificate(out, d)
        with pytest.raises(ScaleTooSmall):
            decide_sdr(d, scale="-1")


class TestNormalizeReduction:
    def test_two_point_value(self):
        d = SemiMetric.from_rows([[0, 1], [1, 0]])
        L = normalize_sdr_to_tdr(d)
        assert L.lam[0][1] == rat(3, 4)
        assert L.has_unit_diagonal()

    def test_zero_matrix_raises_degenerate(self):
        d = SemiMetric.from_rows([[0, 0], [0, 0]])
        with pytest.raises(DegenerateReduction):
            normalize_sdr_to_tdr(d)

    def test_line_and_k23_agreement(self, line_metric):
        for d in [line_metric, k23_metric()]:
            td = normalize_sdr_to_tdr(d)
            assert decide_tdr(td).feasible == decide_sdr(d).feasible

    def test_agreement_on_random_metrics(self, rng):
        for _ in range(12):
            p = rng.randint(2, 5)
            d = (
                random_cut_metric(p, rng)
                if rng.random() < 0.5
                else random_graph_metric(p, rng)
            )
            if d.is_zero():
                continue
            td = normalize_sdr_to_tdr(d)
            sdr_out = decide_sdr(d)
            tdr_out = decide_tdr(td)
            assert sdr_out.feasible == tdr_out.feasible
            assert verify_certificate(sdr_out, d)
            assert verify_certificate(tdr_out, td)


class TestCertificates:
    def test_tampered_witness_rejected(self):
        L = TdMatrix.from_rows([[1, rat(1, 2)], [rat(1, 2), 1]])
        out = decide_tdr(L)
        from dataclasses import replace

        from taildep.coeffs import Kind, SubsetFn

        vals = list(out.model.beta.values)
        vals[0] += rat(1, 9)
        bad = replace(out, model=TmModel(2, SubsetFn(2, tuple(vals), Kind.BETA)))
        with pytest.raises(CertificateRejected):
            verify_certificate(bad, L)

    def test_swapped_model_rejected(self):
        # the model is the witness the CLI writes out: a valid TmModel that
        # is not the solved one must not pass
        L = TdMatrix.from_rows([[1, rat(1, 2)], [rat(1, 2), 1]])
        out = decide_tdr(L)
        bad = replace(out, model=TmModel.from_entries(2, {3: 5}))
        sums = r"^witness pair sum at \(1,1\) is 5, expected 1$"
        with pytest.raises(CertificateRejected, match=sums):
            verify_certificate(bad, L)

    def test_sdr_model_is_checked_at_its_own_marginal(self, line_metric):
        # the SDR model is the one witness, and its scale is its own first
        # marginal: the comonotone model at 5 has every distance 0, so it
        # fails at the first pair, whose target is 5 - d_12 / 2 = 9/2
        d = line_metric
        out = decide_sdr(d)
        bad = replace(out, model=TmModel.from_entries(3, {7: 5}))
        sums = r"^witness pair sum at \(1,2\) is 5, expected 9/2$"
        with pytest.raises(CertificateRejected, match=sums):
            verify_certificate(bad, d)
        # a model realizing d at another common scale is a valid witness
        other = decide_sdr(d, scale=rat(5, 2)).model
        assert other != out.model
        assert verify_certificate(replace(out, model=other), d)
        with pytest.raises(CertificateRejected, match="^missing witness$"):
            verify_certificate(replace(out, model=None), d)

    def test_missing_farkas_rejected(self):
        for decide, instance in (
            (decide_tdr, TdMatrix.from_rows([[1, 1, 1], [1, 1, 0], [1, 0, 1]])),
            (decide_sdr, k23_metric()),
        ):
            out = decide(instance)
            assert out.status is Status.INFEASIBLE
            with pytest.raises(CertificateRejected, match="^missing Farkas vector$"):
                verify_certificate(replace(out, farkas=None), instance)

    def test_tampered_farkas_rejected(self):
        L = TdMatrix.from_rows([[1, 1, 1], [1, 1, 0], [1, 0, 1]])
        out = decide_tdr(L)
        from dataclasses import replace

        bad = replace(out, farkas=tuple(-y for y in out.farkas))
        with pytest.raises(CertificateRejected):
            verify_certificate(bad, L)

    def test_each_rejection_names_its_discrepancy(self):
        from dataclasses import replace

        from taildep.coeffs import Kind, SubsetFn

        L = TdMatrix.from_rows([[1, rat(1, 2)], [rat(1, 2), 1]])
        out = decide_tdr(L)
        vals = list(out.model.beta.values)
        vals[0] += rat(1, 9)
        bad = replace(out, model=TmModel(2, SubsetFn(2, tuple(vals), Kind.BETA)))
        sums = r"^witness pair sum at \(1,1\) is 10/9, expected 1$"
        with pytest.raises(CertificateRejected, match=sums):
            verify_certificate(bad, L)
        with pytest.raises(CertificateRejected, match="^missing witness$"):
            verify_certificate(replace(out, model=None), L)
        # a witness over another number of components
        bad = replace(out, model=TmModel.from_entries(3, dict.fromkeys(range(1, 8), rat(1, 7))))
        with pytest.raises(CertificateRejected, match="^dimension mismatch$"):
            verify_certificate(bad, L)

        T = TdMatrix.from_rows([[1, 1, 1], [1, 1, 0], [1, 0, 1]])
        out = decide_tdr(T)
        assert verify_certificate(out, T)
        length = "^certificate length does not match row count$"
        with pytest.raises(CertificateRejected, match=length):
            verify_certificate(replace(out, farkas=out.farkas[1:]), T)
        # y = the row of pair (2, 3): y'b = 0
        unit = tuple(rat(int(pair == (1, 2))) for pair in tdr_rows(3))
        rhs = "^Farkas pairing with the right-hand side is not positive$"
        with pytest.raises(CertificateRejected, match=rhs):
            verify_certificate(replace(out, farkas=unit), T)
        # y = the row of pair (1, 2): y'b = 1, and subset {1, 2} (mask 3) pairs to 1
        unit = tuple(rat(int(pair == (0, 1))) for pair in tdr_rows(3))
        with pytest.raises(CertificateRejected, match="^Farkas pairing with column 3 is positive$"):
            verify_certificate(replace(out, farkas=unit), T)

        d = k23_metric()
        out = decide_sdr(d)
        assert verify_certificate(out, d)
        # one pair's row: every cut separating that pair pairs to its weight
        unit = tuple(rat(1, 3) if pair == (0, 3) else rat(0) for pair in sdr_rows(5))
        with pytest.raises(CertificateRejected, match="^Farkas pairing with column 1 is positive$"):
            verify_certificate(replace(out, farkas=unit), d)

        # a line: cuts {1} (weight 1) and {1, 2} (weight 2), scale 18
        d = SemiMetric.from_rows([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        out = decide_sdr(d)
        assert verify_certificate(out, d)
        # the model is a TDR witness for lambda_ij = s - d_ij / 2, s its
        # first marginal: bumping atom {1} moves s to 19
        atoms = dict(out.model.support())
        atoms[1] += 1
        model = TmModel.from_entries(3, atoms)
        marginal = r"^witness pair sum at \(1,2\) is 35/2, expected 37/2$"
        with pytest.raises(CertificateRejected, match=marginal):
            verify_certificate(replace(out, model=model), d)
        # every marginal 18, every distance 0
        model = TmModel.from_entries(3, {0b111: rat(18)})
        distance = r"^witness pair sum at \(1,2\) is 18, expected 35/2$"
        with pytest.raises(CertificateRejected, match=distance):
            verify_certificate(replace(out, model=model), d)
        # two components with marginals 18 at distance d(1, 2) = 1
        model = TmModel.from_entries(2, {0b01: rat(1, 2), 0b10: rat(1, 2), 0b11: rat(35, 2)})
        with pytest.raises(CertificateRejected, match="^dimension mismatch$"):
            verify_certificate(replace(out, model=model), d)

    def test_witness_checks_match_rational_sums(self, rng):
        # the integer checks of TDR and SDR witnesses against plain rational
        # sums, on perturbed witnesses; every second trial scales instance
        # and witness by 2**90 (leaving int64)
        from dataclasses import replace

        from taildep.coeffs import Kind, SubsetFn

        def covers(mask, i, j):
            return mask >> i & 1 and mask >> j & 1

        def separates(mask, i, j):
            return (mask >> i & 1) != (mask >> j & 1)

        def sums_hold(weights, hits, pairs, want):
            return all(
                sum((w for m, w in weights if hits(m, i, j)), rat(0)) == want(i, j)
                for i, j in pairs
            )

        def perturbed(values):
            values = list(values)
            k = rng.randrange(len(values))
            values[k] += rat(rng.randint(-2, 2), rng.choice([1, 3, 8]))
            return values

        def accepts(outcome, instance):
            try:
                return verify_certificate(outcome, instance)
            except CertificateRejected:
                return False

        seen = set()
        for p in (3, 4, 5):
            L = pair_matrix_from_beta(random_unit_margin_beta(p, rng))
            d = random_cut_metric(p, rng)
            tdr, sdr = decide_tdr(L), decide_sdr(d)
            tdr_pairs = [(i, j) for i in range(p) for j in range(i, p)]
            sdr_pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
            for trial in range(40):
                c = 1 << (90 * (trial % 2))
                Lc = TdMatrix.from_rows([[c * v for v in row] for row in L.lam])
                dc = SemiMetric.from_rows([[c * v for v in row] for row in d.d])

                beta = perturbed(c * v for v in tdr.model.beta.values)
                if min(beta) >= 0:  # else not a model
                    valid = sums_hold(
                        list(enumerate(beta, start=1)), covers, tdr_pairs,
                        lambda i, j: Lc.lam[i][j],
                    )
                    witness = TmModel(p, SubsetFn(p, tuple(beta), Kind.BETA))
                    assert accepts(replace(tdr, model=witness), Lc) == valid
                    seen.add(valid)

                atoms = [(m, c * v) for m, v in sdr.model.beta.entries()]
                atoms = list(zip([m for m, _ in atoms], perturbed(v for _, v in atoms)))
                if min(v for _, v in atoms) < 0:
                    continue  # not a model
                first = sum((v for m, v in atoms if m & 1), rat(0))
                valid = sums_hold(
                    atoms, covers, [(i, i) for i in range(p)], lambda i, j: first
                ) and sums_hold(atoms, separates, sdr_pairs, lambda i, j: dc.d[i][j])
                model = TmModel.from_entries(p, dict(atoms))
                assert accepts(replace(sdr, model=model), dc) == valid
                seen.add(valid)
        assert seen == {True, False}

    def test_farkas_check_matches_rational_sums(self, rng):
        # the integer check against plain rational sums, on perturbed
        # certificates and on huge multipliers (which leave int64)
        from dataclasses import replace

        from taildep.realize import tdr_system

        seen = set()
        for p in (3, 4, 5):
            L = violate_triangle(pair_matrix_from_beta(random_unit_margin_beta(p, rng)), rng)
            out = decide_tdr(L)
            assert not out.feasible
            cols, rows, rhs = tdr_system(L)
            for trial in range(40):
                y = [v * (1 << (90 * (trial % 2))) for v in out.farkas]
                k = rng.randrange(len(y))
                y[k] += rat(rng.randint(-2, 2), rng.choice([1, 3, 8]))
                valid = sum(a * b for a, b in zip(y, rhs)) > 0 and all(
                    sum(a * row[j] for a, row in zip(y, rows)) <= 0 for j in range(len(cols))
                )
                try:
                    accepted = verify_certificate(replace(out, farkas=tuple(y)), L)
                except CertificateRejected:
                    accepted = False
                assert accepted == valid
                seen.add(valid)
        assert seen == {True, False}

    def test_mismatched_instance_rejected(self, line_metric):
        out = decide_sdr(line_metric)
        with pytest.raises(CertificateRejected):
            verify_certificate(out, k23_metric())


class TestConeConvexity:
    def test_convex_combinations_stay_feasible(self, rng):
        for _ in range(6):
            p = rng.randint(3, 5)
            L1 = pair_matrix_from_beta(random_unit_margin_beta(p, rng))
            L2 = pair_matrix_from_beta(random_unit_margin_beta(p, rng))
            t = rat(rng.randint(0, 8), 8)
            mix = TdMatrix.from_rows(
                [
                    [t * L1.lam[i][j] + (1 - t) * L2.lam[i][j] for j in range(p)]
                    for i in range(p)
                ]
            )
            out = decide_tdr(mix)
            assert out.feasible
            assert verify_certificate(out, mix)


def test_materialized_equal_margins_at_auto_scale(rng):
    for _ in range(6):
        d = random_cut_metric(rng.randint(2, 5), rng)
        out = decide_sdr(d)
        assert out.feasible
        c = sdr_auto_scale(d)
        scales = out.model.marginal_scales() if not out.model.is_degenerate else ()
        for s in scales:
            assert s == c


def _stats_cases():
    rng = random.Random(17)
    L = pair_matrix_from_beta(random_unit_margin_beta(5, rng))
    yield pytest.param(decide_tdr, L, tdr_system, Status.FEASIBLE, id="tdr-feasible")
    yield pytest.param(
        decide_tdr, violate_triangle(L, rng), tdr_system, Status.INFEASIBLE, id="tdr-infeasible"
    )
    yield pytest.param(
        decide_sdr, random_cut_metric(6, rng), cut_system, Status.FEASIBLE, id="sdr-feasible"
    )
    yield pytest.param(decide_sdr, k23_metric(), cut_system, Status.INFEASIBLE, id="sdr-infeasible")


@pytest.mark.parametrize("decide, instance, system, status", list(_stats_cases()))
def test_outcome_carries_the_solver_stats(decide, instance, system, status):
    out = decide(instance)
    assert out.status is status
    _, A, rhs = system(instance)
    fresh = ExactSimplex(A, rhs).stats
    assert out.stats.phase_one_pivots == fresh.phase_one_pivots > 0
    for name in ("phase_two_pivots", "degenerate_pivots", "d_bits"):
        assert getattr(out.stats, name) == getattr(fresh, name), name
    # the stats take no part in equality, nor in the CLI's JSON
    bare = replace(out, stats=None)
    assert bare == out
    assert _outcome_payload(bare) == _outcome_payload(out)


def test_payload_rows_are_the_problems_rows_in_order():
    # the CLI's "rows" come from the problem and p: the order the Farkas
    # vector's entries follow
    line = SemiMetric.from_rows([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    triangle = TdMatrix.from_rows([[1, 1, 1], [1, 1, 0], [1, 0, 1]])
    cases = (
        (decide_tdr(TdMatrix.from_rows([[1]])), [[1, 1]]),
        (decide_tdr(triangle), [[1, 1], [1, 2], [1, 3], [2, 2], [2, 3], [3, 3]]),
        (decide_sdr(line), [[1, 2], [1, 3], [2, 3]]),
        (decide_sdr(k23_metric()),
         [[1, 2], [1, 3], [1, 4], [1, 5], [2, 3], [2, 4], [2, 5], [3, 4], [3, 5], [4, 5]]),
    )
    for out, rows in cases:
        assert _outcome_payload(out)["rows"] == rows
    assert [out.feasible for out, _ in cases] == [True, False, True, False]
