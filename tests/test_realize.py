"""Realizability deciders: ground truth both ways, certificates, reduction."""

import pytest

from taildep.cli import main
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
from taildep.rationals import rat
from taildep.realize import (
    DEFAULT_MAX_P,
    Status,
    decide_sdr,
    decide_tdr,
    normalize_sdr_to_tdr,
    sdr_auto_scale,
    verify_certificate,
)
from taildep.spectral import SemiMetric, cut_decomposition
from taildep.tm import TmModel, model_from_bernoulli


class TestDecideTdr:
    def test_half_dependence_pair(self):
        L = TdMatrix.from_rows([[1, rat(1, 2)], [rat(1, 2), 1]])
        out = decide_tdr(L)
        assert out.feasible
        assert verify_certificate(out, L)
        w = out.witness_beta
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
            assert pair_matrix_from_beta(out.witness_beta).lam == L.lam

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

    def test_size_guard(self, monkeypatch):
        monkeypatch.delenv("TAILDEP_MAX_P", raising=False)
        L = TdMatrix.from_rows(
            [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        )
        with pytest.raises(SizeLimitError):
            decide_tdr(L, max_p=3)
        assert decide_tdr(L, max_p=4).feasible
        monkeypatch.setenv("TAILDEP_MAX_P", "3")
        with pytest.raises(SizeLimitError):
            decide_tdr(L)
        monkeypatch.delenv("TAILDEP_MAX_P")
        big = DEFAULT_MAX_P + 1
        guard = f"p={big} exceeds the decider guard {DEFAULT_MAX_P}"
        with pytest.raises(SizeLimitError, match=guard):
            decide_tdr(TdMatrix.from_rows([[int(i == j) for j in range(big)] for i in range(big)]))


class TestDecideSdr:
    def test_line_metric_feasible(self, line_metric):
        out = decide_sdr(line_metric)
        assert out.feasible
        assert verify_certificate(out, line_metric)
        assert out.scale == sdr_auto_scale(line_metric) == 18
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
        assert out.cuts.cuts == ()
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

        vals = list(out.witness_beta.values)
        vals[0] += rat(1, 9)
        bad = replace(out, witness_beta=SubsetFn(2, tuple(vals), Kind.BETA))
        with pytest.raises(CertificateRejected):
            verify_certificate(bad, L)

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
        vals = list(out.witness_beta.values)
        vals[0] += rat(1, 9)
        bad = replace(out, witness_beta=SubsetFn(2, tuple(vals), Kind.BETA))
        sums = r"^witness pair sum at \(1,1\) is 10/9, expected 1$"
        with pytest.raises(CertificateRejected, match=sums):
            verify_certificate(bad, L)
        vals[0] = rat(-1, 9)
        bad = replace(out, witness_beta=SubsetFn(2, tuple(vals), Kind.RAW))
        with pytest.raises(CertificateRejected, match="^missing or negative witness$"):
            verify_certificate(bad, L)
        # a witness over another number of components
        bad = replace(out, witness_beta=SubsetFn(3, tuple(rat(1, 7) for _ in range(7)), Kind.BETA))
        with pytest.raises(CertificateRejected, match="^dimension mismatch$"):
            verify_certificate(bad, L)

        T = TdMatrix.from_rows([[1, 1, 1], [1, 1, 0], [1, 0, 1]])
        out = decide_tdr(T)
        assert verify_certificate(out, T)
        length = "^certificate length does not match row count$"
        with pytest.raises(CertificateRejected, match=length):
            verify_certificate(replace(out, farkas=out.farkas[1:]), T)
        # y = the row of pair (2, 3): y'b = 0
        unit = tuple(rat(int(pair == (1, 2))) for pair in out.row_pairs)
        rhs = "^Farkas pairing with the right-hand side is not positive$"
        with pytest.raises(CertificateRejected, match=rhs):
            verify_certificate(replace(out, farkas=unit), T)
        # y = the row of pair (1, 2): y'b = 1, and subset {1, 2} (mask 3) pairs to 1
        unit = tuple(rat(int(pair == (0, 1))) for pair in out.row_pairs)
        with pytest.raises(CertificateRejected, match="^Farkas pairing with column 3 is positive$"):
            verify_certificate(replace(out, farkas=unit), T)

        d = k23_metric()
        out = decide_sdr(d)
        assert verify_certificate(out, d)
        # one pair's row: every cut separating that pair pairs to its weight
        unit = tuple(rat(1, 3) if pair == (0, 3) else rat(0) for pair in out.row_pairs)
        with pytest.raises(CertificateRejected, match="^Farkas pairing with column 1 is positive$"):
            verify_certificate(replace(out, farkas=unit), d)

        # a line: cuts {1} (weight 1) and {1, 2} (weight 2), scale 18
        d = SemiMetric.from_rows([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        out = decide_sdr(d)
        assert verify_certificate(out, d)
        cuts = replace(out.cuts, cuts=((1, rat(-1)), (3, rat(2))))
        with pytest.raises(CertificateRejected, match="^missing or negative cut weights$"):
            verify_certificate(replace(out, cuts=cuts), d)
        cuts = replace(out.cuts, cuts=((1, rat(3, 2)), (3, rat(2))))
        recon = r"^cut reconstruction at \(1,2\) is 3/2, expected 1$"
        with pytest.raises(CertificateRejected, match=recon):
            verify_certificate(replace(out, cuts=cuts), d)
        atoms = dict(out.model.support())
        atoms[1] += 1
        model = TmModel.from_entries(3, atoms)
        with pytest.raises(CertificateRejected, match="^materialized marginals are unequal$"):
            verify_certificate(replace(out, model=model), d)
        # every marginal 18, every distance 0
        model = TmModel.from_entries(3, {0b111: rat(18)})
        distances = "^materialized model does not reproduce the distances$"
        with pytest.raises(CertificateRejected, match=distances):
            verify_certificate(replace(out, model=model), d)
        # two components with marginals 18 at distance d(1, 2) = 1
        model = TmModel.from_entries(2, {0b01: rat(1, 2), 0b10: rat(1, 2), 0b11: rat(35, 2)})
        with pytest.raises(CertificateRejected, match=distances):
            verify_certificate(replace(out, model=model), d)

    def test_witness_checks_match_rational_sums(self, rng):
        # the integer checks of TDR witnesses and of SDR cut weights and
        # models against plain rational sums, on perturbed witnesses; every
        # second trial scales instance and witness by 2**90 (leaving int64)
        from dataclasses import replace

        from taildep.coeffs import Kind, SubsetFn
        from taildep.spectral import CutDecomposition

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

                beta = perturbed(c * v for v in tdr.witness_beta.values)
                valid = min(beta) >= 0 and sums_hold(
                    list(enumerate(beta, start=1)), covers, tdr_pairs, lambda i, j: Lc.lam[i][j]
                )
                witness = SubsetFn(p, tuple(beta), Kind.RAW)
                assert accepts(replace(tdr, witness_beta=witness), Lc) == valid
                seen.add(valid)

                masks = [m for m, _ in sdr.cuts.cuts]
                weights = list(zip(masks, perturbed(c * w for _, w in sdr.cuts.cuts)))
                valid = min(w for _, w in weights) >= 0 and sums_hold(
                    weights, separates, sdr_pairs, lambda i, j: dc.d[i][j]
                )
                cuts = CutDecomposition(p, tuple(weights), c * sdr.cuts.slack_full)
                assert accepts(replace(sdr, cuts=cuts, model=None), dc) == valid
                seen.add(valid)

                atoms = [(m, c * v) for m, v in sdr.model.beta.entries()]
                atoms = list(zip([m for m, _ in atoms], perturbed(v for _, v in atoms)))
                if min(v for _, v in atoms) < 0:
                    continue  # not a model
                scale = c * sdr.scale
                valid = sums_hold(
                    atoms, covers, [(i, i) for i in range(p)], lambda i, j: scale
                ) and sums_hold(atoms, separates, sdr_pairs, lambda i, j: dc.d[i][j])
                model = TmModel.from_entries(p, dict(atoms))
                outcome = replace(sdr, cuts=replace(sdr.cuts, cuts=tuple(
                    (m, c * w) for m, w in sdr.cuts.cuts)), model=model, scale=scale)
                assert accepts(outcome, dc) == valid
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
