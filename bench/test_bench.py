"""Tests of the benchmark's own machinery: the certificate checker and the tracer.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import certcheck  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402
from workloads import F, k23_copy  # noqa: E402

from taildep import cli, instances  # noqa: E402


def _answer(tmp_path: Path, problem: str, key: str, rows) -> tuple[dict, list, int]:
    exact = [[F(v) if not isinstance(v, Fraction) else v for v in r] for r in rows]
    src = tmp_path / f"{problem}-in.json"
    src.write_text(json.dumps({"p": len(exact), key: [[str(v) for v in r] for r in exact]}))
    out = tmp_path / f"{problem}-out.json"
    code = cli.main(["realize", problem, "--in", str(src), "--witness", str(out)])
    return json.loads(out.read_text()), exact, code


@pytest.fixture
def tdr(tmp_path):
    rng = random.Random(5)
    L = instances.pair_matrix_from_beta(instances.random_unit_margin_beta(4, rng))
    feasible = _answer(tmp_path, "td", "lam", L.lam)
    infeasible = _answer(tmp_path, "td", "lam", instances.violate_triangle(L, rng).lam)
    return feasible, infeasible


@pytest.fixture
def sdr(tmp_path):
    rng = random.Random(6)
    feasible = _answer(tmp_path, "sdr", "d", instances.random_cut_metric(6, rng).d)
    infeasible = _answer(tmp_path, "sdr", "d", k23_copy(6, rng, instances.k23_metric()))
    return feasible, infeasible


def test_untampered_answers_pass(tdr, sdr):
    (ok, L, code), (bad, L_bad, code_bad) = tdr
    assert certcheck.check_tdr(ok, L, code, "feasible") is True
    assert certcheck.check_tdr(bad, L_bad, code_bad, "infeasible") is False
    (ok, d, code), (bad, d_bad, code_bad) = sdr
    assert certcheck.check_sdr(ok, d, code, "feasible") is True
    assert certcheck.check_sdr(bad, d_bad, code_bad, "infeasible") is False


def test_tampered_tdr_witness_is_rejected(tdr):
    (payload, L, code), _ = tdr
    entry = payload["witness"]["beta"][0]
    entry["value"] = str(Fraction(entry["value"]) + Fraction(1, 7))
    with pytest.raises(certcheck.Rejected, match="pair sum"):
        certcheck.check_tdr(payload, L, code)
    entry["value"] = "-1/2"
    with pytest.raises(certcheck.Rejected, match="negative"):
        certcheck.check_tdr(payload, L, code)


def test_tampered_tdr_farkas_is_rejected(tdr):
    _, (payload, L, code) = tdr
    y = payload["farkas"]
    payload["farkas"] = [str(-Fraction(v)) for v in y]
    with pytest.raises(certcheck.Rejected, match="right-hand side"):
        certcheck.check_tdr(payload, L, code)
    # the singleton column {1} meets only row (1,1), which comes first
    payload["farkas"] = [str(Fraction(y[0]) + 1000)] + y[1:]
    with pytest.raises(certcheck.Rejected, match="column"):
        certcheck.check_tdr(payload, L, code)


def test_tampered_sdr_certificates_are_rejected(sdr):
    (ok, d, code), (bad, d_bad, code_bad) = sdr
    cut = ok["cuts"]["cuts"][0]
    cut["value"] = str(Fraction(cut["value"]) * 2)
    with pytest.raises(certcheck.Rejected, match="cut reconstruction"):
        certcheck.check_sdr(ok, d, code)
    bad["farkas"][0] = str(Fraction(bad["farkas"][0]) + 1000)
    with pytest.raises(certcheck.Rejected, match="Farkas"):
        certcheck.check_sdr(bad, d_bad, code_bad)


def test_status_must_match_exit_code_and_truth(tdr):
    (payload, L, code), _ = tdr
    with pytest.raises(certcheck.Rejected, match="exit code"):
        certcheck.check_tdr(payload, L, 3)
    with pytest.raises(certcheck.Rejected, match="by construction"):
        certcheck.check_tdr(payload, L, code, "infeasible")


def test_self_times_add_up_and_uninstall_restores(tmp_path):
    import taildep.lp
    import taildep.realize

    originals = (taildep.realize.decide_tdr, taildep.lp.ExactSimplex.__init__)
    rng = random.Random(7)
    L = instances.pair_matrix_from_beta(instances.random_unit_margin_beta(4, rng))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.call("bench.tdr", taildep.realize.decide_tdr, L)
    finally:
        tracer.uninstall()
    assert (taildep.realize.decide_tdr, taildep.lp.ExactSimplex.__init__) == originals
    names = {s[0] for s in tracer.spans}
    assert {"bench.tdr", "realize.decide_tdr", "realize.tdr_system", "lp.init",
            "lp.witness", "tm.synthesize"} <= names
    root = tracer.spans[0]
    summary = summarize(tracer.spans, 1, untraced_s=root[2] - root[1])
    self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(root[2] - root[1], rel=1e-9)
    assert summary["lp.rows"] == 10 and summary["lp.columns"] == 15
