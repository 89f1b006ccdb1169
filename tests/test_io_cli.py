"""File-format round trips and the CLI exit-code contract."""

import argparse
import json
import struct

import numpy as np
import pytest

from taildep import cli, io as tio
from taildep.cli import main
from taildep.coeffs import TdMatrix
from taildep.errors import MalformedInput
from taildep.instances import line_fixture_model, random_beta
from taildep.rationals import rat
from taildep.spectral import SemiMetric
from taildep.subsets import mask_of
from taildep.tm import TmModel


class TestJsonRoundTrips:
    def test_subsetfn_exact(self, rng):
        for _ in range(10):
            fn = random_beta(rng.randint(1, 6), rng, den=97)
            back = tio.subsetfn_from_json(
                json.loads(json.dumps(tio.subsetfn_to_json(fn)))
            )
            assert back.p == fn.p and back.kind is fn.kind
            assert back.values == fn.values

    def test_model_exact(self, line_model):
        back = tio.tm_model_from_json(tio.tm_model_to_json(line_model))
        assert back.beta.values == line_model.beta.values

    def test_matrices_exact(self, tmp_path, line_metric):
        # save_matrix writes both formats and the loaders read them back exactly
        td = TdMatrix.from_rows([[1, rat(1, 3)], [rat(1, 3), 1]])
        for suffix in (".json", ".csv"):
            tio.save_matrix(tmp_path / f"l{suffix}", td.lam, "lam")
            tio.save_matrix(tmp_path / f"d{suffix}", line_metric.d, "d")
            assert tio.load_td_matrix(tmp_path / f"l{suffix}").lam == td.lam
            assert tio.load_semimetric(tmp_path / f"d{suffix}").d == line_metric.d

    def test_rational_strings_never_floats(self, line_model):
        payload = json.dumps(tio.tm_model_to_json(line_model))
        assert "0.5" not in payload and "1/2" in payload


class TestCsv:
    def test_round_trip(self, line_metric):
        text = tio.matrix_rows_to_csv(line_metric.d)
        rows = tio.matrix_rows_from_csv(text)
        assert SemiMetric.from_rows(rows).d == line_metric.d

    def test_decimal_cells_parse_exactly(self):
        rows = tio.matrix_rows_from_csv("1,0.25\n0.25,1\n")
        assert rows[0][1] == rat(1, 4)

    def test_empty_rejected(self):
        with pytest.raises(MalformedInput):
            tio.matrix_rows_from_csv("\n")


class TestBinaryStream:
    def test_round_trip(self, tmp_path, line_model):
        from taildep.simulate import sample

        xs = sample(line_model, 1000, seed=3)
        path = tmp_path / "samples.bin"
        tio.write_samples_binary(path, xs)
        assert path.stat().st_size == 16 + 1000 * 3 * 8
        back = tio.read_samples_binary(path)
        assert np.array_equal(back, xs)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAG" + b"\0" * 20)
        with pytest.raises(MalformedInput):
            tio.read_samples_binary(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"TDSIM")
        with pytest.raises(MalformedInput):
            tio.read_samples_binary(path)

    def test_truncated_rejected(self, tmp_path, line_model):
        from taildep.simulate import sample

        xs = sample(line_model, 10, seed=3)
        path = tmp_path / "t.bin"
        tio.write_samples_binary(path, xs)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(MalformedInput):
            tio.read_samples_binary(path)

    def test_partial_float_rejected(self, tmp_path):
        # a (p = 2, n = 1) header with 17 payload bytes: two floats and one byte
        path = tmp_path / "partial.bin"
        path.write_bytes(struct.pack("<6sHQ", b"TDSIM1", 2, 1) + bytes(17))
        with pytest.raises(MalformedInput, match="sample stream truncated"):
            tio.read_samples_binary(path)


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


@pytest.fixture
def workdir(tmp_path):
    lam = {
        "p": 2,
        "kind": "lambda",
        "entries": [
            {"set": [1], "value": "1/1"},
            {"set": [2], "value": "1/1"},
            {"set": [1, 2], "value": "1/2"},
        ],
    }
    (tmp_path / "l.json").write_text(json.dumps(lam))
    bad_lam = {
        "p": 2,
        "kind": "lambda",
        "entries": [
            {"set": [1], "value": "1/1"},
            {"set": [2], "value": "1/1"},
            {"set": [1, 2], "value": "3/2"},
        ],
    }
    (tmp_path / "bad_l.json").write_text(json.dumps(bad_lam))
    (tmp_path / "L_bad.csv").write_text("1,1,1\n1,1,0\n1,0,1\n")
    (tmp_path / "d.csv").write_text("0,1,3\n1,0,2\n3,2,0\n")
    (tmp_path / "model.json").write_text(
        json.dumps(tio.tm_model_to_json(line_fixture_model()))
    )
    return tmp_path


class TestCliExitCodes:
    def test_invert_writes_exact_file(self, workdir, capsys):
        out = workdir / "beta.json"
        code = main(
            ["invert", "--to", "beta", "--in", str(workdir / "l.json"), "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "beta"
        assert all(e["value"] == "1/2" for e in data["entries"])

    def test_invert_takes_the_source_kind_from_the_file(self, workdir, capsys):
        # the file's "kind" is the only source: --from is gone, and a kind
        # with no inversion to --to (here lambda -> lambda) exits 2
        infile = str(workdir / "l.json")
        for argv in (["--from", "lambda", "--to", "beta"], ["--to", "lambda"]):
            assert main(["invert", *argv, "--in", infile]) == 2
        assert "no inversion lambda -> lambda" in capsys.readouterr().err

    def test_tm_synth_negative_exit_3_with_witness(self, workdir, capsys):
        code = main(["tm", "synth", "--in", str(workdir / "bad_l.json")])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["realizable"] is False
        assert {tuple(e["set"]) for e in payload["negative_beta"]} == {(1,), (2,)}

    def test_tm_synth_positive(self, workdir, capsys):
        code = main(["tm", "synth", "--in", str(workdir / "l.json")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == 2

    def test_realize_td_infeasible_exit_3(self, workdir, capsys):
        code = main(["realize", "td", "--in", str(workdir / "L_bad.csv")])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "infeasible"
        assert len(payload["farkas"]) == 6

    def test_realize_sdr_feasible_exit_0(self, workdir, capsys):
        code = main(["realize", "sdr", "--in", str(workdir / "d.csv")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "feasible"
        assert payload["scale"] == "18/1"

    @pytest.mark.parametrize(
        "scale, top, slack",
        [([], "33/2", "33/2"), (["--scale", "35/2"], "16/1", "16/1")],
        ids=["auto", "35/2"],
    )
    def test_realize_sdr_output_is_pinned(self, workdir, capsys, scale, top, slack):
        # the whole stdout, byte for byte: "cuts" and "scale" are read off
        # the witness, which splits each cut weight w as w/2 on both sides
        # and tops the full set up to the scale
        def entries(*pairs):
            return [{"set": s, "value": v} for s, v in pairs]

        code = main(["realize", "sdr", "--in", str(workdir / "d.csv"), *scale])
        assert code == 0
        expected = {
            "problem": "sdr",
            "status": "feasible",
            "p": 3,
            "rows": [[1, 2], [1, 3], [2, 3]],
            "witness": {"p": 3, "beta": entries(
                ([1], "1/2"), ([1, 2], "1/1"), ([3], "1/1"), ([2, 3], "1/2"), ([1, 2, 3], top),
            )},
            "cuts": {"p": 3, "cuts": entries(([1], "1/1"), ([1, 2], "2/1")),
                     "slack_full": slack},
            "scale": scale[1] if scale else "18/1",
        }
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    def test_linemetric_detection_and_model(self, workdir, capsys):
        code = main(
            ["linemetric", "--in", str(workdir / "d.csv"), "--marginals", "2,2,2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["line"] and payload["realizable"]
        assert payload["weights"] == ["1/1", "2/1"]

    def test_linemetric_bad_marginals_exit_3(self, workdir, capsys):
        code = main(
            ["linemetric", "--in", str(workdir / "d.csv"), "--marginals", "1,1,1"]
        )
        assert code == 3

    def test_linemetric_not_line_exit_3(self, workdir, capsys):
        (workdir / "eq.csv").write_text("0,1,1\n1,0,1\n1,1,0\n")
        code = main(["linemetric", "--in", str(workdir / "eq.csv")])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["line"] is False

    def test_simulate_report_and_binary(self, workdir, capsys):
        out = workdir / "report.json"
        bin_out = workdir / "samples.bin"
        code = main(
            ["simulate", "--model", str(workdir / "model.json"), "--n", "20000",
             "--u", "50", "--seed", "7", "--out", str(out),
             "--samples-out", str(bin_out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 20000
        assert len(payload["targets"]) == 14
        xs = tio.read_samples_binary(bin_out)
        assert xs.shape == (20000, 3)
        assert capsys.readouterr().err == ""

    def test_report_table(self, workdir, capsys):
        code = main(["report", "--model", str(workdir / "model.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "theta_total=7/2" in out
        assert "{1,2,3}" in out

    def test_malformed_input_exit_2(self, workdir, capsys):
        (workdir / "junk.csv").write_text("0,1\n1\n")
        assert main(["realize", "td", "--in", str(workdir / "junk.csv")]) == 2
        (workdir / "asym.csv").write_text("0,1\n2,0\n")
        assert main(["realize", "sdr", "--in", str(workdir / "asym.csv")]) == 2
        assert main(["realize", "td", "--in", str(workdir / "missing.csv")]) == 2

    @pytest.mark.parametrize(
        "argv, name, text",
        [
            (["report", "--model"], "m.json",
             '{"p":3,"beta":[{"set":["1"],"value":"1"}]}'),
            (["report", "--model"], "m.json", '{"p":3,"beta":5}'),
            (["report", "--model"], "m.json", "[1,2]"),
            (["report", "--model"], "m.json",
             '{"p":3,"beta":[{"set":[1],"value":"1/0"}]}'),
            (["realize", "td", "--in"], "l.json", '{"p":2,"lam":5}'),
            (["realize", "td", "--in"], "l.json", '{"p":5,"lam":[["1"]]}'),
            (["realize", "sdr", "--in"], "d.json", '{"p":"x","d":[["0"]]}'),
            (["realize", "sdr", "--scale", "1/0", "--in"], "d.csv", "0,1\n1,0\n"),
        ],
        ids=["string-label", "beta-not-array", "top-level-array",
             "zero-denominator", "lam-not-array", "p-not-row-count", "p-not-integer",
             "zero-denominator-scale"],
    )
    def test_malformed_shape_exit_2(self, tmp_path, capsys, argv, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert main(argv + [str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_simulate_small_blocks_warn_on_stderr_only(
        self, workdir, capsys, monkeypatch
    ):
        def run(tag):
            bin_out = workdir / f"{tag}.bin"
            code = main(
                ["simulate", "--model", str(workdir / "model.json"), "--n", "2000",
                 "--u", "50", "--seed", "3", "--block-size", "1",
                 "--samples-out", str(bin_out)]
            )
            out, err = capsys.readouterr()
            return code, out, bin_out.read_bytes(), err

        warned = run("warned")
        monkeypatch.setattr("taildep.cli._CHUNK_ROWS", 1)
        quiet = run("quiet")
        assert warned[:3] == quiet[:3] and warned[0] == 0
        assert quiet[3] == ""
        assert warned[3].startswith("warning: --block-size 1 is below 4096")
        assert warned[3].count("\n") == 1

    @pytest.mark.parametrize(
        "flag, value",
        [("--u", "0"), ("--u", "nan"), ("--u", "inf"), ("--n", "0"), ("--block-size", "0"),
         ("--precision", "-1")],
    )
    def test_simulate_bad_settings_exit_2_before_sampling(
        self, workdir, capsys, flag, value
    ):
        bin_out = workdir / "bad.bin"
        argv = {"--n": "100", "--u": "50", "--block-size": "64", flag: value}
        code = main(
            ["simulate", "--model", str(workdir / "model.json"),
             *(tok for item in argv.items() for tok in item), "--samples-out", str(bin_out)]
        )
        assert code == 2
        assert not bin_out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: --n, --u and --block-size must be positive and --precision")
        assert "warning" not in err

    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_main_builds_one_parser(self, tmp_path, capsys, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            real_init(parser, *args, **kwargs)
            if parser.prog == "taildep":
                built.append(parser)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        model = TmModel.from_entries(2, {3: 1})
        (tmp_path / "m.json").write_text(json.dumps(tio.tm_model_to_json(model)))
        assert main(["frobnicate"]) == 2
        assert main(["report", "--model", str(tmp_path / "m.json")]) == 0
        assert len(built) == 1

    def test_report_large_p_exit_2(self, tmp_path, capsys):
        model = TmModel.from_entries(7, {1: 1})
        (tmp_path / "m7.json").write_text(json.dumps(tio.tm_model_to_json(model)))
        assert main(["report", "--model", str(tmp_path / "m7.json")]) == 2

    @pytest.mark.parametrize(
        "command, payload",
        [
            (["report", "--model"],
             {"p": 3, "beta": [{"set": [1], "value": "1"}, {"set": [1], "value": "2"}]}),
            (["invert", "--to", "beta", "--in"],
             {"p": 2, "kind": "lambda", "entries": [
                 {"set": [1, 2], "value": "1/2"}, {"set": [1], "value": "1"},
                 {"set": [2, 1], "value": "1/4"}]}),
        ],
        ids=["report-model", "invert-in"],
    )
    def test_repeated_subset_exit_2(self, tmp_path, capsys, command, payload):
        # a second entry for a subset used to overwrite the first silently
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        assert main([*command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: subset [1")
        assert "] is listed twice" in err

    def test_simulate_degenerate_model_exit_2(self, tmp_path, capsys):
        # all weights zero: nothing to sample, so no report and no sample file
        model, samples = tmp_path / "m.json", tmp_path / "s.bin"
        model.write_text('{"p": 2, "beta": []}')
        code = main(["simulate", "--model", str(model), "--n", "10", "--u", "1",
                     "--samples-out", str(samples)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert not samples.exists()

    @pytest.mark.parametrize(
        "command", [["report", "--model"], ["simulate", "--n", "10", "--u", "1", "--model"]]
    )
    def test_huge_p_is_refused_before_any_shift(self, tmp_path, capsys, command):
        # 1 << p at p = 2**28 is a 33 MB int, so the hard cap must come first
        path = tmp_path / "huge.json"
        path.write_text('{"p": 268435456, "beta": [{"set": [1], "value": "1/2"}]}')
        assert main([*command, str(path)]) == 2
        assert "p=268435456 exceeds the hard cap 26" in capsys.readouterr().err

    def test_huge_subset_label_is_refused_before_any_shift(
        self, workdir, tmp_path, capsys, monkeypatch
    ):
        # mask_of(2**40) would build a 128 GB int
        def in_range_only(*labels):
            if max(labels) > 3:
                raise RuntimeError(f"mask_of got label {max(labels)}")
            return mask_of(*labels)

        monkeypatch.setattr(tio, "mask_of", in_range_only)
        label = 1 << 40
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"p": 3, "beta": [{"set": [label], "value": "1"}]}))
        targets = tmp_path / "t.json"
        targets.write_text(json.dumps({"lambda": [[1], [label]]}))
        samples = tmp_path / "s.bin"
        assert main(["report", "--model", str(model)]) == 2
        assert main(["simulate", "--model", str(workdir / "model.json"), "--n", "10",
                     "--u", "1", "--targets", str(targets), "--samples-out", str(samples)]) == 2
        assert not samples.exists()  # targets are read before sampling
        err = capsys.readouterr().err
        assert f"error: subset [{label}] out of range for p=3" in err
        assert f"error: target set [{label}] out of range for p=3" in err

    def test_empty_target_set_is_refused_before_sampling(self, workdir, tmp_path, capsys):
        # mask 0 is no subset; it used to pass the read and fail after the draw
        targets = tmp_path / "t.json"
        targets.write_text(json.dumps({"lambda": [[]]}))
        samples = tmp_path / "s.bin"
        assert main(["simulate", "--model", str(workdir / "model.json"), "--n", "1000",
                     "--u", "1", "--targets", str(targets), "--samples-out", str(samples)]) == 2
        assert not samples.exists()
        assert "error: target set [] out of range for p=3" in capsys.readouterr().err

    def test_report_refuses_large_p_before_building_arrays(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("a 2**p array was built")

        monkeypatch.setattr(TmModel, "from_entries", refuse)
        (tmp_path / "m20.json").write_text('{"p": 20, "beta": []}')
        assert main(["report", "--model", str(tmp_path / "m20.json")]) == 2
        assert "p=20 > 6" in capsys.readouterr().err

    def test_console_entrypoint_matches_module(self, workdir):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "taildep", "realize", "td", "--in",
             str(workdir / "L_bad.csv")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 3
