import json

import numpy as np
import pytest

from scalehilbert.cli import DEFAULT_LADDER, RunConfig, main
from scalehilbert.hessian import operator_to_json
from scalehilbert.verify import (
    BATCH_CERTIFICATES,
    OPERATOR_CERTIFICATES,
    analyze_operator_batch,
    standard_operator_set,
)


@pytest.fixture(autouse=True)
def run_in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SCALE_HILBERT_TOL", raising=False)
    return tmp_path


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig("verify-all")
        assert cfg.n == 8 and cfg.nu_max == 16 and cfg.k_max == 3
        assert cfg.output_file() == "scalehilbert_verify_all.json"

    def test_explicit_output_wins(self):
        cfg = RunConfig("ladder", output_path="out/report.json")
        assert cfg.output_file() == "out/report.json"

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RunConfig("no-such-command")
        with pytest.raises(ValueError):
            RunConfig("ladder", n=0)
        with pytest.raises(ValueError):
            RunConfig("ladder", k_max=-1)
        with pytest.raises(ValueError):
            RunConfig("ladder", tol=0.0)
        with pytest.raises(ValueError):
            RunConfig("ladder", ladder=(64, 64))
        with pytest.raises(ValueError):
            RunConfig("ladder", ladder=(128, 64))
        with pytest.raises(ValueError):
            RunConfig("ladder", ladder=())


class TestSobolevDemo:
    def test_default_run_passes(self, capsys):
        code = main(["--command", "sobolev-demo", "--nu-max", "12", "--k-max", "2"])
        assert code == 0
        report = read_report("scalehilbert_sobolev_demo.json")
        assert report["oracle"]["passed"]
        assert len(report["rows"]) == 12 * 3
        assert len(report["sigma_constants"]) == 3
        assert "PASS" in capsys.readouterr().out

    def test_csv_mirror(self):
        main(["--command", "sobolev-demo", "--nu-max", "4", "--k-max", "1"])
        with open("scalehilbert_sobolev_demo.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "nu,k,closed_form,quadrature,abs_delta,ratio"
        assert len(lines) == 1 + 4 * 2

    def test_smallest_case(self):
        code = main(["--command", "sobolev-demo", "--nu-max", "1", "--k-max", "0"])
        assert code == 0
        rows = read_report("scalehilbert_sobolev_demo.json")["rows"]
        assert len(rows) == 1
        row = rows[0]
        assert row["nu"] == 1 and row["k"] == 0
        assert row["closed_form"] == 1.0
        assert row["quadrature"] == pytest.approx(1.0, rel=1e-14)
        assert row["ratio"] == pytest.approx(1.0, rel=1e-14)

    def test_unattainable_tol_fails(self):
        code = main(["--command", "sobolev-demo", "--nu-max", "8", "--tol", "1e-30"])
        assert code == 1
        assert not read_report("scalehilbert_sobolev_demo.json")["oracle"]["passed"]

    def test_custom_output_path(self, tmp_path):
        target = tmp_path / "demo.json"
        main(["--command", "sobolev-demo", "--nu-max", "2", "--output", str(target)])
        assert target.exists()
        assert (tmp_path / "demo.csv").exists()


class TestHessianAnalyze:
    def test_default_operator(self):
        code = main(["--command", "hessian-analyze"])
        assert code == 0
        report = read_report("scalehilbert_hessian_analyze.json")
        assert report["passed"]
        assert report["operator"] == {"n": 8, "source": "diag(1..8)"}
        assert report["gammas"] == list(range(1, 9))
        assert report["order"] == list(range(8))
        weights = [w["weight"] for w in report["fractal_weight"]]
        assert weights == pytest.approx([g * g + 1 for g in range(1, 9)], rel=1e-14)
        names = [c["name"] for c in report["certificates"]]
        assert names[0] == "symmetry"
        assert "fractal-certificate" in names
        assert all(c["passed"] for c in report["certificates"])
        constants = report["constants"]
        assert constants["regularity_grade0"] == pytest.approx(1.0, rel=1e-10)
        ge = constants["graph_equivalence"]
        assert (ge["c_lo"], ge["c_hi"]) == pytest.approx((1.0, 1.0), rel=1e-12)

    def test_weight_csv_mirror(self):
        main(["--command", "hessian-analyze", "--n", "3"])
        with open("scalehilbert_hessian_analyze.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "nu,gamma,weight"
        assert len(lines) == 4

    def test_conjugated_input_file(self, tmp_path):
        spec = {
            "n": 6,
            "kind": "conjugated_diagonal",
            "diag": [3.0, -1.0, 2.0, 0.0, -4.0, 1.5],
            "seed": 7,
        }
        path = tmp_path / "op.json"
        path.write_text(json.dumps(spec))
        code = main(["--command", "hessian-analyze", "--input", str(path)])
        assert code == 0
        report = read_report("scalehilbert_hessian_analyze.json")
        assert report["passed"]
        expected = sorted(1.0 + g * g for g in spec["diag"])
        weights = [w["weight"] for w in report["fractal_weight"]]
        assert weights == pytest.approx(expected, rel=1e-10)

    def test_non_symmetric_input_halts(self, tmp_path):
        path = tmp_path / "bad_op.json"
        path.write_text(json.dumps({"n": 2, "kind": "dense", "matrix": [[0.0, 1.0], [0.0, 0.0]]}))
        code = main(["--command", "hessian-analyze", "--input", str(path)])
        assert code == 1
        report = read_report("scalehilbert_hessian_analyze.json")
        assert report["halted_after"] == "symmetry"
        assert not report["passed"]
        assert len(report["certificates"]) == 1
        assert report["certificates"][0]["defect"] == 1.0

    def test_tol_override_reaches_the_symmetry_gate(self, tmp_path):
        # symmetric part plus a skew part of relative size 1e-8: the gate
        # passes at --tol 1e-6, and no certificate re-checks at 1e-10
        rng = np.random.default_rng(0)
        b = rng.standard_normal((6, 6))
        sym = (b + b.T) / 2
        c = rng.standard_normal((6, 6))
        skew = (c - c.T) / 2
        matrix = sym + skew * (1e-8 * np.linalg.norm(2 * sym) / np.linalg.norm(2 * skew))
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps({"n": 6, "kind": "dense", "matrix": matrix.tolist()}))
        code = main(["--command", "hessian-analyze", "--input", str(path), "--tol", "1e-6"])
        assert code == 0
        certificates = read_report("scalehilbert_hessian_analyze.json")["certificates"]
        assert [c["name"] for c in certificates] == [c.name for c in OPERATOR_CERTIFICATES]
        assert certificates[0]["defect"] == pytest.approx(1e-8, rel=1e-6)
        assert all(c["passed"] and c["tol"] == 1e-6 for c in certificates)

    def test_wide_range_spectrum_returns_an_exit_code(self, tmp_path):
        # a failing consistency check is a certificate, never an exception;
        # exit 2 here comes from the grade-1 Gram Cholesky (ROADMAP item 3)
        spec = {"n": 4, "kind": "conjugated_diagonal", "diag": [1e9, 1.0, 0.5, -2.0], "seed": 3}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(spec))
        assert main(["--command", "hessian-analyze", "--input", str(path)]) in (1, 2)

    def test_certificates_match_the_batch_bitwise(self, tmp_path):
        op = standard_operator_set(count=2)[1]
        path = tmp_path / "op.json"
        path.write_text(json.dumps(operator_to_json(op)))
        assert main(["--command", "hessian-analyze", "--input", str(path)]) == 0
        certificates = read_report("scalehilbert_hessian_analyze.json")["certificates"]
        names = [c["name"] for c in certificates]
        assert names == [c.name for c in OPERATOR_CERTIFICATES]
        assert names[0] == "symmetry"
        (row,) = analyze_operator_batch([op])
        assert row["kernel"].ker_dim > 0
        shared = {c["name"]: c["defect"] for c in certificates if c["name"] in row}
        assert set(shared) == {c.name for c in BATCH_CERTIFICATES}
        assert shared == {name: row[name] for name in shared}

    def test_missing_input_file(self, capsys):
        assert main(["--command", "hessian-analyze", "--input", "nope.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unparseable_input(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["--command", "hessian-analyze", "--input", str(path)]) == 2

    def test_unknown_operator_kind(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"n": 2, "kind": "sparse", "matrix": [[1.0, 0.0], [0.0, 1.0]]}))
        assert main(["--command", "hessian-analyze", "--input", str(path)]) == 2


class TestLadder:
    def test_default_sides_are_stable(self):
        code = main(["--command", "ladder", "--k-max", "2"])
        assert code == 0
        report = read_report("scalehilbert_ladder.json")
        assert report["sizes"] == list(DEFAULT_LADDER)
        assert not report["growth_flagged"]
        assert all(s["stable_within_5pct"] for s in report["stability"])
        assert len(report["rungs"]) == len(DEFAULT_LADDER)
        for rung in report["rungs"]:
            for grade in rung["grades"]:
                assert 0 < grade["c_lo"] <= grade["c_hi"]

    def test_identical_sides_give_exact_unit_constants(self, tmp_path):
        side = {"weight": {"n": 4, "kind": "closed_form", "formula": {"name": "poly_plus_one", "degree": 2}}}
        path = tmp_path / "sides.json"
        path.write_text(json.dumps({"left": side, "right": side}))
        code = main(["--command", "ladder", "--input", str(path), "--ladder", "8,16", "--k-max", "2"])
        assert code == 0
        report = read_report("scalehilbert_ladder.json")
        for rung in report["rungs"]:
            for grade in rung["grades"]:
                assert grade["c_lo"] == 1.0
                assert grade["c_hi"] == 1.0
                assert grade["spread"] == 1.0

    def test_mismatched_powers_flag_growth_but_exit_zero(self, tmp_path, capsys):
        w = {"n": 4, "kind": "closed_form", "formula": {"name": "poly_plus_one", "degree": 2}}
        sides = {"left": {"weight": w, "power": 1}, "right": {"weight": w, "power": 2}}
        path = tmp_path / "sides.json"
        path.write_text(json.dumps(sides))
        code = main(["--command", "ladder", "--input", str(path), "--ladder", "16,64,256", "--k-max", "2"])
        assert code == 0
        report = read_report("scalehilbert_ladder.json")
        assert report["growth_flagged"]
        assert "growth flagged" in capsys.readouterr().out

    def test_csv_mirror(self):
        main(["--command", "ladder", "--ladder", "4,8", "--k-max", "1"])
        with open("scalehilbert_ladder.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "n,k,c_lo,c_hi,spread"
        assert len(lines) == 1 + 2 * 2

    def test_bad_ladder_values(self):
        assert main(["--command", "ladder", "--ladder", "64,32"]) == 2
        assert main(["--command", "ladder", "--ladder", "abc"]) == 2

    def test_table_weights_rejected_for_sides(self, tmp_path):
        side = {"weight": {"n": 2, "kind": "table", "values": [1.0, 2.0]}}
        path = tmp_path / "sides.json"
        path.write_text(json.dumps({"left": side, "right": side}))
        assert main(["--command", "ladder", "--input", str(path), "--ladder", "2,4"]) == 2

    def test_missing_side_key(self, tmp_path):
        path = tmp_path / "sides.json"
        path.write_text(json.dumps({"left": "sobolev"}))
        assert main(["--command", "ladder", "--input", str(path)]) == 2


class TestVerifyAll:
    def test_default_run_passes(self, capsys):
        code = main(["--command", "verify-all"])
        assert code == 0
        out = capsys.readouterr().out
        for number in range(1, 10):
            assert f"criterion {number} " in out
        assert out.count("PASS") >= 10  # nine criteria plus the summary
        report = read_report("scalehilbert_verify_all.json")
        assert report["passed"]
        assert len(report["criteria"]) == 9
        assert [c["number"] for c in report["criteria"]] == list(range(1, 10))
        assert report["tol_override"] is None

    def test_impossible_tol_fails(self):
        assert main(["--command", "verify-all", "--tol", "1e-300"]) == 1
        report = read_report("scalehilbert_verify_all.json")
        assert not report["passed"]
        assert report["tol_override"] == 1e-300

    def test_env_var_tolerance(self, monkeypatch):
        monkeypatch.setenv("SCALE_HILBERT_TOL", "1e-300")
        assert main(["--command", "verify-all"]) == 1

    def test_flag_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("SCALE_HILBERT_TOL", "1e-300")
        assert main(["--command", "verify-all", "--tol", "1e-8"]) == 0


class TestArgumentHandling:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--command", "frobnicate"])
        assert exc.value.code == 2

    def test_command_is_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_invalid_dimension_reports_error(self, capsys):
        assert main(["--command", "sobolev-demo", "--nu-max", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_reports_have_no_timestamps(self):
        main(["--command", "sobolev-demo", "--nu-max", "2", "--k-max", "0"])
        text = open("scalehilbert_sobolev_demo.json").read()
        for needle in ("time", "date", "stamp"):
            assert needle not in text.lower()
