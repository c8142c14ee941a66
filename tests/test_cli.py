import json
import os
import subprocess
import sys

import numpy as np
import pytest

import scalehilbert
from scalehilbert import cli, sobolev_circle
from scalehilbert.cli import DEFAULT_LADDER, RunConfig, main
from scalehilbert.verify import (
    BATCH_CERTIFICATES,
    OPERATOR_CERTIFICATES,
    analyze_operator_batch,
    standard_operator_set,
)

# a spec value that removes its key from the operator object
DROP = object()


@pytest.fixture(autouse=True)
def run_in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def reject_non_finite(name):
    raise ValueError(f"non-finite JSON constant {name}")


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

    def test_overflowing_k_max_is_an_input_error(self, capsys):
        # the grade-70 weight at frequency 32 is about 4e4 ** 70 ~ 1e322
        code = main(["--command", "sobolev-demo", "--nu-max", "64", "--k-max", "70"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--k-max 70" in err
        assert "Traceback" not in err

    def test_high_k_max_below_overflow_passes(self):
        code = main(["--command", "sobolev-demo", "--nu-max", "64", "--k-max", "60"])
        assert code == 0
        with open("scalehilbert_sobolev_demo.json") as fh:
            report = json.load(fh, parse_constant=reject_non_finite)
        assert report["oracle"]["passed"]
        assert len(report["rows"]) == 64 * 61

    def test_unattainable_tol_fails(self):
        code = main(["--command", "sobolev-demo", "--nu-max", "8", "--tol", "1e-30"])
        assert code == 1
        assert not read_report("scalehilbert_sobolev_demo.json")["oracle"]["passed"]

    def test_nan_oracle_delta_fails(self, monkeypatch):
        # a NaN delta at a grade after the first must not be skipped
        deltas = cli.oracle_deltas

        def with_nan(nu_max, k_max):
            for k, (diag, quad, delta) in enumerate(deltas(nu_max, k_max)):
                yield diag, quad, float("nan") if k == 1 else delta

        monkeypatch.setattr(cli, "oracle_deltas", with_nan)
        assert main(["--command", "sobolev-demo", "--nu-max", "4", "--k-max", "2"]) == 1
        assert not read_report("scalehilbert_sobolev_demo.json")["oracle"]["passed"]

    @pytest.mark.parametrize("k_max", [3, 10])
    def test_one_node_gram_per_run(self, monkeypatch, k_max):
        builds = []
        node_gram = sobolev_circle._node_gram

        def counted(nu_max, q):
            builds.append(q)
            return node_gram(nu_max, q)

        monkeypatch.setattr(sobolev_circle, "_node_gram", counted)
        assert main(["--command", "sobolev-demo", "--nu-max", "16", "--k-max", str(k_max)]) == 0
        # grade k_max's own default node count, which every lower grade accepts
        assert builds == [max(64, 4 * 8 * (k_max + 1))]

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
        assert constants["regularity_grade0"] == 1.0
        assert constants["graph_equivalence"] == {"c_lo": 1.0, "c_hi": 1.0, "c_step1": 1.0}

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

    def test_skew_symmetric_report_is_strict_json(self, tmp_path):
        path = tmp_path / "skew.json"
        path.write_text(json.dumps({"n": 2, "matrix": [[0, 1], [-1, 0]]}))
        code = main(["--command", "hessian-analyze", "--input", str(path)])
        assert code == 1
        with open("scalehilbert_hessian_analyze.json") as fh:
            report = json.load(fh, parse_constant=reject_non_finite)
        assert report["halted_after"] == "symmetry"
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

    def test_wide_range_spectrum_returns_an_exit_code(self, tmp_path, capsys):
        # numerical trouble shows as failed named certificates, never as an
        # input error: no Cholesky of the ill-conditioned ladder Grams runs
        spec = {"n": 4, "kind": "conjugated_diagonal", "diag": [1e9, 1.0, 0.5, -2.0], "seed": 3}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(spec))
        assert main(["--command", "hessian-analyze", "--input", str(path)]) == 1
        assert "not positive definite" not in capsys.readouterr().err
        certificates = read_report("scalehilbert_hessian_analyze.json")["certificates"]
        assert [c["name"] for c in certificates] == [c.name for c in OPERATOR_CERTIFICATES]
        assert not all(c["passed"] for c in certificates)

    def test_nan_ladder_defect_fails(self, tmp_path):
        # The graph ladder of diag(1e9, 1) overflows from grade 18, so the
        # fractal deviations from there on are NaN; the certificate must fail
        # on them, not report the largest finite one. A child process, because
        # the overflow RuntimeWarnings would be errors here.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"n": 2, "kind": "diagonal", "diag": [1e9, 1]}))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(scalehilbert.__file__)))
        argv = ["--command", "hessian-analyze", "--input", str(path), "--k-max", "40"]
        child = subprocess.run([sys.executable, "-m", "scalehilbert.cli", *argv], capture_output=True, env=env)
        assert child.returncode == 1
        certificates = {c["name"]: c for c in read_report("scalehilbert_hessian_analyze.json")["certificates"]}
        assert not certificates["fractal-certificate"]["passed"]
        assert np.isnan(certificates["fractal-certificate"]["defect"])

    def test_certificates_match_the_batch_bitwise(self, tmp_path):
        op = standard_operator_set(count=2)[1]
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"n": op.n, "kind": "dense", "matrix": op.matrix.tolist()}))
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

    def test_non_object_input_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["--command", "hessian-analyze", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "expected a JSON object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"scale": 5}, "operator.scale: expected an object, got number"),
            ({"matrix": DROP}, "operator.matrix missing"),
            ({"scale": {"n": 2, "grades": []}}, "operator.scale.k_max missing"),
            ({"scale": {"n": 2, "k_max": 0, "grades": 3}}, "operator.scale.grades: expected an array, got number"),
            ({"scale": {"n": 2, "k_max": 1, "grades": [5, 6]}}, "operator.scale.grades[0]: expected an object, got number"),
            (
                {"scale": {"n": 2, "k_max": 1, "grades": [{"type": "gram", "matrix": [[1, 0], [0, 1]]},
                                                           {"type": "diagonal", "weight": [1, 2]}]}},
                "operator.scale.grades[1].weight: expected an object, got array",
            ),
            ({"kind": "conjugated_diagonal", "diag": [1.0, 2.0]}, "operator.seed missing"),
            ({"n": None}, "operator.n: expected an integer, got null"),
            ({"kind": "conjugated_diagonal", "diag": [1.0, 2.0], "seed": [3]},
             "operator.seed: expected an integer, got array"),
            ({"scale": {"n": 2, "k_max": {}, "grades": []}}, "operator.scale.k_max: expected an integer, got object"),
            (
                {"scale": {"n": 2, "k_max": 0, "grades": [{"type": "diagonal", "weight": {"n": "two"}}]}},
                "operator.scale.grades[0].weight.n: expected an integer, got string",
            ),
            ({"kind": "conjugated_diagonal", "diag": [1.0, 2.0], "seed": 3.9},
             "operator.seed: expected an integer, got number"),
            ({"n": "2"}, "operator.n: expected an integer, got string"),
            ({"n": True}, "operator.n: expected an integer, got boolean"),
            ({"kind": "diagonal", "diag": ["1", 1.0]}, "operator.diag[0]: expected a number, got string"),
            ({"kind": "diagonal", "diag": [1.0, True]}, "operator.diag[1]: expected a number, got boolean"),
            ({"matrix": [[1.0, 0.0], [0.0, None]]}, "operator.matrix[1][1]: expected a number, got null"),
            (
                {"scale": {"n": 2, "k_max": 0, "grades": [{"type": "diagonal",
                                                           "weight": {"n": 2, "kind": "table", "values": [1, "2"]}}]}},
                "operator.scale.grades[0].weight.values[1]: expected a number, got string",
            ),
            (
                {"scale": {"n": 2, "k_max": 0, "grades": [{"type": "gram", "matrix": [[1, 0], [False, 1]]}]}},
                "operator.scale.grades[0].matrix[1][0]: expected a number, got boolean",
            ),
        ],
        ids=["scale", "matrix", "k_max", "grades", "grade", "weight", "seed",
             "n-null", "seed-list", "k_max-object", "weight-n-str", "seed-float", "n-string", "n-bool",
             "diag-string", "diag-bool", "matrix-entry", "table-value", "gram-entry"],
    )
    def test_malformed_field_is_named(self, tmp_path, capsys, spec, message):
        obj = {"n": 2, "kind": "dense", "matrix": [[1.0, 0.0], [0.0, 1.0]], **spec}
        obj = {key: value for key, value in obj.items() if value is not DROP}
        path = tmp_path / "op.json"
        path.write_text(json.dumps(obj))
        assert main(["--command", "hessian-analyze", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_missing_side_is_named(self, tmp_path, capsys):
        path = tmp_path / "sides.json"
        path.write_text(json.dumps({"left": "sobolev"}))
        assert main(["--command", "ladder", "--input", str(path)]) == 2
        assert "missing ladder side 'right'" in capsys.readouterr().err
        path.write_text("{}")
        assert main(["--command", "ladder", "--input", str(path)]) == 2
        assert "missing ladder side 'left' and 'right'" in capsys.readouterr().err

    def test_non_object_input_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["--command", "ladder", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "expected a JSON object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "right, message",
        [
            ({"weight": {"kind": "closed_form"}}, "right.weight.formula missing"),
            ({"weight": {"kind": "closed_form", "formula": 3}}, "right.weight.formula: expected an object, got number"),
            ({"weight": {"kind": "closed_form", "formula": {"name": "poly_plus_one"}}},
             "right.weight.formula.degree missing"),
            ({"power": 2}, "right.weight missing"),
            ({"weight": 2}, "right.weight: expected an object, got number"),
            ("sobolev2", "right: expected an object, got string"),
            ({"weight": {"kind": "closed_form", "formula": {"name": "poly_plus_one", "degree": None}}},
             "right.weight.formula.degree: expected an integer, got null"),
            ({"weight": {"kind": "closed_form", "formula": {"name": "poly_plus_one", "degree": 2}}, "power": [2]},
             "right.power: expected an integer, got array"),
        ],
        ids=["formula", "formula-type", "degree", "weight", "weight-type", "side-type", "degree-null", "power-list"],
    )
    def test_malformed_side_field_is_named(self, tmp_path, capsys, right, message):
        path = tmp_path / "sides.json"
        path.write_text(json.dumps({"left": "sobolev", "right": right}))
        assert main(["--command", "ladder", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("sides", [None, "poly_plus_one"])
    def test_rungs_equal_single_size_reports(self, tmp_path, sides):
        # each side is evaluated once at the largest size and every rung
        # reads a prefix: a rung must not see the sizes around it
        argv = ["--command", "ladder", "--k-max", "2"]
        if sides == "poly_plus_one":
            w = {"n": 4, "kind": "closed_form", "formula": {"name": "poly_plus_one", "degree": 3}}
            path = tmp_path / "sides.json"
            path.write_text(json.dumps({"left": "sobolev", "right": {"weight": w, "power": 2}}))
            argv += ["--input", str(path)]
        assert main(argv + ["--ladder", "8,16,64"]) == 0
        rungs = read_report("scalehilbert_ladder.json")["rungs"]
        for n, rung in zip((8, 16, 64), rungs):
            assert main(argv + ["--ladder", str(n)]) == 0
            assert read_report("scalehilbert_ladder.json")["rungs"] == [rung]


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
