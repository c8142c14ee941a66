import ast
import csv
import dataclasses
import json
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import trapezoid

from scalehilbert import cli, linalg, sobolev_circle
from scalehilbert.cli import DEFAULT_LADDER, RunConfig, main
from scalehilbert.hessian import OperatorAnalysis, SpectralData
from scalehilbert.sobolev_circle import _log_closed_form_diag
from scalehilbert.spaces import equivalence_constants
from scalehilbert.verify import (
    BATCH_CERTIFICATES,
    CONSISTENCY,
    FRACTAL,
    KERNEL_ANGLE,
    NORMALITY,
    OPERATOR_CERTIFICATES,
    ORACLE_TOL,
    RECONSTRUCTION,
    RESTRICTION,
    analyze_operator_batch,
    standard_operator_set,
)
from scalehilbert.weights import _DOUBLE_OVERFLOW, _require_double, poly_plus_one_weight

# a spec value that removes its key from the operator object
DROP = object()
SRC = Path(__file__).resolve().parents[1] / "src" / "scalehilbert"
# the numeric trapezoid oracle, which the package no longer carries
MOVED_TO_TESTS = (
    "fourier_gram_quadrature_table", "fourier_gram_quadrature", "_trapezoid_table", "_gram_blocks", "_grade_panels",
    "_constant_row", "_derivative_values", "_require_nodes", "_default_nodes", "_NODE_BLOCK", "_ROW_PANEL",
)


def nested(value, depth):
    """``value`` inside depth - 1 more levels of one-element arrays."""
    for _ in range(depth - 1):
        value = [value]
    return value


@pytest.fixture(autouse=True)
def run_in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def reject_non_finite(name):
    raise ValueError(f"non-finite JSON constant {name}")


def json_text(report):
    """``json.dumps(report)`` with every non-finite float as null, plus the newline."""
    return json.dumps(json.loads(json.dumps(report), parse_constant=lambda name: None)) + "\n"


def sobolev_report(nu_max, k_max):
    """The sobolev-demo report, its rows as dicts, and its mirror's header
    and numeric rows, rebuilt from the oracle, the ratio trace and the
    sigma constants one row at a time."""
    header = ["nu", "k", "closed_form", "quadrature", "abs_delta", "ratio"]
    rows, worst = [], 0.0
    for k, (diag, quad, delta) in enumerate(sobolev_circle.oracle_deltas(nu_max, k_max)):
        worst = float(np.max([worst, delta]))
        ratio = sobolev_circle.ratio_trace(nu_max, k)
        for nu in range(1, nu_max + 1):
            d, q = float(diag[nu // 2]), float(quad[nu // 2])
            rows.append([nu, k, d, q, abs(d - q), float(ratio[nu - 1])])
    constants = []
    for k in range(k_max + 1):
        c_lo, c_hi = sobolev_circle.sigma_equivalence_constants(nu_max, k)
        constants.append({"k": k, "c_lo": c_lo, "c_hi": c_hi})
    report = {
        "command": "sobolev-demo",
        "nu_max": nu_max,
        "k_max": k_max,
        "tol": ORACLE_TOL,
        "oracle": {"worst_scaled_delta": worst, "passed": worst <= ORACLE_TOL},
        "sigma_constants": constants,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    return report, header, rows


def assert_same_text(actual, expected):
    """actual == expected, shown around the first difference (pytest's
    full diff of a report-long text takes minutes)."""
    at = next((i for i, (a, b) in enumerate(zip(actual, expected)) if a != b), min(len(actual), len(expected)))
    window = slice(max(at - 60, 0), at + 60)
    assert (len(actual), actual[window]) == (len(expected), expected[window])


def csv_writer_text(header, rows):
    """What ``csv.writer`` writes for the header and the rows."""
    with open("expected.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    with open("expected.csv", "rb") as fh:
        return fh.read()


def table_grade(values):
    """A diagonal scale grade with the given weight table."""
    return {"type": "diagonal", "weight": {"n": len(values), "kind": "table", "values": values}}


def diagonal_scale(weight):
    """A one-grade explicit scale on n = 2 with the given weight object."""
    return {"scale": {"n": 2, "k_max": 0, "grades": [{"type": "diagonal", "weight": weight}]}}


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig("verify-all")
        assert cfg.n == 8 and cfg.nu_max == 16 and cfg.k_max == 3
        assert cfg.output_file() == "scalehilbert_verify_all.json"

    def test_explicit_output_wins(self):
        cfg = RunConfig("ladder", output_path="out/report.json")
        assert cfg.output_file() == "out/report.json"

    def test_parser_dests_are_the_config_fields(self):
        # main builds RunConfig(**vars(args)); a drift would be a TypeError there
        args = cli._build_parser().parse_args(["--command", "ladder"])
        assert set(vars(args)) == {f.name for f in dataclasses.fields(RunConfig)}
        # and a default the CLI leaves unset is RunConfig's own
        assert RunConfig(**vars(args)) == RunConfig("ladder")

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RunConfig("no-such-command")
        with pytest.raises(ValueError):
            RunConfig("ladder", n=0)
        with pytest.raises(ValueError):
            RunConfig("ladder", k_max=-1)
        with pytest.raises(ValueError):
            RunConfig("ladder", ladder=(64, 64))
        with pytest.raises(ValueError):
            RunConfig("ladder", ladder=(128, 64))
        with pytest.raises(ValueError):
            RunConfig("ladder", ladder=())
        with pytest.raises(ValueError, match="^--seed: expected an integer >= 0, got -1$"):
            RunConfig("verify-all", seed=-1)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "--seed: expected an integer >= 0, got -1"),
            (["--n", "0"], "--n: expected an integer >= 1, got 0"),
            (["--nu-max", "0"], "--nu-max: expected an integer >= 1, got 0"),
            (["--k-max", "-1"], "--k-max: expected an integer >= 0, got -1"),
            (["--ladder", "64,32"], "--ladder: expected strictly increasing positive sizes, got [64, 32]"),
            (["--ladder", "abc"], "--ladder: expected comma-separated integers, got 'abc'"),
        ],
        ids=["seed", "n", "nu-max", "k-max", "ladder-order", "ladder-text"],
    )
    def test_bad_flag_is_named(self, capsys, flags, message):
        # before any command runs, for every command
        for command in ("verify-all", "sobolev-demo"):
            assert main(["--command", command, *flags]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"


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

    def test_nan_oracle_delta_fails(self, monkeypatch):
        # a NaN delta at a grade after the first must not be skipped
        deltas = cli.oracle_deltas

        def with_nan(nu_max, k_max):
            for k, (diag, quad, delta) in enumerate(deltas(nu_max, k_max)):
                yield diag, quad, float("nan") if k == 1 else delta

        monkeypatch.setattr(cli, "oracle_deltas", with_nan)
        assert main(["--command", "sobolev-demo", "--nu-max", "4", "--k-max", "2"]) == 1
        with open("scalehilbert_sobolev_demo.json") as fh:
            oracle = json.load(fh, parse_constant=reject_non_finite)["oracle"]
        assert oracle == {"worst_scaled_delta": None, "passed": False}

    @pytest.mark.parametrize("k_max", [3, 10])
    def test_one_cosine_sum_build_per_run(self, k_max):
        # the commands build no cosine sums: the oracle reads the trapezoid
        # exactness theorem, and the numeric sums live in tests/trapezoid.py
        assert main(["--command", "sobolev-demo", "--nu-max", "16", "--k-max", str(k_max)]) == 0
        assert all(hasattr(trapezoid, name) for name in MOVED_TO_TESTS)
        for path in SRC.glob("*.py"):
            tree = ast.parse(path.read_text())
            bound = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
            bound |= {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign) for t in node.targets
                      if isinstance(t, ast.Name)}
            bound |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
            assert not bound & set(MOVED_TO_TESTS), path.name

    @pytest.mark.parametrize("entry", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
    def test_bad_closed_form_entry_fails(self, monkeypatch, entry):
        # fails by name, with no RuntimeWarning (an error under the test configuration)
        closed_form = sobolev_circle.fourier_gram_closed_form

        def patched(nu, nu_prime, k):
            return entry if (nu, nu_prime, k) == (10, 10, 2) else closed_form(nu, nu_prime, k)

        monkeypatch.setattr(sobolev_circle, "fourier_gram_closed_form", patched)
        assert main(["--command", "sobolev-demo", "--nu-max", "16", "--k-max", "3"]) == 1
        with open("scalehilbert_sobolev_demo.json") as fh:
            oracle = json.load(fh, parse_constant=reject_non_finite)["oracle"]
        assert not oracle["passed"]
        assert oracle["worst_scaled_delta"] is None

    def test_warm_run_holds_row_panels(self):
        # the 4096 row dicts, the 4096 closed-form calls and the cosine sums'
        # 1025 x 256 node blocks took 4.2 MiB; the row panels of the numeric
        # trapezoid table 1.6 MiB
        argv = ["--command", "sobolev-demo", "--nu-max", "1024", "--k-max", "3"]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("nu_max, k_max", [(1, 0), (7, 0), (12, 2), (100, 2), (1024, 3)])
    def test_report_and_mirror_bytes(self, nu_max, k_max):
        # json.dumps and csv.writer over the row dicts and rows, built one number at a time
        argv = ["--command", "sobolev-demo", "--nu-max", str(nu_max), "--k-max", str(k_max), "--output", "r.json"]
        assert main(argv) == 0
        report, header, rows = sobolev_report(nu_max, k_max)
        with open("r.json") as fh:
            assert_same_text(fh.read(), json.dumps(report) + "\n")
        with open("r.csv", "rb") as fh:
            assert_same_text(fh.read(), csv_writer_text(header, rows))

    @pytest.mark.parametrize("nu_max, k_max", [(12, 2), (1024, 3)])
    @pytest.mark.parametrize("entry", [0.0, math.nan, math.inf, -math.inf], ids=["zero", "nan", "inf", "-inf"])
    def test_non_finite_report_and_mirror_bytes(self, monkeypatch, nu_max, k_max, entry):
        # a failing run: null in the report, inf / nan in the mirror
        closed_form = sobolev_circle.fourier_gram_closed_form

        def patched(nu, nu_prime, k):
            return entry if (nu, nu_prime, k) == (10, 10, 2) else closed_form(nu, nu_prime, k)

        monkeypatch.setattr(sobolev_circle, "fourier_gram_closed_form", patched)
        argv = ["--command", "sobolev-demo", "--nu-max", str(nu_max), "--k-max", str(k_max), "--output", "r.json"]
        assert main(argv) == 1
        report, header, rows = sobolev_report(nu_max, k_max)
        assert not math.isfinite(report["oracle"]["worst_scaled_delta"])
        with open("r.json") as fh:
            assert_same_text(fh.read(), json_text(report))
        with open("r.csv", "rb") as fh:
            assert_same_text(fh.read(), csv_writer_text(header, rows))

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
        assert "order" not in report
        weights = [w["weight"] for w in report["fractal_weight"]]
        assert weights == pytest.approx([g * g + 1 for g in range(1, 9)], rel=1e-14)
        names = [c["name"] for c in report["certificates"]]
        assert names[0] == "symmetry"
        assert "fractal-certificate" in names
        assert all(c["passed"] for c in report["certificates"])
        constants = report["constants"]
        assert constants["regularity"] == [1.0, 1.0, 1.0]
        assert constants["graph_equivalence"] == {"c_lo": 1.0, "c_hi": 1.0}

    def test_gammas_are_the_weight_rows_gammas(self, tmp_path):
        # one eigenvalue list in the |gamma| order, ties by signed value
        # (-1 before 1, -2 before 2): no second order, no permutation key
        d = [2.0, -1.0, 0.5, 3.0, 1.0, -2.0]
        spec = {"n": 6, "kind": "diagonal", "diag": d, "scale": "graph_default"}
        path = tmp_path / "op.json"
        path.write_text(json.dumps(spec))
        assert main(["--command", "hessian-analyze", "--input", str(path)]) == 0
        report = read_report("scalehilbert_hessian_analyze.json")
        assert report["gammas"] == [row["gamma"] for row in report["fractal_weight"]]
        assert report["gammas"] == [0.5, -1.0, 1.0, -2.0, 2.0, 3.0]
        assert "order" not in report
        assert tuple(f.name for f in dataclasses.fields(SpectralData)) == ("gammas", "vectors")

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

    def test_symmetry_defect_computed_once_per_run(self, monkeypatch):
        # the symmetry certificate and every spectral_decompose gate after
        # it read the one defect that the analysis keeps
        calls = []
        symmetry_defect = linalg.symmetry_defect

        def counted(m):
            calls.append(m.shape)
            return symmetry_defect(m)

        monkeypatch.setattr(linalg, "symmetry_defect", counted)
        assert main(["--command", "hessian-analyze", "--n", "8"]) == 0
        assert calls == [(8, 8)]

    def test_certificate_tolerances_are_the_registry_entries(self):
        assert main(["--command", "hessian-analyze", "--n", "8"]) == 0
        certificates = read_report("scalehilbert_hessian_analyze.json")["certificates"]
        assert [(c["name"], c["tol"]) for c in certificates] == [(c.name, c.tol) for c in OPERATOR_CERTIFICATES]

    @pytest.mark.parametrize("n, allocation", [(200_000_000_000, MemoryError), (2**62, None)], ids=["memory", "size"])
    def test_oversized_default_operator_is_an_input_error(self, monkeypatch, capsys, n, allocation):
        # no real huge allocation: MemoryError is raised in its place, and
        # numpy refuses 2**62 entries by its size check before allocating
        if allocation is not None:
            def refuse(*args, **kwargs):
                raise allocation("Unable to allocate")

            monkeypatch.setattr(np, "arange", refuse)
        assert main(["--command", "hessian-analyze", "--n", str(n)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --n {n}: the default {n} x {n} operator matrix is too large to allocate\n"

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

    def test_nan_ladder_defect_fails(self, tmp_path, capsys):
        # The graph ladder of diag(1e9, 1) overflows from grade 18, so the
        # fractal deviations from there on are NaN; the certificate must fail
        # on them, not report the largest finite one. The failing defect is
        # written as null, so the report stays strict JSON, and the overflow
        # raises no RuntimeWarning.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"n": 2, "kind": "diagonal", "diag": [1e9, 1]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--command", "hessian-analyze", "--input", str(path), "--k-max", "40"])
        assert code == 1
        assert "FAIL (fractal-certificate" in capsys.readouterr().out
        with open("scalehilbert_hessian_analyze.json") as fh:
            certificates = {c["name"]: c for c in json.load(fh, parse_constant=reject_non_finite)["certificates"]}
        assert certificates["fractal-certificate"] == {
            "name": "fractal-certificate", "defect": None, "tol": 1e-8, "passed": False
        }

    def test_overflowed_grade_pencil_reads_null(self, tmp_path, capsys):
        # grade 2 = 1e308 I overflows in the grade-1 pencil G_2 against
        # G_1 + A G_1 A = 0.3 I, reduced to 1e308 / 0.3 past the double max:
        # C_1 reads null, with no RuntimeWarning (an error here). The
        # positivity certificate covers every listed C_k, so the run fails by
        # that entry's name.
        scale = {"n": 2, "k_max": 2,
                 "grades": [table_grade([1, 1]), table_grade([0.1, 0.1]), table_grade([1e308, 1e308])]}
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"n": 2, "matrix": [[1, 1], [1, -1]], "scale": scale}))
        assert main(["--command", "hessian-analyze", "--input", str(path)]) == 1
        assert "FAIL (graph-equivalence-positivity)" in capsys.readouterr().out
        report = read_report("scalehilbert_hessian_analyze.json")
        assert [c["name"] for c in report["certificates"] if not c["passed"]] == ["graph-equivalence-positivity"]
        constants = report["constants"]
        assert constants["graph_equivalence"] == pytest.approx({"c_lo": 1 / 30, "c_hi": 1 / 30}, rel=1e-14)
        assert constants["regularity"] == [pytest.approx(30**-0.5, rel=1e-14), None]

    def test_grade_near_the_double_max_is_solved(self, tmp_path, capsys):
        # the same grade 2 against G_1 + A G_1 A = 3 I reduces to 1e308 / 3,
        # which a double holds: every symmetric part halves before it adds, so
        # 1e308 I is not summed past the double max, and C_1 is sqrt(1e308 / 3)
        scale = {"n": 2, "k_max": 2, "grades": [table_grade([1, 1]), table_grade([1, 1]), table_grade([1e308, 1e308])]}
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"n": 2, "matrix": [[1, 1], [1, -1]], "scale": scale}))
        assert main(["--command", "hessian-analyze", "--input", str(path)]) == 0
        assert ": PASS" in capsys.readouterr().out
        constants = read_report("scalehilbert_hessian_analyze.json")["constants"]
        assert constants["graph_equivalence"] == pytest.approx({"c_lo": 1 / 3, "c_hi": 1 / 3}, rel=1e-14)
        assert constants["regularity"] == pytest.approx([3**-0.5, (1e308 / 3) ** 0.5], rel=1e-13)

    def test_k_max_above_the_scale_is_an_input_error(self, tmp_path, capsys):
        # an explicit scale fixes the run's top grade: --k-max may lower it,
        # never raise it past the grades the scale has
        scale = {"n": 2, "k_max": 1, "grades": [table_grade([1, 1]), table_grade([1, 1])]}
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"n": 2, "kind": "diagonal", "diag": [1, 2], "scale": scale}))
        assert main(["--command", "hessian-analyze", "--input", str(path), "--k-max", "3"]) == 2
        assert capsys.readouterr().err == "error: --k-max 3: the operator's scale has grades 0..1\n"
        assert main(["--command", "hessian-analyze", "--input", str(path), "--k-max", "0"]) == 0

    @pytest.fixture
    def analysis_grades(self, monkeypatch):
        """The top grade of every analysis the CLI builds."""
        grades = []

        class Recorded(OperatorAnalysis):
            def __init__(self, *args):
                super().__init__(*args)
                grades.append(self.k_max)

        monkeypatch.setattr(cli, "OperatorAnalysis", Recorded)
        return grades

    def test_unset_k_max_reads_the_scale_top_grade(self, tmp_path, capsys, analysis_grades):
        # conjugated_diagonal([1, 1, 0.5, -2], seed=3) on the unit diagonal
        # scale of grades 0 and 1: one top grade, the scale's, for the
        # fractal certificate, the regularity list and positivity alike
        scale = {"n": 4, "k_max": 1, "grades": [table_grade([1] * 4), table_grade([1] * 4)]}
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"n": 4, "kind": "conjugated_diagonal", "diag": [1, 1, 0.5, -2], "seed": 3,
                                    "scale": scale}))
        assert main(["--command", "hessian-analyze", "--input", str(path)]) == 0
        assert analysis_grades == [1]
        assert len(read_report("scalehilbert_hessian_analyze.json")["constants"]["regularity"]) == 1

    def test_unset_k_max_reads_3_elsewhere(self, analysis_grades):
        assert main(["--command", "hessian-analyze", "--n", "4"]) == 0
        assert analysis_grades == [3]
        assert read_report("scalehilbert_hessian_analyze.json")["constants"]["regularity"] == [1.0] * 3
        assert main(["--command", "sobolev-demo", "--nu-max", "8"]) == 0
        assert read_report("scalehilbert_sobolev_demo.json")["k_max"] == 3
        assert main(["--command", "ladder", "--ladder", "8,16"]) == 0
        assert read_report("scalehilbert_ladder.json")["k_max"] == 3

    @pytest.mark.parametrize("diag", [[1, 1.7e308], [0, 1e200]], ids=["double-max", "wide"])
    def test_wide_diagonal_exits_on_the_resolvent_guard_without_warning(self, tmp_path, capsys, diag):
        # the symmetric part of the input halves before it adds, so nothing
        # overflows before the resolvent's condition guard refuses the point
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"n": 2, "kind": "diagonal", "diag": diag}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--command", "hessian-analyze", "--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: resolvent point on spectrum: 1j\n"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_gram_is_named(self, tmp_path, capsys, bad):
        # json.dumps writes NaN / Infinity, which json.load reads back
        grades = [{"type": "gram", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                  {"type": "gram", "matrix": [[2.0, 0.0], [0.0, bad]]}]
        obj = {"n": 2, "kind": "diagonal", "diag": [1.0, 2.0], "scale": {"n": 2, "k_max": 1, "grades": grades}}
        path = tmp_path / "op.json"
        path.write_text(json.dumps(obj))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--command", "hessian-analyze", "--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: operator.scale.grades[1].matrix: Gram matrix has a non-finite entry\n"

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

    def test_unparseable_input(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["--command", "hessian-analyze", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: input {path}: Expecting property name")
        path.write_text('{"n": 1, "kind": ')
        assert main(["--command", "hessian-analyze", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: input {path}: Expecting value: line 1 column 18 (char 17)\n"

    @pytest.mark.parametrize("command", ["hessian-analyze", "ladder"])
    def test_deeply_nested_input_is_an_input_error(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text('{"n": 1, "matrix": ' + "[" * 100000 + "]" * 100000 + "}")
        assert main(["--command", command, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: input {path}: maximum recursion depth exceeded")
        assert "Traceback" not in err

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
            (
                {"scale": {"n": 2, "k_max": 1, "grades": [{"type": "gram", "matrix": [[1, 0], [0, 1]]},
                                                           {"type": "gram", "matrix": [[1, 0], [0, -1]]}]}},
                "operator.scale.grades[1].matrix: Gram matrix is not positive definite",
            ),
            (
                {"scale": {"n": 2, "k_max": 1, "grades": [{"type": "gram", "matrix": [[1, 0], [0, 1]]},
                                                           {"type": "bogus"}]}},
                "operator.scale.grades[1].type: unknown grade type 'bogus'",
            ),
            ({"scale": {"n": 2, "k_max": 2, "grades": [{"type": "gram", "matrix": [[1, 0], [0, 1]]}]}},
             "operator.scale.grades: expected 3 grades, got 1"),
            ({"scale": {"n": 2, "k_max": 0, "grades": [{"type": "gram", "matrix": np.eye(3).tolist()}]}},
             "operator.scale.grades[0].matrix: grade has dimension 3, expected operator.scale.n = 2"),
            ({"scale": {"n": 3, "k_max": 0, "grades": [{"type": "gram", "matrix": np.eye(3).tolist()}]}},
             "operator.scale.n: scale dimension 3 does not match operator dimension 2"),
            ({"n": 0, "kind": "diagonal", "diag": []}, "operator.n: expected a dimension >= 1, got 0"),
            ({"n": -1}, "operator.n: expected a dimension >= 1, got -1"),
            ({"kind": "conjugated_diagonal", "diag": [1.0, 2.0], "seed": -1},
             "operator.seed: expected an integer >= 0, got -1"),
            ({"kind": "sparse"}, "operator.kind: unknown operator kind 'sparse'"),
            ({"matrix": [[1.0, 0.0]]}, "operator.matrix: expected shape (2, 2), got (1, 2)"),
            ({"kind": "conjugated_diagonal", "diag": [1.0, 2.0, 3.0], "seed": 1},
             "operator.diag: expected shape (2,), got (3,)"),
            (diagonal_scale({"n": 2, "kind": "table", "values": [1.0]}),
             "operator.scale.grades[0].weight.values: expected 2 values, got shape (1,)"),
            (diagonal_scale({"n": 2, "kind": "table", "values": [1.0, 0.0]}),
             "operator.scale.grades[0].weight.values: weight table values must be finite and positive"),
            (diagonal_scale({"n": 2, "kind": "closed_form", "formula": {"name": "exp", "degree": 1}}),
             "operator.scale.grades[0].weight.formula.name: unknown weight formula 'exp'"),
            (diagonal_scale({"n": 2, "kind": "mystery"}), "operator.scale.grades[0].weight.kind: unknown weight kind 'mystery'"),
            (diagonal_scale({"n": 2, "kind": "closed_form", "formula": {"name": "poly_plus_one", "degree": -1}}),
             "operator.scale.grades[0].weight.formula.degree: expected an integer >= 0, got -1"),
            (diagonal_scale({"n": 0, "kind": "table", "values": []}),
             "operator.scale.grades[0].weight.n: expected a dimension >= 1, got 0"),
            ({"scale": {"n": 2, "k_max": 0, "grades": [{"type": "gram", "matrix": [[1, 0], [0, 1]]}]}},
             "operator.scale.k_max: an operator's scale needs grades 0 and 1, got k_max 0"),
            ({"matrix": [[1.0, 0.0], [0.0, float("nan")]]}, "operator.matrix: operator entries must be finite"),
            ({"kind": "diagonal", "diag": [1.0, float("inf")]}, "operator.diag: operator entries must be finite"),
            ({"matrix": [[1.0, 0.0], [0.0]]}, "operator.matrix: expected a rectangular array, got a ragged one"),
            ({"matrix": nested([1.0], 900)},
             "operator.matrix: expected a rectangular array, got one nested 900 deep"),
            ({"kind": "diagonal", "diag": nested([1.0, 2.0], 70)},
             "operator.diag: expected a rectangular array, got one nested 70 deep"),
            ({"scale": {"n": 2, "k_max": -1, "grades": []}},
             "operator.scale.k_max: a scale space needs at least one grade, got k_max -1"),
            ({"matrix": [[1, 1], [1, -1]], "scale": {"n": 2, "k_max": 1, "grades": [table_grade([1, 100]),
                                                                                  table_grade([2, 200])]}},
             "operator.scale.grades[0]: expected the identity, the inner product the matrix is symmetric in"),
            ({"kind": "conjugated_diagonal", "diag": [1.0, 2.0], "seed": 3,
              "scale": {"n": 2, "k_max": 1, "grades": [{"type": "gram", "matrix": [[1, 0], [0, 1 + 2**-52]]},
                                                       table_grade([2, 200])]}},
             "operator.scale.grades[0]: expected the identity, the inner product the matrix is symmetric in"),
        ],
        ids=["scale", "matrix", "k_max", "grades", "grade", "weight", "seed",
             "n-null", "seed-list", "k_max-object", "weight-n-str", "seed-float", "n-string", "n-bool",
             "diag-string", "diag-bool", "matrix-entry", "table-value", "gram-entry",
             "gram-indefinite", "grade-type", "grade-count", "grade-dimension", "scale-dimension",
             "n-zero", "n-negative", "seed-negative", "kind", "matrix-shape", "diag-shape",
             "table-count", "table-nonpositive", "formula-name", "weight-kind", "degree-negative", "weight-n-zero",
             "k_max-zero", "matrix-nan", "diag-infinity", "matrix-ragged", "matrix-deep", "diag-deep",
             "k_max-negative", "grade0-diagonal", "grade0-gram"],
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

    def test_overflowing_k_max_is_an_input_error(self, capsys):
        # the spread c_hi / c_lo at rung 8 first overflows at grade 240 (rung 4 at 243)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--command", "ladder", "--ladder", "4,8", "--k-max", "340"]) == 2
        assert capsys.readouterr().err == "error: --k-max 340: the spread of grade 240 at rung n=8 is not a finite double\n"

    def test_high_k_max_below_overflow_is_strict_json(self):
        assert main(["--command", "ladder", "--ladder", "4,8", "--k-max", "239"]) == 0
        with open("scalehilbert_ladder.json") as fh:
            report = json.load(fh, parse_constant=reject_non_finite)
        assert [len(rung["grades"]) for rung in report["rungs"]] == [240, 240]

    def test_underflowing_c_lo_is_an_input_error(self, tmp_path, capsys):
        # the grade-2 ratio at nu = 8 is about e^-822, which is 0.0 as a double
        w = {"n": 4, "kind": "closed_form", "formula": {"name": "poly_plus_one", "degree": 2}}
        path = tmp_path / "sides.json"
        path.write_text(json.dumps({"left": "sobolev", "right": {"weight": w, "power": 100}}))
        assert main(["--command", "ladder", "--input", str(path), "--ladder", "4,8", "--k-max", "2"]) == 2
        assert capsys.readouterr().err == "error: --k-max 2: the spread of grade 2 at rung n=8 is not a finite double\n"

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
            ({"weight": {"kind": "table", "values": [1.0, 2.0]}},
             "right.weight.kind: ladder sides need closed-form weights (tables cannot grow with n)"),
            ({"weight": {"kind": "closed_form", "formula": {"name": "poly_plus_one", "degree": 2}}, "power": 0},
             "right.power: expected an integer >= 1, got 0"),
            ({"weight": {"kind": "closed_form", "formula": {"name": "poly_plus_one", "degree": -2}}},
             "right.weight.formula.degree: expected an integer >= 0, got -2"),
        ],
        ids=["formula", "formula-type", "degree", "weight", "weight-type", "side-type", "degree-null", "power-list",
             "table-weight", "power-zero", "degree-negative"],
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

    @pytest.mark.parametrize("order", ["default", "sobolev-left", "sobolev-right"])
    def test_chunked_constants_equal_whole_tables(self, tmp_path, order):
        # rungs on both sides of the first chunk boundary, at index 1 and in
        # the middle of a later chunk, against one whole table per side and grade
        chunk = cli._LADDER_CHUNK
        sizes = (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5)
        poly = {"weight": {"kind": "closed_form", "formula": {"name": "poly_plus_one", "degree": 2}}, "power": 2}
        left, right = {"default": ("sobolev", {**poly, "power": 1}), "sobolev-left": ("sobolev", poly),
                       "sobolev-right": (poly, "sobolev")}[order]
        argv = ["--command", "ladder", "--ladder", ",".join(map(str, sizes)), "--k-max", "3"]
        if order != "default":
            path = tmp_path / "sides.json"
            path.write_text(json.dumps({"left": left, "right": right}))
            argv += ["--input", str(path)]
        assert main(argv) == 0
        rungs = read_report("scalehilbert_ladder.json")["rungs"]

        def whole_table(side, k):
            if side == "sobolev":
                return _log_closed_form_diag(np.arange(1, sizes[-1] + 1), k)
            return poly_plus_one_weight(sizes[-1], 2).log_values * (side["power"] * k)

        for k in range(4):
            log_l, log_r = whole_table(left, k), whole_table(right, k)
            for n, rung in zip(sizes, rungs):
                c_lo, c_hi = equivalence_constants(log_l[:n], log_r[:n])
                assert (rung["grades"][k]["c_lo"], rung["grades"][k]["c_hi"]) == (c_lo, c_hi)

    def test_memory_stays_below_the_whole_tables(self):
        # at 262144 indices a log table is 2 MiB, and the whole-table ladder
        # held one per side and grade besides its ratios and gather index
        argv = ["--command", "ladder", "--ladder", "1024,16384,262144"]
        assert main(argv) == 0  # imports and first-call set-up outside the trace
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


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
        assert "tol_override" not in report

    def test_criteria_read_the_pinned_tolerances(self):
        # one definition per tolerance: ORACLE_TOL and the registry entries
        assert main(["--command", "verify-all"]) == 0
        criteria = read_report("scalehilbert_verify_all.json")["criteria"]
        registry = {3: KERNEL_ANGLE, 4: NORMALITY, 5: CONSISTENCY, 6: FRACTAL, 7: RESTRICTION}
        assert criteria[0]["tol"] == ORACLE_TOL
        assert {c["number"]: c["tol"] for c in criteria[2:7]} == {k: cert.tol for k, cert in registry.items()}
        assert criteria[4]["details"]["reconstruction_tol"] == RECONSTRUCTION.tol


# a JSON integer of 401 digits, past the largest double (about 1.8e308)
HUGE = 10**400
TOO_LARGE = "expected a number within double range, got an integer of 401 digits"
EYE = [[1, 0], [0, 1]]


def poly_weight(degree):
    return {"n": 2, "kind": "closed_form", "formula": {"name": "poly_plus_one", "degree": degree}}


class TestIntegersPastTheDoubleRange:
    @pytest.mark.parametrize(
        "command, obj, where",
        [
            ("hessian-analyze", {"matrix": [[1, HUGE], [HUGE, 1]]}, "operator.matrix[0][1]"),
            ("hessian-analyze", {"kind": "diagonal", "diag": [1, -HUGE]}, "operator.diag[1]"),
            ("hessian-analyze", diagonal_scale({"n": 2, "kind": "table", "values": [1, HUGE]}),
             "operator.scale.grades[0].weight.values[1]"),
            ("hessian-analyze",
             {"scale": {"n": 2, "k_max": 1, "grades": [{"type": "gram", "matrix": EYE},
                                                       {"type": "gram", "matrix": [[1, 0], [0, HUGE]]}]}},
             "operator.scale.grades[1].matrix[1][1]"),
            ("hessian-analyze", diagonal_scale(poly_weight(HUGE)), "operator.scale.grades[0].weight.formula.degree"),
            ("ladder", {"left": {"weight": poly_weight(HUGE)}, "right": "sobolev"}, "left.weight.formula.degree"),
            ("ladder", {"left": "sobolev", "right": {"weight": poly_weight(2), "power": HUGE}}, "right.power"),
        ],
        ids=["matrix", "diag", "table-values", "gram-matrix", "operator-degree", "ladder-degree", "ladder-power"],
    )
    def test_is_an_input_error_naming_its_path(self, tmp_path, capsys, command, obj, where):
        # float() of such an integer raises OverflowError, which is no input error
        if command == "hessian-analyze":
            obj = {"n": 2, "kind": "dense", "matrix": EYE, **obj}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        assert main(["--command", command, "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {where}: {TOO_LARGE}\n"

    def test_bound_is_where_float_overflows(self):
        # integers just below the bound round to the largest double
        below = _DOUBLE_OVERFLOW - 1
        assert float(below) == sys.float_info.max
        _require_double(-below, "x")
        with pytest.raises(OverflowError):
            float(_DOUBLE_OVERFLOW)
        with pytest.raises(ValueError, match="^x: expected a number within double range"):
            _require_double(_DOUBLE_OVERFLOW, "x")


class TestReportFormat:
    @staticmethod
    def rows(count):
        return [{"nu": i, "k": i % 4, "closed_form": i / 7, "quadrature": i / 7 + 1e-17, "abs_delta": 1e-17,
                 "ratio": 1.0 + i} for i in range(count)]

    @pytest.mark.parametrize("count", [0, 1, cli._JSON_SLICE, cli._JSON_SLICE + 1, 2 * cli._JSON_SLICE + 1])
    def test_writer_equals_json_dumps(self, count):
        rows = self.rows(count)
        if rows:
            rows[-1]["ratio"] = float("nan")
        report = {"command": "x", "empty": {}, "nested": {"a": {"b": [1, 2.5, None]}, "c": True}, "rows": rows,
                  "tail": [{"k": k} for k in range(count)], "last": float("nan"), "ends": [-math.inf, math.inf]}
        cli._write_json("report.json", report)
        with open("report.json") as fh:
            text = fh.read()
        assert_same_text(text, json_text(report))
        json.loads(text, parse_constant=reject_non_finite)

    @classmethod
    def token_table(cls, rows):
        """``rows`` as a token table fed by an iterator over two column blocks,
        whose tokens are built here, and its keys."""
        keys = tuple(cls.rows(1)[0])
        half = len(rows) // 2
        blocks = [[[repr(row[key]) for row in part] for key in keys] for part in (rows[:half], rows[half:])]
        return cli._TokenTable(keys, iter(blocks), "report.csv"), keys

    @pytest.mark.parametrize("count", [0, 1, cli._JSON_SLICE, cli._JSON_SLICE + 1])
    def test_writer_writes_an_iterator_as_its_list(self, count):
        # the one streamed field: a token table fed by an iterator of blocks
        # is written as the list of its row dicts, across slice boundaries
        rows = self.rows(count)
        if rows:
            rows[-1]["ratio"] = float("nan")
        table, keys = self.token_table(rows)
        cli._write_json("report.json", {"command": "x", "rows": table, "tail": [row["k"] for row in rows]})
        with open("report.json") as fh:
            assert fh.read() == json_text({"command": "x", "rows": rows, "tail": [row["k"] for row in rows]})
        with open("report.csv", "rb") as fh:
            assert fh.read() == csv_writer_text(keys, [[row[key] for key in keys] for row in rows])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--command", "sobolev-demo", "--nu-max", "100"],
            ["--command", "hessian-analyze", "--n", "30"],
            ["--command", "ladder"],
        ],
        ids=["sobolev-demo", "hessian-analyze", "ladder"],
    )
    def test_csv_mirror_is_what_csv_writer_writes(self, monkeypatch, argv):
        # csv.writer over numbers: the rows passed to _write_csv, or for
        # sobolev-demo, whose mirror is written with its report, the rows
        # rebuilt from the oracle
        written, write_csv = [], cli._write_csv
        monkeypatch.setattr(cli, "_write_csv", lambda path, header, rows: written.append((header, list(rows))))
        main(argv + ["--output", "report.json"])
        if argv[1] == "sobolev-demo":
            assert not written
            _, header, rows = sobolev_report(100, 3)
        else:
            (header, rows), = written
            write_csv("report.csv", header, iter(rows))
        assert rows and all(isinstance(x, (int, float)) for row in rows for x in row)
        with open("report.csv", "rb") as joined:
            assert_same_text(joined.read(), csv_writer_text(header, rows))

    def test_writer_of_an_empty_report(self):
        cli._write_json("report.json", {})
        with open("report.json") as fh:
            assert fh.read() == "{}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--command", "sobolev-demo", "--nu-max", "100"],
            ["--command", "hessian-analyze", "--n", "300"],
            ["--command", "ladder"],
            ["--command", "verify-all"],
        ],
        ids=["sobolev-demo", "hessian-analyze", "ladder", "verify-all"],
    )
    def test_every_report_is_one_json_dumps_line(self, argv):
        main(argv + ["--output", "report.json"])
        with open("report.json") as fh:
            text = fh.read()
        assert text == json.dumps(json.loads(text)) + "\n"
        assert text.count("\n") == 1

    def test_writer_holds_one_slice(self):
        # the 4096 rows of sobolev-demo --nu-max 1024 --k-max 3 as a token
        # table; one json.dumps of them as dicts builds a chunk list and text
        # of about 3.7 MiB, while the table streams one slice at a time
        table, _ = self.token_table(self.rows(4096))
        tracemalloc.start()
        try:
            cli._write_json("report.json", {"command": "x", "rows": table})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestArgumentHandling:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--command", "frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_tol_flag_exits_two(self, capsys, command):
        # every tolerance is pinned; there is no flag to replace one
        with pytest.raises(SystemExit) as exc:
            main(["--command", command, "--tol", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-6" in capsys.readouterr().err

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
