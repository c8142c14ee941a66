"""Dense-kernel call counts: each factorization runs once per operator.

The counters wrap ``numpy.linalg.{eig, eigh, svd, solve, inv, cholesky}``;
``svd_uv`` lists the ``compute_uv`` flag of every ``svd`` call. The
package calls these through the module namespace, so every
factorization it makes is counted; ``numpy.linalg.norm`` calls its
module-internal SVD and does not show up. The kernel certificate first
tries a full-rank proof from the ``eigh`` pairs it shares with the other
certificates and takes no SVD when it holds; otherwise it takes one SVD
of A with vectors, and one values-only SVD of the n x d residual whose
largest singular value is the sine of the largest principal angle (a
third, of the d x d cosine matrix, only when that angle exceeds pi/4).
The resolvent is one ``inv`` per operator; ``solve``
runs only for the L^-1 of a generalized symmetric eigensolve, so never
under the graph default.
"""

import ast
import collections
import json
import os
import pathlib
import runpy
import subprocess
import sys

import numpy as np
import pytest

import scalehilbert
from scalehilbert import build_sobolev_space, hessian, linalg, verify
from scalehilbert.cli import main
from scalehilbert.hessian import OperatorAnalysis, ScaleOperator, graph_equivalence_constants, regularity_constant
from scalehilbert.verify import analyze_operator_batch, run_verify_all, standard_operator_set

import test_hessian

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"

KERNELS = {
    "eig": (np.linalg, "eig"),
    "eigh": (np.linalg, "eigh"),
    "svd": (np.linalg, "svd"),
    "solve": (np.linalg, "solve"),
    "inv": (np.linalg, "inv"),
    "cholesky": (np.linalg, "cholesky"),
}


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = collections.Counter({name: 0 for name in KERNELS})
    calls.svd_uv = []
    for name, (module, attr) in KERNELS.items():
        fn = getattr(module, attr)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            if _name == "svd":
                calls.svd_uv.append(kwargs.get("compute_uv", True))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    return calls


def analyze_spec(spec, tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(spec))
    code = main(["--command", "hessian-analyze", "--input", str(path), "--output", str(tmp_path / "r.json")])
    capsys.readouterr()
    assert code == 0
    return json.loads((tmp_path / "r.json").read_text())


def test_hessian_analyze_factorizes_once(kernel_calls, tmp_path, capsys):
    spec = {"n": 12, "kind": "conjugated_diagonal", "seed": 5,
            "diag": [0.0, 0.0, -1.5, 0.7, 2.0, 1.2, -0.4, 3.0, 0.9, -2.2, 1.1, 0.6]}
    assert analyze_spec(spec, tmp_path, capsys)["kernel"]["ker_dim"] == 2
    # eigh: spectral data; svd: the kernel's one SVD with vectors (this
    # operator has a kernel), then the values of the residual of its range
    # complement against its kernel, whose largest is the sine of the
    # largest angle (a small one, so no cosine SVD); inv: resolvent (its
    # guard, the adjoint and the consistency residual read its result);
    # the graph-default constants are identities, so no generalized eigh
    # or Cholesky runs
    assert dict(kernel_calls) == {"eig": 0, "eigh": 1, "svd": 2, "solve": 0, "inv": 1, "cholesky": 0}
    assert kernel_calls.svd_uv == [True, False]


def test_full_rank_kernel_takes_values_only(kernel_calls, tmp_path, capsys):
    spec = {"n": 12, "kind": "conjugated_diagonal", "seed": 5,
            "diag": [0.3, -0.8, -1.5, 0.7, 2.0, 1.2, -0.4, 3.0, 0.9, -2.2, 1.1, 0.6]}
    assert analyze_spec(spec, tmp_path, capsys)["kernel"]["ker_dim"] == 0
    # full rank is proved from the eigh pairs, so no SVD runs
    assert dict(kernel_calls) == {"eig": 0, "eigh": 1, "svd": 0, "solve": 0, "inv": 1, "cholesky": 0}
    assert kernel_calls.svd_uv == []


def test_kernel_angle_past_pi_over_4_reads_its_cosine(kernel_calls):
    # the nilpotent [[0, 1], [0, 0]]: kernel e1 and range complement e2 meet
    # at pi/2, whose sine 1 is past sqrt(1/2), so a third, values-only SVD
    # gives the cosine
    report = hessian.check_kernel_cokernel(OperatorAnalysis(ScaleOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))))
    assert report.subspace_angle == np.pi / 2
    assert kernel_calls["svd"] == 3 and kernel_calls.svd_uv == [True, False, False]


def test_batch_factorizes_once_per_operator(kernel_calls):
    ops = standard_operator_set(count=6)
    rows = analyze_operator_batch(ops)
    assert len(rows) == 6
    # full rank is proved without an SVD; a rank-deficient operator takes
    # a vector svd and then the values-only svd of the sine
    assert [row["kernel"].ker_dim > 0 for row in rows] == [False, True] * 3
    assert dict(kernel_calls) == {"eig": 0, "eigh": 6, "svd": 6, "solve": 0, "inv": 6, "cholesky": 0}
    assert kernel_calls.svd_uv == [True, False] * 3


def test_batch_leaves_the_residual_unformed():
    # the batch reports no resolvent-residual, so a row reads B but never
    # forms the residual's n x 2n product
    an = OperatorAnalysis(standard_operator_set(count=1)[0])
    row = verify._analysis_row(an)
    assert "resolvent" in vars(an) and "resolvent_residual" not in vars(an)
    assert "resolvent-residual" not in row


def test_determinism_rerun_recomputes(kernel_calls, monkeypatch):
    """Criterion 9 compares two independent runs: the second core pass
    must redo every factorization rather than read one kept from the first.
    Each batch operator makes one ``eigh`` and one ``inv`` (no ``eig``)."""
    count = 4
    full_set = verify.standard_operator_set
    monkeypatch.setattr(verify, "standard_operator_set", lambda seed: full_set(seed, count=count))
    passes = collections.defaultdict(list)

    def counting(name):
        fn = getattr(verify, name)

        def counted(*args, **kwargs):
            before = dict(kernel_calls)
            result = fn(*args, **kwargs)
            passes[name].append({k: kernel_calls[k] - before[k] for k in ("eigh", "inv")})
            return result

        monkeypatch.setattr(verify, name, counted)

    counting("_run_core")
    counting("analyze_operator_batch")
    assert run_verify_all().passed
    core, batch = passes["_run_core"], passes["analyze_operator_batch"]
    assert len(core) == 2 and core[0] == core[1]
    assert batch == [{"eigh": count, "inv": count}] * 2


def test_explicit_scale_factorizes_once_per_generalized_solve(kernel_calls, monkeypatch):
    """J d/dt + s on the Sobolev ladder (the shifted Floer fixture, K = 3
    grades): the first read of the constants solves every grade, in the
    eigenbasis of the one spectral ``eigh``; every generalized solve factors
    its right-hand form by one Cholesky, takes that factor's inverse by one
    LU solve and makes one ``eigh``. The Sobolev grades are diagonal, so
    loading the scale factors nothing, and the resolvent is never inverted.
    Later reads, ``regularity_constant`` at every grade among them, solve
    nothing."""
    solves = collections.Counter()
    generalized_eigh = linalg.generalized_eigh

    def counted(*args, **kwargs):
        solves["generalized_eigh"] += 1
        return generalized_eigh(*args, **kwargs)

    monkeypatch.setattr(linalg, "generalized_eigh", counted)
    analysis = OperatorAnalysis(test_hessian.TestShiftedFloerHessian().fixture()[0])
    assert dict(kernel_calls) == {"eig": 0, "eigh": 0, "svd": 0, "solve": 0, "inv": 0, "cholesky": 0}
    every_grade = {"eig": 0, "eigh": 4, "svd": 0, "solve": 3, "inv": 0, "cholesky": 3}
    graph_equivalence_constants(analysis)
    assert solves["generalized_eigh"] == 3
    assert dict(kernel_calls) == every_grade
    for _ in range(2):
        for n_grade in range(3):
            regularity_constant(analysis, n_grade)
        graph_equivalence_constants(analysis)
        assert solves["generalized_eigh"] == 3
        assert dict(kernel_calls) == every_grade


@pytest.mark.parametrize("k_max", [2, 3])
def test_explicit_scale_forms_each_grade_gram_once(k_max, monkeypatch):
    """The constants of a K-grade scale take each Gram G_0..G_K into the
    eigenbasis once: K + 1 ``gram_matrix`` calls, where a pencil per grade
    formed afresh would make 2K."""
    grams = collections.Counter()
    gram_matrix = hessian.gram_matrix

    def counted(s, k):
        grams[k] += 1
        return gram_matrix(s, k)

    monkeypatch.setattr(hessian, "gram_matrix", counted)
    op = test_hessian.TestSmoothFloerHessian().operator(9)
    analysis = OperatorAnalysis(ScaleOperator(op.matrix, build_sobolev_space(9, k_max)))
    for _ in range(2):
        for n_grade in range(k_max):
            regularity_constant(analysis, n_grade)
        assert grams == {k: 1 for k in range(k_max + 1)}


def test_demo_shares_one_analysis(kernel_calls, tmp_path, monkeypatch, capsys):
    """demos/fractal_from_operator.py reads every certificate from one
    OperatorAnalysis: one ``eigh`` and one ``inv``. The four Cholesky
    factorizations are ``is_scale_isometric``'s, one per grade 0..3."""
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "fractal_from_operator.py"), run_name="__main__")
    assert "scale isometry onto the weighted model: True" in capsys.readouterr().out
    assert dict(kernel_calls) == {"eig": 0, "eigh": 1, "svd": 0, "solve": 0, "inv": 1, "cholesky": 4}


def test_cli_import_leaves_out_scipy(tmp_path):
    """The runtime is numpy alone: a fresh process that imports the CLI and
    runs ``hessian-analyze --n 8`` has no scipy module loaded, and no
    package file imports scipy."""
    code = ("import sys, scalehilbert.cli; code = scalehilbert.cli.main(['--command', 'hessian-analyze', '--n', '8']); "
            "print(code, [name for name in sys.modules if name.split('.')[0] == 'scipy'])")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(scalehilbert.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, cwd=tmp_path)
    assert out.stdout.splitlines()[-1] == "0 []"
    for path in pathlib.Path(scalehilbert.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), path.name
