"""Dense-kernel call counts: each factorization runs once per operator.

The counters wrap ``numpy.linalg.{eig, eigh, svd, solve, inv, cholesky}``;
``svd_uv`` lists the ``compute_uv`` flag of every ``svd`` call. The
package calls these through the module namespace, so every
factorization it makes is counted; ``numpy.linalg.norm`` calls its
module-internal SVD and does not show up. The values-only SVDs that
:func:`scalehilbert.linalg.principal_angles` takes are counted apart,
as ``angle_svd``, and stay out of ``svd_uv``. The kernel certificate
first tries a full-rank proof from the ``eigh`` pairs it shares with the
other certificates and takes no SVD when it holds; otherwise it takes a
values-only SVD, and a second one with vectors only when the operator has
a kernel. The resolvent is one ``inv`` per operator; ``solve``
runs only for the L^-1 of a generalized symmetric eigensolve, so never
under the graph default.
"""

import ast
import collections
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import scalehilbert
from scalehilbert import linalg, verify
from scalehilbert.cli import main
from scalehilbert.hessian import OperatorAnalysis, graph_equivalence_constants, regularity_constant
from scalehilbert.verify import analyze_operator_batch, run_verify_all, standard_operator_set

import test_hessian

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
    calls = collections.Counter({name: 0 for name in [*KERNELS, "angle_svd"]})
    calls.svd_uv = []
    for name, (module, attr) in KERNELS.items():
        fn = getattr(module, attr)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            if _name == "svd" and sys._getframe(1).f_code is linalg.principal_angles.__code__:
                _name = "angle_svd"
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
    # eigh: spectral data; svd: the kernel's singular values, then its
    # vectors (this operator has a kernel); inv: resolvent (its guard,
    # the adjoint and the consistency residual read its result);
    # the graph-default constants are identities, so no generalized eigh
    # or Cholesky runs; the principal angles read the SVD's own bases and
    # take the values of their cosines and (kernel and cokernel meet at a
    # small angle) of their sines
    assert dict(kernel_calls) == {"eig": 0, "eigh": 1, "svd": 2, "solve": 0, "inv": 1, "cholesky": 0, "angle_svd": 2}
    assert kernel_calls.svd_uv == [False, True]


def test_full_rank_kernel_takes_values_only(kernel_calls, tmp_path, capsys):
    spec = {"n": 12, "kind": "conjugated_diagonal", "seed": 5,
            "diag": [0.3, -0.8, -1.5, 0.7, 2.0, 1.2, -0.4, 3.0, 0.9, -2.2, 1.1, 0.6]}
    assert analyze_spec(spec, tmp_path, capsys)["kernel"]["ker_dim"] == 0
    # full rank is proved from the eigh pairs, so no SVD runs
    assert dict(kernel_calls) == {"eig": 0, "eigh": 1, "svd": 0, "solve": 0, "inv": 1, "cholesky": 0, "angle_svd": 0}
    assert kernel_calls.svd_uv == []


def test_batch_factorizes_once_per_operator(kernel_calls):
    ops = standard_operator_set(count=6)
    rows = analyze_operator_batch(ops)
    assert len(rows) == 6
    # full rank is proved without an SVD; a rank-deficient operator takes
    # a values-only svd and then a vector svd
    assert [row["kernel"].ker_dim > 0 for row in rows] == [False, True] * 3
    assert dict(kernel_calls) == {"eig": 0, "eigh": 6, "svd": 6, "solve": 0, "inv": 6, "cholesky": 0, "angle_svd": 6}
    assert kernel_calls.svd_uv == [False, True] * 3


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
    """J d/dt + s on the Sobolev ladder (the shifted Floer fixture): every
    generalized solve factors its right-hand form by one Cholesky, takes
    that factor's inverse by one LU solve and makes one ``eigh``; the
    Sobolev grades are diagonal, so loading the scale factors nothing. The
    constants make one solve per grade and never invert the resolvent;
    ``regularity_constant`` reads grade 0 off the graph-equivalence solve
    and repeats no solve."""
    solves = collections.Counter()
    generalized_eigh = linalg.generalized_eigh

    def counted(*args, **kwargs):
        solves["generalized_eigh"] += 1
        return generalized_eigh(*args, **kwargs)

    monkeypatch.setattr(linalg, "generalized_eigh", counted)
    analysis = OperatorAnalysis(test_hessian.TestShiftedFloerHessian().fixture()[0])
    assert dict(kernel_calls) == {"eig": 0, "eigh": 0, "svd": 0, "solve": 0, "inv": 0, "cholesky": 0, "angle_svd": 0}
    graph_equivalence_constants(analysis)
    assert solves["generalized_eigh"] == 1
    assert dict(kernel_calls) == {"eig": 0, "eigh": 1, "svd": 0, "solve": 1, "inv": 0, "cholesky": 1, "angle_svd": 0}
    for _ in range(2):
        for n_grade in range(3):
            regularity_constant(analysis, n_grade)
        # grades 1 and 2 add one solve each; grade 0 and the second pass none
        assert solves["generalized_eigh"] == 3
        assert dict(kernel_calls) == {"eig": 0, "eigh": 3, "svd": 0, "solve": 3, "inv": 0, "cholesky": 3, "angle_svd": 0}


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
