"""Dense-kernel call counts: each factorization runs once per operator.

The counters wrap ``numpy.linalg.{eig, eigh, svd, solve}``,
``scipy.linalg.eigh``/``cholesky`` (as ``scipy_eigh``/``cholesky``) and
``scipy.linalg.subspace_angles`` for one test; ``svd_uv`` lists the
``compute_uv`` flag of every ``svd`` call. The package calls these
through the module namespaces, so every factorization it makes is
counted; ``numpy.linalg.norm`` calls its module-internal SVD and does
not show up. The kernel certificate takes a values-only SVD and a
second one with vectors only when the operator has a kernel.
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
import scipy.linalg

import scalehilbert
from scalehilbert import verify
from scalehilbert.cli import main
from scalehilbert.verify import analyze_operator_batch, run_verify_all, standard_operator_set

KERNELS = {
    "eig": (np.linalg, "eig"),
    "eigh": (np.linalg, "eigh"),
    "svd": (np.linalg, "svd"),
    "solve": (np.linalg, "solve"),
    "scipy_eigh": (scipy.linalg, "eigh"),
    "cholesky": (scipy.linalg, "cholesky"),
    "subspace_angles": (scipy.linalg, "subspace_angles"),
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
    # eigh: spectral data; svd: the kernel's singular values, then its
    # vectors (this operator has a kernel); solve: resolvent (its guard,
    # the adjoint and the consistency residual read the solve's result);
    # the graph-default constants are identities, so no generalized eigh
    # or Cholesky runs; the principal angles read the SVD's own bases
    assert dict(kernel_calls) == {"eig": 0, "eigh": 1, "svd": 2, "solve": 1, "scipy_eigh": 0, "cholesky": 0,
                                  "subspace_angles": 0}
    assert kernel_calls.svd_uv == [False, True]


def test_full_rank_kernel_takes_values_only(kernel_calls, tmp_path, capsys):
    spec = {"n": 12, "kind": "conjugated_diagonal", "seed": 5,
            "diag": [0.3, -0.8, -1.5, 0.7, 2.0, 1.2, -0.4, 3.0, 0.9, -2.2, 1.1, 0.6]}
    assert analyze_spec(spec, tmp_path, capsys)["kernel"]["ker_dim"] == 0
    assert dict(kernel_calls) == {"eig": 0, "eigh": 1, "svd": 1, "solve": 1, "scipy_eigh": 0, "cholesky": 0,
                                  "subspace_angles": 0}
    assert kernel_calls.svd_uv == [False]


def test_batch_factorizes_once_per_operator(kernel_calls):
    ops = standard_operator_set(count=6)
    rows = analyze_operator_batch(ops)
    assert len(rows) == 6
    # one values-only svd per operator, a vector svd per rank-deficient one
    assert [row["kernel"].ker_dim > 0 for row in rows] == [False, True] * 3
    assert dict(kernel_calls) == {"eig": 0, "eigh": 6, "svd": 9, "solve": 6, "scipy_eigh": 0, "cholesky": 0,
                                  "subspace_angles": 0}
    assert kernel_calls.svd_uv == [False, False, True] * 3


def test_determinism_rerun_recomputes(kernel_calls, monkeypatch):
    """Criterion 9 compares two independent runs: the second core pass
    must redo every factorization rather than read one kept from the first.
    Each batch operator makes one ``eigh`` and one ``solve`` (no ``eig``)."""
    count = 4
    full_set = verify.standard_operator_set
    monkeypatch.setattr(verify, "standard_operator_set", lambda seed: full_set(seed, count=count))
    passes = collections.defaultdict(list)

    def counting(name):
        fn = getattr(verify, name)

        def counted(*args, **kwargs):
            before = dict(kernel_calls)
            result = fn(*args, **kwargs)
            passes[name].append({k: kernel_calls[k] - before[k] for k in ("eigh", "solve")})
            return result

        monkeypatch.setattr(verify, name, counted)

    counting("_run_core")
    counting("analyze_operator_batch")
    assert run_verify_all().passed
    core, batch = passes["_run_core"], passes["analyze_operator_batch"]
    assert len(core) == 2 and core[0] == core[1]
    assert batch == [{"eigh": count, "solve": count}] * 2


def test_cli_import_leaves_out_scipy_optimize():
    """No certificate needs an assignment solver, and the Sobolev log
    weights are plain numpy, so the CLI loads neither scipy.optimize nor
    scipy.special (scipy.linalg alone loads neither)."""
    code = "import sys, scalehilbert.cli; print('scipy.optimize' in sys.modules, 'scipy.special' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(scalehilbert.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False False"
    for path in pathlib.Path(scalehilbert.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any(name.startswith("scipy.special") for name in names), path.name
