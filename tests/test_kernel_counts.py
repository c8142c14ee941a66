"""Dense-kernel call counts: each factorization runs once per operator.

The counters wrap ``numpy.linalg.{eig, eigh, svd, solve}`` for one test.
The package calls these through the ``numpy.linalg`` namespace, so every
factorization it makes is counted; ``numpy.linalg.norm`` calls its
module-internal SVD and does not show up.
"""

import collections
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import scalehilbert
from scalehilbert import verify
from scalehilbert.cli import main
from scalehilbert.verify import analyze_operator_batch, run_verify_all, standard_operator_set

KERNELS = ("eig", "eigh", "svd", "solve")


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = collections.Counter({name: 0 for name in KERNELS})
    for name in KERNELS:
        fn = getattr(np.linalg, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_hessian_analyze_factorizes_once(kernel_calls, tmp_path, capsys):
    spec = {"n": 12, "kind": "conjugated_diagonal", "seed": 5,
            "diag": [0.0, 0.0, -1.5, 0.7, 2.0, 1.2, -0.4, 3.0, 0.9, -2.2, 1.1, 0.6]}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(spec))
    code = main(["--command", "hessian-analyze", "--input", str(path), "--output", str(tmp_path / "r.json")])
    capsys.readouterr()
    assert code == 0
    # eigh: spectral data; svd: kernel; solve: resolvent (its guard, the
    # adjoint and the consistency residual read the solve's result)
    assert dict(kernel_calls) == {"eig": 0, "eigh": 1, "svd": 1, "solve": 1}


def test_batch_factorizes_once_per_operator(kernel_calls):
    ops = standard_operator_set(count=6)
    rows = analyze_operator_batch(ops)
    assert len(rows) == 6
    assert dict(kernel_calls) == {"eig": 0, "eigh": 6, "svd": 6, "solve": 6}


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
    """No certificate needs an assignment solver, so the CLI does not load one."""
    code = "import sys, scalehilbert.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(scalehilbert.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
