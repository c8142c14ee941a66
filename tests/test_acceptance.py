"""Acceptance gate: the nine contract criteria at their pinned tolerances.

Each test prints the one-line pass/fail verdict of its criterion and
asserts it. Runtime budgets are enforced where the contract states one;
criteria that share the seeded operator batch are charged its build
time as well. The last tests pin the determinism contract across
processes and BLAS thread counts, and that one NaN defect fails every
criterion that aggregates defects.
"""

import json
import os
import subprocess
import sys
import time

import pytest

import scalehilbert
from scalehilbert import verify
from scalehilbert.cli import main
from scalehilbert.weights import Weight
from scalehilbert.sobolev_circle import sigma_equivalence_constants
from scalehilbert.verify import (
    DEFAULT_SEED,
    CriterionResult,
    analyze_operator_batch,
    criterion_fractal_certificate,
    criterion_kernel_cokernel,
    criterion_resolvent_normality,
    criterion_restriction,
    criterion_roundtrip,
    criterion_sigma_witness,
    criterion_sobolev_oracle,
    criterion_spectral_consistency,
    standard_operator_set,
)

BUDGETS = {1: 10.0, 2: 5.0, 3: 30.0, 4: 60.0, 6: 10.0}


@pytest.fixture(scope="session")
def shared_batch():
    start = time.perf_counter()
    batch = analyze_operator_batch(standard_operator_set(DEFAULT_SEED))
    return batch, time.perf_counter() - start


def settle(result, elapsed):
    print(result.line())
    assert result.passed, result.line()
    budget = BUDGETS.get(result.number)
    if budget is not None:
        assert elapsed < budget, f"criterion {result.number} took {elapsed:.1f}s, budget {budget}s"


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_criterion_01_sobolev_oracle():
    result, elapsed = timed(criterion_sobolev_oracle)
    assert result.tol == 1e-8
    assert result.details["nu_max"] == 64 and result.details["k_max"] == 3
    settle(result, elapsed)


def test_criterion_02_sigma_witness():
    result, elapsed = timed(criterion_sigma_witness)
    assert result.details["nu_max"] == 4096
    assert all(g["inside_interval"] for g in result.details["per_grade"])
    for g in result.details["per_grade"]:
        assert (g["ratio_min"], g["ratio_max"]) == sigma_equivalence_constants(4096, g["k"])
    settle(result, elapsed)


def test_criterion_03_kernel_cokernel(shared_batch):
    batch, batch_time = shared_batch
    result, elapsed = timed(criterion_kernel_cokernel, batch=batch)
    assert result.tol == 1e-8
    assert result.details["operators"] == 50
    assert result.details["rank_deficient"] == 25
    settle(result, elapsed + batch_time)


def test_criterion_04_resolvent_normality(shared_batch):
    batch, batch_time = shared_batch
    result, elapsed = timed(criterion_resolvent_normality, batch=batch)
    assert result.tol == 1e-10
    assert result.details["negative_control_commutator"] >= 1e-2
    settle(result, elapsed + batch_time)


def test_criterion_05_spectral_consistency(shared_batch):
    batch, batch_time = shared_batch
    result, elapsed = timed(criterion_spectral_consistency, batch=batch)
    assert result.tol == 1e-8
    assert result.details["worst_reconstruction"] <= 1e-10
    settle(result, elapsed + batch_time)


def test_criterion_06_fractal_certificate():
    result, elapsed = timed(criterion_fractal_certificate)
    assert result.tol == 1e-8
    assert result.details["n"] == 64 and result.details["k_max"] == 3
    settle(result, elapsed)


def test_criterion_07_restriction_invariance(shared_batch):
    batch, batch_time = shared_batch
    result, elapsed = timed(criterion_restriction, batch=batch)
    assert result.tol == 1e-10
    settle(result, elapsed + batch_time)


def test_criterion_08_weight_roundtrip():
    result, elapsed = timed(criterion_roundtrip)
    assert result.tol == 1e-12
    assert result.details == {"weights": 20, "n": 64}
    settle(result, elapsed)


def test_criterion_09_determinism(tmp_path, capsys):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["--command", "verify-all", "--output", str(first)]) == 0
    assert main(["--command", "verify-all", "--output", str(second)]) == 0
    capsys.readouterr()
    identical = first.read_bytes() == second.read_bytes()
    result = CriterionResult(
        number=9,
        name="determinism",
        passed=identical,
        defect=0.0 if identical else 1.0,
        tol=0.0,
        details={"runs": 2, "byte_identical": identical},
    )
    settle(result, 0.0)


def test_determinism_across_processes_and_thread_counts(tmp_path):
    """The contract beyond criterion 9's in-process rerun: two fresh
    processes at one BLAS thread count write the same bytes, and another
    thread count, which may move defects at roundoff, keeps every passed flag."""
    root = os.path.dirname(os.path.dirname(scalehilbert.__file__))
    threads = {"first": "1", "second": "1", "two_threads": "2"}
    children = {
        name: subprocess.Popen(
            [sys.executable, "-m", "scalehilbert.cli", "--command", "verify-all", "--output", str(tmp_path / name)],
            env=dict(os.environ, PYTHONPATH=root, OPENBLAS_NUM_THREADS=count, OMP_NUM_THREADS=count),
            stdout=subprocess.DEVNULL,
        )
        for name, count in threads.items()
    }  # run concurrently
    assert {name: child.wait() for name, child in children.items()} == dict.fromkeys(threads, 0)
    reports = {name: (tmp_path / name).read_bytes() for name in threads}
    assert reports["first"] == reports["second"]

    def flags(raw):
        return [(c["number"], c["passed"]) for c in json.loads(raw)["criteria"]]

    assert flags(reports["first"]) == flags(reports["two_threads"]) == [(n, True) for n in range(1, 10)]


@pytest.mark.parametrize(
    "criterion, name",
    [
        (criterion_kernel_cokernel, "kernel-cokernel-angle"),
        (criterion_resolvent_normality, "resolvent-normality"),
        (criterion_resolvent_normality, "resolvent-adjoint"),
        (criterion_spectral_consistency, "eigenvalue-resolvent-consistency"),
        (criterion_spectral_consistency, "spectral-reconstruction"),
        (criterion_restriction, "restriction-invariance"),
    ],
)
def test_nan_batch_defect_fails(shared_batch, criterion, name):
    # one NaN defect, not in the first row, fails the criterion
    batch = [dict(row) for row in shared_batch[0]]
    batch[1][name] = float("nan")
    assert not criterion(batch=batch).passed


def test_nan_grade_defect_fails(monkeypatch):
    nan = float("nan")
    monkeypatch.setattr(verify, "oracle_deltas", lambda nu_max, k_max: iter([(None, None, 0.0), (None, None, nan)]))
    assert not criterion_sobolev_oracle().passed
    monkeypatch.setattr(verify, "build_fractal_structure", lambda an: (0.0, nan, 0.0))
    assert not criterion_fractal_certificate().passed
    monkeypatch.setattr(verify, "fractal_weight", lambda data: Weight([nan] * 64))
    assert not criterion_roundtrip().passed
