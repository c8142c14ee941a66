"""Acceptance gate: the nine contract criteria at their pinned tolerances.

Each test prints the one-line pass/fail verdict of its criterion and
asserts it. Runtime budgets are enforced where the contract states one;
criteria that share the seeded operator batch are charged its build
time as well.
"""

import time

import pytest

from scalehilbert.cli import main
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
