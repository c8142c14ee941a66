"""The certificate suite: every acceptance property as a callable check.

:data:`OPERATOR_CERTIFICATES` is the one ordered registry of operator
certificates, each a name, a pinned tolerance and a defect function of
an :class:`OperatorAnalysis`, which carries the top grade of the graph
ladder. ``hessian-analyze`` evaluates all of them on an analysis at its
``--k-max``; the batch behind criteria 3, 4, 5 and 7 only
:data:`BATCH_CERTIFICATES`, on an analysis at grade 0, and those criteria
read the defects and tolerances by registry entry.

Each criterion function runs one property at its pinned tolerance (its
registry entry's ``tol`` or a named constant, never a caller's) and
returns a :class:`CriterionResult` with the worst observed defect and a
JSON-ready detail dict. :func:`run_verify_all` executes the whole suite,
including the determinism criterion, which reruns the first eight
checks and compares the serialized reports byte for byte.

Randomized instances draw from numpy's default PCG64 generator with
explicit seeds, so a fixed seed fixes every matrix bit for bit. No
result contains timestamps or timings; reports are reproducible.
"""

import json
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .hessian import (
    SYMMETRY_TOL,
    OperatorAnalysis,
    ScaleOperator,
    build_fractal_structure,
    fractal_weight,
    normality_defect,
    pair_isometry_certificate,
    resolvent,
    restriction_invariance,
    spectral_decompose,
)
from .sobolev_circle import _log_sigma_tables, oracle_deltas

__all__ = [
    "DEFAULT_SEED",
    "ORACLE_TOL",
    "Certificate",
    "OPERATOR_CERTIFICATES",
    "BATCH_CERTIFICATES",
    "CriterionResult",
    "VerifySummary",
    "standard_operator_set",
    "analyze_operator_batch",
    "criterion_sobolev_oracle",
    "criterion_sigma_witness",
    "criterion_kernel_cokernel",
    "criterion_resolvent_normality",
    "criterion_spectral_consistency",
    "criterion_fractal_certificate",
    "criterion_restriction",
    "criterion_roundtrip",
    "run_verify_all",
]

DEFAULT_SEED = 1729

# scaled closed-form vs quadrature delta accepted for the Sobolev Grams
ORACLE_TOL = 1e-8

# the documented non-symmetric negative control (strictly triangular)
NEGATIVE_CONTROL = ((0.0, 1.0), (0.0, 0.0))


@dataclass(frozen=True)
class Certificate:
    """One operator certificate: it passes when ``defect(analysis)`` is at
    most the tolerance. The fractal certificate reads every grade up to the
    analysis's own top grade ``k_max``."""

    name: str
    tol: float
    defect: Callable[[OperatorAnalysis], float]


def _positivity_defect(an: OperatorAnalysis) -> float:
    """0 when grade 0 (the graph equivalence) and every grade k < ``an.k_max``
    (the C_k the report lists) have 0 < c_lo <= c_hi, else inf; 0 by identity
    under the graph default. The forms are SPD, so it fails only on numerical
    trouble: a failed or overflowed pencil, or a c_lo within its rounding of 0."""
    return 0.0 if all(0.0 < lo <= hi for lo, hi in an.equivalence) else float("inf")


# Ordered as hessian-analyze reports them, symmetry (its gate) first. The
# kernel entry's full-rank proof reads the eigenbasis pass, so behind a
# passed gate the pass runs there, before a failed proof's SVD and before
# the resolvent is held; the ladder entries after it read the kept pass.
# The entries call the certificate functions through this module's names,
# so patching a module binding reaches them.
OPERATOR_CERTIFICATES = (
    SYMMETRY := Certificate("symmetry", SYMMETRY_TOL, lambda an: an.symmetry),
    KERNEL_ANGLE := Certificate("kernel-cokernel-angle", 1e-8, lambda an: an.kernel.subspace_angle),
    Certificate("resolvent-residual", 1e-8, lambda an: an.resolvent_residual),
    NORMALITY := Certificate("resolvent-normality", 1e-10, lambda an: an.normality[0]),
    ADJOINT := Certificate("resolvent-adjoint", 1e-10, lambda an: an.normality[1]),
    CONSISTENCY := Certificate("eigenvalue-resolvent-consistency", 1e-8, lambda an: an.consistency),
    RECONSTRUCTION := Certificate("spectral-reconstruction", 1e-10, lambda an: an.relative_reconstruction),
    FRACTAL := Certificate("fractal-certificate", 1e-8, lambda an: np.max(build_fractal_structure(an))),
    RESTRICTION := Certificate("restriction-invariance", 1e-10, lambda an: restriction_invariance(an)),
    Certificate("pair-isometry", 1e-10, lambda an: pair_isometry_certificate(an)),
    Certificate("graph-equivalence-positivity", 1.0, lambda an: _positivity_defect(an)),
)
# what criteria 3, 4, 5 and 7 read from every batch operator
BATCH_CERTIFICATES = (KERNEL_ANGLE, NORMALITY, ADJOINT, CONSISTENCY, RECONSTRUCTION, RESTRICTION)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    defect: float
    tol: float
    details: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} {self.name}: {status} (defect {self.defect:.3e}, tol {self.tol:.3e})"


@dataclass(frozen=True)
class VerifySummary:
    seed: int
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_report(self) -> dict:
        return {
            "suite": "scale-hilbert certificates",
            "seed": self.seed,
            "passed": self.passed,
            "criteria": [asdict(r) for r in self.results],
        }


def standard_operator_set(seed: int = DEFAULT_SEED, count: int = 50) -> list:
    """The seeded batch behind the operator criteria: ``count`` symmetric
    operators with dimensions 16..128, every other one rank-deficient.

    Dense instances are (B + B^T) / (2 sqrt(n)) for standard normal B,
    which keeps spectral radii near 1. Rank-deficient instances conjugate
    a diagonal with a zero block (1 to n/4 zeros, remaining entries of
    magnitude 0.5..2 with random signs) by a seeded orthogonal matrix.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(count):
        n = int(rng.integers(16, 129))
        if i % 2 == 0:
            b = rng.standard_normal((n, n))
            a = (b + b.T) / (2.0 * np.sqrt(n))
        else:
            ker_dim = int(rng.integers(1, n // 4 + 1))
            d = np.zeros(n)
            d[ker_dim:] = rng.uniform(0.5, 2.0, n - ker_dim) * rng.choice([-1.0, 1.0], n - ker_dim)
            q = linalg.random_orthogonal(n, rng)
            a = q.T @ np.diag(d) @ q
        ops.append(ScaleOperator(a))
    return ops


def analyze_operator_batch(ops) -> list:
    """One row per operator: the defect of every entry of
    :data:`BATCH_CERTIFICATES` under its name, plus the kernel report.

    Each operator gets its own :class:`OperatorAnalysis` at top grade 0
    (its eigenbasis pass covers grades 0 and 1), released once its row is
    built, so only one operator's factorizations are alive.
    """
    return [_analysis_row(OperatorAnalysis(op)) for op in ops]


def _analysis_row(an: OperatorAnalysis) -> dict:
    row = {c.name: c.defect(an) for c in BATCH_CERTIFICATES}
    row["kernel"] = an.kernel
    return row


def _worst(batch, cert: Certificate) -> float:
    """The largest defect of ``cert`` over the batch; NaN if any is NaN, so that it fails."""
    return float(np.max([row[cert.name] for row in batch]))


def criterion_sobolev_oracle() -> CriterionResult:
    """Closed-form Gram entries against the trapezoid oracle, as scaled
    deltas (:func:`scalehilbert.sobolev_circle.oracle_deltas`)."""
    nu_max, k_max = 64, 3
    per_grade = [delta for _, _, delta in oracle_deltas(nu_max, k_max)]
    worst = float(np.max(per_grade))
    return CriterionResult(
        number=1,
        name="sobolev-oracle-equivalence",
        passed=worst <= ORACLE_TOL,
        defect=worst,
        tol=ORACLE_TOL,
        details={"nu_max": nu_max, "k_max": k_max, "worst_scaled_delta_per_grade": per_grade},
    )


def criterion_sigma_witness() -> CriterionResult:
    """Per-index ratio between the Sobolev weight and sigma^k.

    Interval membership is evaluated in the log domain, on the log ratio
    behind :func:`scalehilbert.sobolev_circle.ratio_trace`; the lower
    endpoint 2^(-k) is attained exactly at the first index, where both
    sides reduce to the identical expression -k * log1p(1). The large
    indices must sit within 1 percent of pi^(2k).
    """
    nu_max, k_max = 4096, 3
    tail_rtol = 0.01
    tail_from = 1000
    bounds_ok = True
    worst_tail = 0.0
    per_grade = []
    for k in range(k_max + 1):
        log_ratio = np.subtract(*_log_sigma_tables(nu_max, k))
        lo = -k * np.log1p(1.0)
        hi = k * np.log1p(4.0 * np.pi**2)
        inside = bool((log_ratio >= lo).all() and (log_ratio <= hi).all())
        bounds_ok = bounds_ok and inside
        ratio = np.exp(log_ratio)
        limit = np.pi ** (2 * k)
        tail = float(np.max(np.abs(ratio[tail_from - 1 :] - limit)) / limit)
        worst_tail = max(worst_tail, tail)
        per_grade.append(
            {
                "k": k,
                "inside_interval": inside,
                "ratio_min": float(ratio.min()),
                "ratio_max": float(ratio.max()),
                "tail_rel_dev": tail,
            }
        )
    return CriterionResult(
        number=2,
        name="sigma-isomorphism-witness",
        passed=bounds_ok and worst_tail <= tail_rtol,
        defect=worst_tail,
        tol=tail_rtol,
        details={"nu_max": nu_max, "tail_from": tail_from, "per_grade": per_grade},
    )


def criterion_kernel_cokernel(batch) -> CriterionResult:
    """Kernel and range-complement coincide (principal angle)."""
    worst = _worst(batch, KERNEL_ANGLE)
    return CriterionResult(
        number=3,
        name="kernel-cokernel-coincidence",
        passed=worst <= KERNEL_ANGLE.tol,
        defect=worst,
        tol=KERNEL_ANGLE.tol,
        details={"operators": len(batch), "rank_deficient": sum(1 for row in batch if row["kernel"].ker_dim > 0)},
    )


def criterion_resolvent_normality(batch) -> CriterionResult:
    """Resolvents of the batch are normal with the conjugate-point adjoint;
    the non-symmetric control must show a macroscopic commutator."""
    control_floor = 1e-2
    worst_commutator, worst_adjoint = _worst(batch, NORMALITY), _worst(batch, ADJOINT)
    worst = float(np.max([worst_commutator, worst_adjoint]))
    control, _ = normality_defect(resolvent(ScaleOperator(np.array(NEGATIVE_CONTROL))))
    passed = worst <= NORMALITY.tol and control >= control_floor
    return CriterionResult(
        number=4,
        name=NORMALITY.name,
        passed=passed,
        defect=worst,
        tol=NORMALITY.tol,
        details={
            "operators": len(batch),
            "worst_commutator": worst_commutator,
            "worst_adjoint": worst_adjoint,
            "negative_control_commutator": control,
            "negative_control_floor": control_floor,
        },
    )


def criterion_spectral_consistency(batch) -> CriterionResult:
    """Eigenvalues agree with the resolvent's, within the eigen-residual
    bound of :func:`resolvent_consistency`, and the eigendecomposition
    reconstructs the operator."""
    worst_eig = _worst(batch, CONSISTENCY)
    worst_recon = _worst(batch, RECONSTRUCTION)
    return CriterionResult(
        number=5,
        name="spectral-consistency",
        passed=worst_eig <= CONSISTENCY.tol and worst_recon <= RECONSTRUCTION.tol,
        defect=worst_eig,
        tol=CONSISTENCY.tol,
        details={
            "operators": len(batch),
            "worst_eigenvalue_dev": worst_eig,
            "worst_reconstruction": worst_recon,
            "reconstruction_tol": RECONSTRUCTION.tol,
        },
    )


def criterion_fractal_certificate(seed: int = DEFAULT_SEED) -> CriterionResult:
    """The graph-norm ladder makes the rescaled eigenbases orthonormal."""
    n, k_max = 64, 3
    rng = np.random.default_rng([seed, 6])
    b = rng.standard_normal((n, n))
    op = ScaleOperator((b + b.T) / (2.0 * np.sqrt(n)))
    deviations = build_fractal_structure(OperatorAnalysis(op, k_max))
    worst = float(np.max(deviations))
    return CriterionResult(
        number=6,
        name=FRACTAL.name,
        passed=worst <= FRACTAL.tol,
        defect=worst,
        tol=FRACTAL.tol,
        details={"n": n, "k_max": k_max, "gram_deviation_per_grade": list(deviations)},
    )


def criterion_restriction(batch) -> CriterionResult:
    """The operator looks identical in the graph-rescaled eigenbasis."""
    worst = _worst(batch, RESTRICTION)
    return CriterionResult(
        number=7,
        name=RESTRICTION.name,
        passed=worst <= RESTRICTION.tol,
        defect=worst,
        tol=RESTRICTION.tol,
        details={"operators": len(batch)},
    )


def criterion_roundtrip(seed: int = DEFAULT_SEED) -> CriterionResult:
    """weight -> diag(sqrt(weight - 1)) -> fractal weight recovers the weight.

    Half the weights start at exactly 1, so a zero eigenvalue is always
    exercised. Comparison happens per entry, relative, in the log domain.
    """
    count, n, tol = 20, 64, 1e-12
    rng = np.random.default_rng([seed, 8])
    worst = 0.0
    for i in range(count):
        logs = np.cumsum(rng.uniform(0.0, 0.4, n))
        if i % 2 == 0:
            logs = logs - logs[0]
        gammas = np.sqrt(np.expm1(logs))
        fw = fractal_weight(spectral_decompose(OperatorAnalysis(ScaleOperator(np.diag(gammas)))))
        rel = np.abs(np.expm1(fw.log_values - logs))
        worst = float(np.max([worst, rel.max()]))
    return CriterionResult(
        number=8,
        name="fractal-weight-roundtrip",
        passed=worst <= tol,
        defect=worst,
        tol=tol,
        details={"weights": count, "n": n},
    )


def _run_core(seed: int) -> list:
    """Criteria 1 to 8 (everything except determinism), sharing one batch."""
    batch = analyze_operator_batch(standard_operator_set(seed))
    return [
        criterion_sobolev_oracle(),
        criterion_sigma_witness(),
        criterion_kernel_cokernel(batch),
        criterion_resolvent_normality(batch),
        criterion_spectral_consistency(batch),
        criterion_fractal_certificate(seed),
        criterion_restriction(batch),
        criterion_roundtrip(seed),
    ]


def run_verify_all(seed: int = DEFAULT_SEED) -> VerifySummary:
    """All nine criteria, each at its pinned tolerance. The determinism
    criterion reruns the first eight checks and compares the serialized
    reports byte for byte. It covers reruns inside one process only;
    across processes, see "Determinism" in the README.
    """
    results = _run_core(seed)
    first = json.dumps([asdict(r) for r in results], indent=2)
    second = json.dumps([asdict(r) for r in _run_core(seed)], indent=2)
    identical = first == second
    results.append(
        CriterionResult(
            number=9,
            name="determinism",
            passed=identical,
            defect=0.0 if identical else 1.0,
            tol=0.0,
            details={"reruns": 2, "byte_identical": identical, "report_bytes": len(first)},
        )
    )
    return VerifySummary(seed=seed, results=tuple(results))
