"""Negative controls: each check fails on a fixed perturbation of its input
and passes without it.

Flip record. Each row patches ``sobolev_circle.fourier_gram_closed_form``,
the closed form that criterion 1 certifies against the trapezoid oracle,
and lists the defect it reads (tolerance 1e-8) and every criterion it
fails. Criterion 2 reads the log closed form, not this function, so it
passes under every row.

| control | criterion 1 defect | fails |
|---|---|---|
| none | 2.1e-16 | none |
| entry (10, 10, 2) times 1 + 1e-6 | 1.0e-6 | 1 |
| index map nu -> nu + 1 on the diagonal | 0.99998 | 1 |
| index map nu -> nu - 1 on the diagonal (1 stays 1) | 6.3e4 | 1 |
| entry (10, 10, 2) = 0 | inf | 1 |

Under nu -> nu + 1 only the constant moves, since the sine 2m and the
cosine 2m + 1 share the frequency m: its closed form reads the first
sine's norm 63127.9 where the oracle reads 1. Under nu -> nu - 1 every
sine reads the frequency below its own, and the first sine reads 1 where
the oracle reads 63127.9. Under the zero entry, ``verify-all`` exits 1
with criterion 1 alone failing, and its report writes the infinite
defect as null.

Criteria 2, 4 and 9, each through a patch of its own input:

| control | defect (tolerance) | fails |
|---|---|---|
| none | 6.0e-3 (0.01), 0 (0); criterion 4's control commutator 0.471 (floor 0.01) | none |
| criterion 2's right side k log(nu^3 + 1), d p = 3 | 0.99999999998 (0.01) | 2 |
| criterion 4's built-in control ``NEGATIVE_CONTROL`` made symmetric, [[0, 1], [1, 0]] | control commutator 0 (floor 0.01) | 4 |
| every second run of the core adds a detail to criterion 1 | 1.0 (0) | 9 |

Under the cubic side grades 1-3 leave [2^-k, (1 + 4 pi^2)^k] and their
ratio tends to 0, not pi^(2k). A symmetric control has a normal
resolvent, so criterion 4 fails on its control alone, its batch defect
unmoved. Under each control ``verify-all`` exits 1 with that criterion
alone failing.

Operator certificates, through ``hessian-analyze`` (pinned tolerances):

| control | kernel-cokernel-angle | ker_dim | fails |
|---|---|---|---|
| rank-deficient A, n = 24, 3 zeros | 1.2e-15 | 3 | none |
| the same A + skew part, asymmetry 3e-11 | 2.16e-5 | 1 | kernel-cokernel-angle, restriction-invariance (1.9e-10) |
| the same A + skew part, asymmetry 2e-10 | not reached | not reached | symmetry (2.0e-10), which halts the run |

The skew part at 3e-11 passes the symmetry gate (tolerance 1e-10); at
2e-10, just above it, the run halts after the symmetry entry, and
``spectral_decompose`` refuses the same analysis. At 3e-11 its 3 x 3
block on the kernel has one zero eigenvalue and a pair +-i w, w ~ 1e-10,
above the SVD cutoff, so the SVD counts one kernel vector where ``eigh``
of the symmetric part sees three, and the angle carries what neither the
gate nor ``eigh`` sees.

The kernel angle is the largest principal angle, not any other: through
``check_kernel_cokernel`` on A = W diag(s) Z^T, s uniform in [1, 2], whose
kernel and range complement are the n = 24 spans of dimension 2 that
``prescribed_bases`` of ``test_linalg`` draws at seed 0 to meet at the
two angles. A is not symmetric, so the full-rank proof refuses it and the
SVD runs:

| angles | kernel-cokernel-angle (tolerance 1e-8) | fails |
|---|---|---|
| 1e-12, 1e-13 | 1.0e-12 | none |
| 1e-12, 1e-6 | 1.0e-6 | kernel-cokernel-angle |

Read as the smallest angle, the second row would pass at 1e-12.

The full-rank proof's last rounding widening, through
``check_kernel_cokernel`` on diag(t, 1): the eigenpairs are exact, so the
flip t0, the largest t the proof declines, is where the widened lower
bound meets n eps times the upper one, about 5 eps. Both sides report
full rank; only the route differs:

| t | proof | SVD calls (compute_uv) |
|---|---|---|
| t0 = 1.1102230246251593e-15 | declines | 2 (True, False) |
| nextafter(t0, 1) | proves | none |

Without the (1 - g(4)) factor on the lower bound the proof accepts t0:
its flip moves one ulp down, to 1.1102230246251591e-15. The test finds t0
by bisection and pins it to the row above where the environment matches
``tests/golden/environment.json``.

graph-equivalence-positivity, through ``hessian-analyze`` on
A = [[1, 1], [1, -1]] (gamma = +-sqrt 2) with the scale of diagonal grades
1, g and 1e308 (each weight constant over both indices):

| control | positivity defect | c_lo = c_hi | C_0, C_1 | fails |
|---|---|---|---|---|
| g = 1 | 0 | 1/3 | sqrt(1/3), sqrt(1e308/3) | none |
| g = 0.1 | inf (null) | 1/30 | sqrt(1/30), null | graph-equivalence-positivity |

Under the control the grade-1 pencil M_2 = 1e308 I against
M_1 + Gamma M_1 Gamma = 0.3 I reduces to 1e308 / 0.3, past the double max,
so it reads (nan, nan), and the run exits 1 with that entry alone failing,
with no RuntimeWarning.

The unit-scale input A = Q^T diag(d) Q (``conjugated_diagonal``, seed 3)
on the diagonal scale of grades 0 and 1, both the identity, at the
scale's top grade 1:

| d | c_lo, c_hi (exact for d: 1/(1 + d_max^2), 0.8) | fails |
|---|---|---|
| (1, 1, 0.5, -2) | 0.2, 0.8 | none |
| (1e9, 1, 0.5, -2) | 5.9e-17, 0.800000025 | 7 entries (below), not positivity |

Under d_1 = 1e9 the run exits 1 with resolvent-residual (2.7e-8),
resolvent-normality, resolvent-adjoint, eigenvalue-resolvent-consistency,
fractal-certificate (1.0e-7, grades 0 and 1), restriction-invariance and
pair-isometry failing. Its constants are solved in the eigenbasis, so c_hi
is within 1e-7 of 0.8 and C_0 of sqrt(0.8). The graph-Gram route they
replace failed the Cholesky factorization of I + A^T A (condition about
1e18) and read null, which failed positivity too.

The entries computed from the eigenpairs through one eigenbasis pass and
from the resolvent through real products, evaluated by the registry on the
n = 24 GOE operator (B + B^T) / (2 sqrt(24)), B standard normal from
default_rng(5), at k_max 3. The eigenpair perturbations are cache patches
on ``OperatorAnalysis.spectral`` behind a passed symmetry gate. They are
named by the pairs' former dominant-coordinate listing; in the |gamma|
order the analysis holds, gamma_5 = 0.9645 is position 19 and v_3, v_4 are
positions 20 and 13:

| control | fails (defect) |
|---|---|
| none | none |
| gamma_5 + 1e-6 | eigenvalue-resolvent-consistency (5.09e-7), spectral-reconstruction (2.88e-7), fractal-certificate (3.00e-6), restriction-invariance (1.96e-6), pair-isometry (9.99e-7) |
| v_3, v_4 rotated by 1e-6 | spectral-reconstruction (7.21e-7), fractal-certificate (1.95e-6), restriction-invariance (2.70e-6), pair-isometry (7.74e-7) |

The consistency check passes the rotation (6.4e-11) by design: by the
Temple bound an eigenvalue is second order in a vector error.

The resolvent B of the same operator, by cache patch on the array
``OperatorAnalysis.resolvent``, plus a perturbation E with
||E||_F = 1e-7 ||B||_F, E drawn from default_rng(11): the symmetric
C + C^T of its first standard normal 24 x 24 draw C, or its second draw
as is. The residual is formed from the B it reads, the patched one:

| control | fails (defect) |
|---|---|
| B + symmetric E | resolvent-residual (5.21e-7), resolvent-normality (1.36e-8), eigenvalue-resolvent-consistency (5.36e-8) |
| B + nonsymmetric E | resolvent-residual (5.19e-7), resolvent-normality (1.91e-8), resolvent-adjoint (1.42e-7), eigenvalue-resolvent-consistency (3.68e-8) |

A symmetric E keeps B^T = B, so only the adjoint passes it.
resolvent-residual has no eigenpair row; its control from the operator
itself is ``conjugated_diagonal(d, seed=3)`` under the graph default:

| control | resolvent-residual | fails |
|---|---|---|
| d = (1, 1, 0.5, -2) | 2.9e-16 | none |
| d = (1e9, 1, 0.5, -2) | 2.70e-8 | resolvent-residual, -normality (3.0e-9), -adjoint (1.2e-8), eigenvalue-resolvent-consistency (3.5e-8), fractal-certificate, restriction-invariance, pair-isometry |

There the ladder defects depend on the route: the eigenbasis pass reads
fractal 2.7e19, restriction 21 and pair isometry 30, the former direct
products against the graph Gram 5.7e36, 71 and 122.

The earlier flip-record row "graph Gram + symmetric 1e-8" (fails fractal,
restriction and pair isometry) no longer applies under the graph default:
no certificate forms the graph Gram there, so there is nothing to perturb.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from scalehilbert import hessian, linalg, sobolev_circle, verify
from scalehilbert.cli import main
from scalehilbert.hessian import (OperatorAnalysis, ScaleOperator, SpectralData, check_kernel_cokernel, conjugated_diagonal,
                                  spectral_decompose)
from scalehilbert.verify import (DEFAULT_SEED, KERNEL_ANGLE, OPERATOR_CERTIFICATES, analyze_operator_batch,
                                 criterion_resolvent_normality, criterion_sigma_witness, criterion_sobolev_oracle,
                                 run_verify_all, standard_operator_set)
from scalehilbert.weights import poly_plus_one_weight

from test_golden import EXACT
from test_linalg import prescribed_bases, with_kernel_pair

closed_form = sobolev_circle.fourier_gram_closed_form


def at_entry(value):
    """The closed form with entry (10, 10, 2) replaced by value(entry)."""
    def patched(nu, nu_prime, k):
        entry = closed_form(nu, nu_prime, k)
        return value(entry) if (nu, nu_prime, k) == (10, 10, 2) else entry
    return patched


def index_map(shift):
    """The closed form with nu -> nu + shift on the diagonal, kept >= 1."""
    def patched(nu, nu_prime, k):
        if nu != nu_prime:
            return closed_form(nu, nu_prime, k)
        return closed_form(max(nu + shift, 1), max(nu + shift, 1), k)
    return patched


# name -> (patched closed form, defect low, defect high), measured on this code
CRITERION_1_CONTROLS = {
    "entry-times-1e-6": (at_entry(lambda d: d * (1 + 1e-6)), 0.99e-6, 1.01e-6),
    "index-plus-one": (index_map(1), 0.99998, 0.99999),
    "index-minus-one": (index_map(-1), 6.31e4, 6.32e4),
    "entry-zero": (at_entry(lambda d: 0.0), math.inf, math.inf),
}


@pytest.mark.parametrize("name", CRITERION_1_CONTROLS)
def test_criterion_1_control(monkeypatch, name):
    unperturbed = criterion_sobolev_oracle()
    assert unperturbed.passed and unperturbed.defect <= 1e-15
    patched, low, high = CRITERION_1_CONTROLS[name]
    monkeypatch.setattr(sobolev_circle, "fourier_gram_closed_form", patched)
    result = criterion_sobolev_oracle()
    assert not result.passed
    assert low <= result.defect <= high
    assert criterion_sigma_witness().passed


def reject_non_finite(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_criterion_1_control_through_verify_all(monkeypatch, tmp_path):
    monkeypatch.setattr(sobolev_circle, "fourier_gram_closed_form", CRITERION_1_CONTROLS["entry-zero"][0])
    report_path = tmp_path / "report.json"
    assert main(["--command", "verify-all", "--output", str(report_path)]) == 1
    with open(report_path) as fh:
        criteria = json.load(fh, parse_constant=reject_non_finite)["criteria"]
    assert [c["number"] for c in criteria if not c["passed"]] == [1]
    assert criteria[0]["defect"] is None
    per_grade = criteria[0]["details"]["worst_scaled_delta_per_grade"]
    assert per_grade[2] is None
    assert max(per_grade[:2] + per_grade[3:]) <= 1e-15


def verify_all_failures(tmp_path):
    """The numbers of the criteria that a ``verify-all`` run fails; the run exits 1."""
    report_path = tmp_path / "report.json"
    assert main(["--command", "verify-all", "--output", str(report_path)]) == 1
    with open(report_path) as fh:
        return [c["number"] for c in json.load(fh, parse_constant=reject_non_finite)["criteria"] if not c["passed"]]


def test_criterion_4_control(monkeypatch, tmp_path):
    batch = analyze_operator_batch(standard_operator_set(DEFAULT_SEED, count=6))
    unperturbed = criterion_resolvent_normality(batch)
    assert unperturbed.passed and unperturbed.details["negative_control_commutator"] >= 0.47
    monkeypatch.setattr(verify, "NEGATIVE_CONTROL", ((0.0, 1.0), (1.0, 0.0)))
    result = criterion_resolvent_normality(batch)
    assert (result.number, result.name, result.passed) == (4, "resolvent-normality", False)
    assert result.defect == unperturbed.defect <= result.tol
    assert result.details["negative_control_commutator"] < result.details["negative_control_floor"]
    assert verify_all_failures(tmp_path) == [4]


def cubic_sigma_tables(nu_max, k):
    """Criterion 2's two log tables with the right side k log(nu^3 + 1): d p = 3."""
    return sobolev_circle._log_closed_form_diag(np.arange(1, nu_max + 1), k), k * poly_plus_one_weight(nu_max, 3).log_values


def test_criterion_2_control(monkeypatch, tmp_path):
    unperturbed = criterion_sigma_witness()
    assert unperturbed.passed and unperturbed.defect <= 0.006
    monkeypatch.setattr(verify, "_log_sigma_tables", cubic_sigma_tables)
    result = criterion_sigma_witness()
    assert result.number == 2 and not result.passed
    assert 0.9999 <= result.defect <= 1.0
    assert [g["inside_interval"] for g in result.details["per_grade"]] == [True, False, False, False]
    assert verify_all_failures(tmp_path) == [2]


def test_criterion_9_control(monkeypatch, tmp_path):
    # a core whose every second run reports one more detail in criterion 1
    core, calls = verify._run_core(DEFAULT_SEED), []

    def nondeterministic(seed):
        calls.append(seed)
        first = core[0]
        rerun = dataclasses.replace(first, details={**first.details, "run": len(calls)})
        return [rerun if len(calls) % 2 == 0 else first, *core[1:]]

    monkeypatch.setattr(verify, "_run_core", nondeterministic)
    summary = run_verify_all(DEFAULT_SEED)
    determinism = summary.results[-1]
    assert [r.number for r in summary.results if not r.passed] == [9]
    assert (determinism.defect, determinism.details["byte_identical"]) == (1.0, False)
    assert verify_all_failures(tmp_path) == [9]
    assert len(calls) == 4


def kernel_control(skew, asymmetry=3e-11):
    """n = 24, a diagonal with 3 zeros and other entries +-U(0.5, 2),
    conjugated by a random orthogonal matrix; with ``skew``, plus a random
    skew part scaled to ``asymmetry``. All drawn from default_rng(0)."""
    rng = np.random.default_rng(0)
    n, zeros = 24, 3
    d = np.zeros(n)
    d[zeros:] = rng.uniform(0.5, 2.0, n - zeros) * rng.choice([-1.0, 1.0], n - zeros)
    q = linalg.random_orthogonal(n, rng)
    a = q.T @ np.diag(d) @ q
    a = (a + a.T) / 2
    c = rng.standard_normal((n, n))
    part = (c - c.T) / 2
    return a + part * (asymmetry * np.linalg.norm(a) / np.linalg.norm(part)) if skew else a


def hessian_analyze(tmp_path, a, code):
    """The strict-JSON ``hessian-analyze`` report of dense ``a`` (or of the
    operator object ``a``), whose run exits ``code``."""
    path = tmp_path / "op.json"
    path.write_text(json.dumps(a if isinstance(a, dict) else {"n": len(a), "kind": "dense", "matrix": a.tolist()}))
    assert main(["--command", "hessian-analyze", "--input", str(path), "--output", str(tmp_path / "r.json")]) == code
    with open(tmp_path / "r.json") as fh:
        return json.load(fh, parse_constant=reject_non_finite)


KERNEL_CONTROL_FAILS = {"kernel-cokernel-angle": (2.1e-5, 2.2e-5), "restriction-invariance": (1.8e-10, 2.0e-10)}


@pytest.mark.parametrize(
    "skew, code, ker_dim, failing",
    [(False, 0, 3, {}), (True, 1, 1, KERNEL_CONTROL_FAILS)],
    ids=["unperturbed", "skew"],
)
def test_kernel_cokernel_angle_control(tmp_path, skew, code, ker_dim, failing):
    a = kernel_control(skew)
    assert linalg.symmetry_defect(a) == (pytest.approx(3e-11, rel=1e-6) if skew else 0.0)
    report = hessian_analyze(tmp_path, a, code)
    assert report["kernel"]["ker_dim"] == ker_dim
    certificates = {c["name"]: c for c in report["certificates"]}
    assert list(certificates) == [cert.name for cert in OPERATOR_CERTIFICATES]
    assert {name for name, c in certificates.items() if not c["passed"]} == set(failing)
    for name, (low, high) in failing.items():
        assert low <= certificates[name]["defect"] <= high
    if not skew:
        assert 1e-16 <= certificates["kernel-cokernel-angle"]["defect"] <= 1e-14


@pytest.mark.parametrize("angles, low, high", [((1e-12, 1e-13), 0.99e-12, 1.01e-12), ((1e-12, 1e-6), 0.99e-6, 1.01e-6)],
                         ids=["unperturbed", "second-angle"])
def test_kernel_angle_reads_the_largest_angle(angles, low, high):
    x, y = prescribed_bases(np.array(angles), 0, 0, 0)
    report = check_kernel_cokernel(OperatorAnalysis(ScaleOperator(with_kernel_pair(x, y, 0))))
    assert report.ker_dim == report.coker_dim == 2
    assert low <= report.subspace_angle <= high
    assert (report.subspace_angle <= KERNEL_ANGLE.tol) == (max(angles) < KERNEL_ANGLE.tol)


# the largest t at which the full-rank proof declines diag(t, 1), measured in
# the environment of tests/golden/environment.json
PROOF_FLIP = 1.1102230246251593e-15


def full_rank_proved(t):
    return hessian._full_rank_proved(OperatorAnalysis(ScaleOperator(np.diag([t, 1.0]))))


def proof_flip():
    """The largest t in [0, 1] at which the full-rank proof declines
    diag(t, 1), by bisection over the ordered bits of the positive doubles."""
    lo, hi = (np.float64(x).view(np.int64) for x in (0.0, 1.0))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if full_rank_proved(float(np.int64(mid).view(np.float64))) else (mid, hi)
    return float(np.int64(lo).view(np.float64))


@pytest.mark.parametrize("above, svd_uv", [(False, [True, False]), (True, [])], ids=["declined", "proved"])
def test_full_rank_proof_widening_control(monkeypatch, above, svd_uv):
    t0 = proof_flip()
    if EXACT:  # elsewhere the flip may move with the eigensolver's rounding
        assert t0 == PROOF_FLIP
    t = np.nextafter(t0, 1.0) if above else t0
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(kwargs.get("compute_uv", True))
                        or svd(*args, **kwargs))
    report = check_kernel_cokernel(OperatorAnalysis(ScaleOperator(np.diag([t, 1.0]))))
    assert (report.ker_dim, report.subspace_angle) == (0, 0.0)
    assert calls == svd_uv


SYMMETRY_CONTROL_FAILS = {"symmetry": (1.99e-10, 2.01e-10)}


def test_symmetry_control(tmp_path):
    a = kernel_control(True, asymmetry=2e-10)
    report = hessian_analyze(tmp_path, a, 1)
    assert report["halted_after"] == "symmetry" and not report["passed"]
    [certificate] = report["certificates"]
    [(name, (low, high))] = SYMMETRY_CONTROL_FAILS.items()
    assert certificate["name"] == name and not certificate["passed"]
    assert low <= certificate["defect"] <= high
    with pytest.raises(ValueError, match="not symmetric"):
        spectral_decompose(OperatorAnalysis(ScaleOperator(a)))


UNIT_SCALE_FAILS = {
    "resolvent-residual", "resolvent-normality", "resolvent-adjoint", "eigenvalue-resolvent-consistency",
    "fractal-certificate", "restriction-invariance", "pair-isometry",
}


@pytest.mark.parametrize(
    "top, code, failing", [(1.0, 0, set()), (1e9, 1, UNIT_SCALE_FAILS)], ids=["unperturbed", "ill-conditioned"]
)
def test_graph_equivalence_positivity_control(tmp_path, top, code, failing):
    unit = {"type": "diagonal", "weight": {"n": 4, "kind": "table", "values": [1, 1, 1, 1]}}
    report = hessian_analyze(tmp_path, {"n": 4, "kind": "conjugated_diagonal", "diag": [top, 1, 0.5, -2], "seed": 3,
                                        "scale": {"n": 4, "k_max": 1, "grades": [unit, unit]}}, code)
    certificates = {c["name"]: c for c in report["certificates"]}
    assert list(certificates) == [cert.name for cert in OPERATOR_CERTIFICATES]
    assert {name for name, c in certificates.items() if not c["passed"]} == failing
    constants = report["constants"]
    assert certificates["graph-equivalence-positivity"]["defect"] == 0.0
    if failing:
        assert 2.6e-8 <= certificates["resolvent-residual"]["defect"] <= 2.8e-8
        assert 0.0 < constants["graph_equivalence"]["c_lo"] <= 5e-16
        assert abs(constants["graph_equivalence"]["c_hi"] - 0.8) <= 1e-7
        [regularity] = constants["regularity"]
        assert abs(regularity - 0.8**0.5) <= 1e-7
    else:
        assert constants["graph_equivalence"] == pytest.approx({"c_lo": 0.2, "c_hi": 0.8}, rel=1e-14)
        assert constants["regularity"] == pytest.approx([0.8**0.5], rel=1e-14)


POSITIVITY_CONTROL_FAILS = {"graph-equivalence-positivity"}


@pytest.mark.parametrize("g, code, failing", [(1.0, 0, set()), (0.1, 1, POSITIVITY_CONTROL_FAILS)],
                         ids=["unperturbed", "overflowed"])
def test_graph_equivalence_positivity_overflow_control(tmp_path, g, code, failing):
    def grade(value):
        return {"type": "diagonal", "weight": {"n": 2, "kind": "table", "values": [value, value]}}

    scale = {"n": 2, "k_max": 2, "grades": [grade(1), grade(g), grade(1e308)]}
    report = hessian_analyze(tmp_path, {"n": 2, "matrix": [[1, 1], [1, -1]], "scale": scale}, code)
    certificates = {c["name"]: c for c in report["certificates"]}
    assert list(certificates) == [cert.name for cert in OPERATOR_CERTIFICATES]
    assert {name for name, c in certificates.items() if not c["passed"]} == failing
    positivity, constants = certificates["graph-equivalence-positivity"]["defect"], report["constants"]
    c = g / 3  # grade 0's pencil: g I against I + Gamma^2 = 3 I
    assert constants["graph_equivalence"] == pytest.approx({"c_lo": c, "c_hi": c}, rel=1e-14)
    if failing:
        assert positivity is None  # inf, written as null
        assert constants["regularity"] == [pytest.approx(c**0.5, rel=1e-14), None]
    else:
        assert positivity == 0.0
        assert constants["regularity"] == pytest.approx([c**0.5, (1e308 / (3 * g)) ** 0.5], rel=1e-13)


def goe_analysis(gammas=None, vectors=None, perturbation=None):
    """The flip record's n = 24 GOE operator at k_max 3, its eigenpairs
    optionally replaced by a cache patch behind a passed symmetry gate, or its
    resolvent B by B + E, ||E||_F = 1e-7 ||B||_F, E = ``perturbation()``
    rescaled."""
    b = np.random.default_rng(5).standard_normal((24, 24))
    an = OperatorAnalysis(ScaleOperator((b + b.T) / (2.0 * np.sqrt(24))), 3)
    d = spectral_decompose(an)
    if gammas is not None or vectors is not None:
        an.spectral = SpectralData(d.gammas if gammas is None else gammas(d.gammas.copy()),
                                   d.vectors if vectors is None else vectors(d.vectors.copy()))
    if perturbation is not None:
        b, e = an.resolvent, perturbation()
        an.resolvent = b + e * (1e-7 * linalg.frobenius(b) / linalg.frobenius(e))
    return an


def shift_gamma_5(g):
    g[19] += 1e-6
    return g


def rotate_v3_v4(v):
    c, s = np.cos(1e-6), np.sin(1e-6)
    v[:, [20, 13]] = v[:, [20, 13]] @ np.array([[c, -s], [s, c]])
    return v


def symmetric_e():
    c = np.random.default_rng(11).standard_normal((24, 24))
    return c + c.T


def nonsymmetric_e():
    rng = np.random.default_rng(11)
    rng.standard_normal((24, 24))
    return rng.standard_normal((24, 24))


# control -> (unperturbed analysis, perturbed analysis, every failing entry -> defect bounds)
REROUTED_CONTROLS = {
    "gamma-5-shift": (goe_analysis, lambda: goe_analysis(gammas=shift_gamma_5), {
        "eigenvalue-resolvent-consistency": (5.0e-7, 5.2e-7), "spectral-reconstruction": (2.8e-7, 3.0e-7),
        "fractal-certificate": (2.9e-6, 3.1e-6), "restriction-invariance": (1.9e-6, 2.0e-6),
        "pair-isometry": (9.9e-7, 1.01e-6)}),
    "v3-v4-rotation": (goe_analysis, lambda: goe_analysis(vectors=rotate_v3_v4), {
        "spectral-reconstruction": (7.1e-7, 7.3e-7), "fractal-certificate": (1.9e-6, 2.0e-6),
        "restriction-invariance": (2.6e-6, 2.8e-6), "pair-isometry": (7.6e-7, 7.9e-7)}),
    "b-symmetric": (goe_analysis, lambda: goe_analysis(perturbation=symmetric_e), {
        "resolvent-residual": (5.19e-7, 5.22e-7), "resolvent-normality": (1.35e-8, 1.37e-8),
        "eigenvalue-resolvent-consistency": (5.3e-8, 5.4e-8)}),
    "b-nonsymmetric": (goe_analysis, lambda: goe_analysis(perturbation=nonsymmetric_e), {
        "resolvent-residual": (5.17e-7, 5.2e-7), "resolvent-normality": (1.9e-8, 1.92e-8),
        "resolvent-adjoint": (1.41e-7, 1.43e-7), "eigenvalue-resolvent-consistency": (3.6e-8, 3.7e-8)}),
    "ill-conditioned": (lambda: OperatorAnalysis(conjugated_diagonal([1.0, 1.0, 0.5, -2.0], seed=3), 3),
                        lambda: OperatorAnalysis(conjugated_diagonal([1e9, 1.0, 0.5, -2.0], seed=3), 3), {
        "resolvent-residual": (2.6e-8, 2.8e-8), "resolvent-normality": (2.9e-9, 3.1e-9),
        "resolvent-adjoint": (1.1e-8, 1.2e-8), "eigenvalue-resolvent-consistency": (3.4e-8, 3.7e-8),
        "fractal-certificate": (1e15, 1e40), "restriction-invariance": (10.0, 100.0),
        "pair-isometry": (10.0, 200.0)}),
}
# the entries whose defects the eigenbasis pass and the resolvent compute -> their controls
REROUTED = {
    "resolvent-residual": ["ill-conditioned", "b-symmetric", "b-nonsymmetric"],
    "resolvent-normality": ["b-symmetric", "b-nonsymmetric"],
    "resolvent-adjoint": ["b-nonsymmetric"],
    "eigenvalue-resolvent-consistency": ["gamma-5-shift", "b-symmetric"],
    "spectral-reconstruction": ["gamma-5-shift", "v3-v4-rotation"],
    "fractal-certificate": ["gamma-5-shift", "v3-v4-rotation"],
    "restriction-invariance": ["gamma-5-shift", "v3-v4-rotation"],
    "pair-isometry": ["gamma-5-shift", "v3-v4-rotation"],
}


def registry_defects(an):
    return {cert.name: (cert.defect(an), cert.tol) for cert in OPERATOR_CERTIFICATES}


@pytest.mark.parametrize("name", REROUTED)
def test_rerouted_entry_control(name):
    for control in REROUTED[name]:
        unperturbed, perturbed, failing = REROUTED_CONTROLS[control]
        assert all(defect <= tol for defect, tol in registry_defects(unperturbed()).values())
        defects = registry_defects(perturbed())
        assert {entry for entry, (defect, tol) in defects.items() if not defect <= tol} == set(failing)
        for entry, (low, high) in failing.items():
            assert low <= defects[entry][0] <= high, (control, entry)


def test_every_registry_entry_has_a_control():
    # each entry is failed by name by at least one control of this module
    controlled = set(SYMMETRY_CONTROL_FAILS) | set(KERNEL_CONTROL_FAILS) | POSITIVITY_CONTROL_FAILS | set(REROUTED)
    assert {cert.name for cert in OPERATOR_CERTIFICATES} <= controlled
