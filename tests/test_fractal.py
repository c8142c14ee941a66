import numpy as np
import pytest

from scalehilbert.hessian import (
    OperatorAnalysis,
    ScaleOperator,
    _rescale,
    build_fractal_structure,
    conjugated_diagonal,
    fractal_weight,
    graph_ladder,
    pair_isometry_certificate,
    restriction_invariance,
    spectral_decompose,
)
from scalehilbert.sobolev_circle import FourierBasisSpec, fourier_gram_closed_form
from scalehilbert.spaces import (
    GramGrade,
    TruncatedScaleSpace,
    gram_matrix,
    is_scale_isometric,
    weighted_sequence_space,
)
from scalehilbert.verify import FRACTAL
from scalehilbert.weights import validate_weight, weight_power


def decompose_diag(d):
    return spectral_decompose(ScaleOperator(np.diag(np.asarray(d, dtype=float))))


class TestFractalWeight:
    def test_zero_eigenvalue_gives_unit_weight(self):
        fw = fractal_weight(decompose_diag([0.0]))
        assert fw.values() == pytest.approx([1.0])

    def test_mixed_spectrum(self):
        data = decompose_diag([3.0, -1.0, 2.0])
        fw = fractal_weight(data)
        assert fw.values() == pytest.approx([2.0, 5.0, 10.0], rel=1e-14)
        assert np.array_equal(data.sorted_gammas(), [-1.0, 2.0, 3.0])

    def test_is_a_valid_weight(self):
        rng = np.random.default_rng(3)
        fw = fractal_weight(decompose_diag(rng.standard_normal(20)))
        assert validate_weight(fw).ok
        assert fw.values().min() >= 1.0

    def test_powers_compose_exactly(self):
        # doubling is exact, so (log f * 2) * 3 and log f * 6 round alike
        fw = fractal_weight(decompose_diag([1.0, 2.0, 3.0]))
        assert np.array_equal(
            weight_power(weight_power(fw, 2), 3).log_values,
            weight_power(fw, 6).log_values,
        )

    def test_derivative_operator_matches_sobolev_weight(self):
        # |d/dt| acts diagonally on the Fourier basis with gamma = 2 pi m,
        # so its fractal weight is the grade-1 Sobolev diagonal
        nu_max = 9
        spec = FourierBasisSpec(nu_max)
        gammas = np.array([2.0 * np.pi * spec.mode(nu)[0] for nu in range(1, nu_max + 1)])
        fw = fractal_weight(decompose_diag(gammas))
        expected = [fourier_gram_closed_form(nu, nu, 1) for nu in range(1, nu_max + 1)]
        assert fw.values() == pytest.approx(expected, rel=1e-14)

    def test_huge_eigenvalues_stay_finite_in_log_scale(self):
        # gamma^2 would overflow; the log stays finite (skip the resolvent
        # cross-check, which rightly balks at condition number 1e200)
        data = spectral_decompose(ScaleOperator(np.diag([0.0, 1e200])))
        fw = fractal_weight(data)
        assert np.isfinite(fw.log_values).all()
        assert fw.log_values[1] == pytest.approx(2 * np.log(1e200), rel=1e-15)
        assert validate_weight(fw).ok


class TestRescaledBasis:
    """The log-domain rescale of the eigenbasis pass: entry (i, j) of a
    grade-k Gram times (w_i w_j)^(-k/2)."""

    def test_grade_zero_is_plain_eigenbasis(self):
        data = decompose_diag([2.0, 1.0, 5.0])
        gram = data.sorted_vectors().T @ data.sorted_vectors()
        assert np.array_equal(_rescale(gram.copy(), fractal_weight(data).log_values, 0), gram)

    def test_zero_spectrum_never_rescales(self):
        data = decompose_diag([0.0, 0.0])
        gram = np.array([[1.0, 0.25], [0.25, 3.0]])
        for k in (0, 1, 5):
            assert np.array_equal(_rescale(gram.copy(), fractal_weight(data).log_values, k), gram)

    def test_columns_shrink_by_weight_power(self):
        d = np.array([1.0, 2.0, 3.0])
        data = decompose_diag(d)
        scaled = _rescale(np.ones((3, 3)), fractal_weight(data).log_values, 2)
        w = 1.0 + d * d
        assert scaled == pytest.approx(1.0 / np.outer(w, w), rel=1e-14)

    def test_rejects_negative_grade(self):
        with pytest.raises(ValueError, match="k_max must be >= 0"):
            OperatorAnalysis(ScaleOperator(np.diag([1.0])), -1)


def ladder_spaces(op, fs, k_max):
    """The scale spaces behind the fractal certificate: the graph ladder,
    the weighted model of the fractal weight and the map between them."""
    space = TruncatedScaleSpace(op.n, tuple(GramGrade(g) for g in graph_ladder(op.matrix, k_max)))
    target = weighted_sequence_space(fs.weight, k_max)
    return space, target, fs.spectral.sorted_vectors().T


class TestBuildFractalStructure:
    def test_zero_operator_is_exactly_flat(self):
        op = ScaleOperator(np.zeros((4, 4)))
        fs = build_fractal_structure(op, k_max=3)
        assert fs.deviations == (0.0,) * 4
        assert fs.weight.values() == pytest.approx(np.ones(4))
        space, _, _ = ladder_spaces(op, fs, 3)
        for k in range(4):
            assert np.array_equal(gram_matrix(space, k), np.eye(4))

    def test_diagonal_operator_ladder(self):
        g = np.array([1.0, 2.0, 3.0])
        op = ScaleOperator(np.diag(g))
        fs = build_fractal_structure(op, k_max=3)
        assert max(fs.deviations) <= FRACTAL.tol
        space, _, _ = ladder_spaces(op, fs, 3)
        for k in range(4):
            expected = np.diag((1.0 + g * g) ** k)
            assert gram_matrix(space, k) == pytest.approx(expected, rel=1e-13)

    def test_target_is_weighted_sequence_model(self):
        op = conjugated_diagonal([1.0, -2.0, 0.5], seed=9)
        fs = build_fractal_structure(op, k_max=2)
        _, target, _ = ladder_spaces(op, fs, 2)
        for k in range(3):
            expected = np.diag(fs.weight.values() ** k)
            assert gram_matrix(target, k) == pytest.approx(expected, rel=1e-13)

    def test_random_operator_certificate(self):
        rng = np.random.default_rng(51)
        b = rng.standard_normal((64, 64))
        op = ScaleOperator((b + b.T) / (2 * np.sqrt(64)))
        fs = build_fractal_structure(op, k_max=3)
        assert max(fs.deviations) <= FRACTAL.tol

    def test_mapping_is_scale_isometry(self):
        op = conjugated_diagonal(np.linspace(-2.0, 2.0, 12), seed=13)
        fs = build_fractal_structure(op, k_max=3)
        report = is_scale_isometric(*ladder_spaces(op, fs, 3), tol=1e-8)
        assert report.is_isometric

    def test_rejects_negative_k_max(self):
        with pytest.raises(ValueError):
            build_fractal_structure(ScaleOperator(np.eye(2)), k_max=-1)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            build_fractal_structure(ScaleOperator(np.array([[0.0, 1.0], [0.0, 0.0]])), 1)

    def test_shared_analysis_must_reach_k_max(self):
        an = OperatorAnalysis(ScaleOperator(np.diag([1.0, 2.0])), 2)
        assert len(build_fractal_structure(an, 2).deviations) == 3
        with pytest.raises(ValueError, match="k_max 3 exceeds the analysis's top grade 2"):
            build_fractal_structure(an, 3)


class TestRestrictionInvariance:
    def test_zero_operator_is_exact(self):
        assert restriction_invariance(ScaleOperator(np.zeros((3, 3)))) == 0.0

    def test_diagonal_operator(self):
        assert restriction_invariance(ScaleOperator(np.diag([1.0, 2.0, 3.0]))) < 1e-13

    def test_random_operator(self):
        op = conjugated_diagonal(np.linspace(-1.0, 4.0, 20), seed=29)
        assert restriction_invariance(op) < 1e-10


class TestPairIsometry:
    def test_diagonal_is_exact(self):
        assert pair_isometry_certificate(ScaleOperator(np.diag([3.0, 1.0, 2.0]))) == 0.0

    def test_eigenbasis_graph_gram_is_the_weight(self):
        op = ScaleOperator(np.diag([1.0, 2.0]))
        data = spectral_decompose(op)
        vs = data.sorted_vectors()
        assert np.array_equal(vs.T @ graph_ladder(op.matrix, 1)[1] @ vs, np.diag([2.0, 5.0]))

    def test_random_operator(self):
        op = conjugated_diagonal(np.linspace(0.0, 3.0, 24), seed=31)
        assert pair_isometry_certificate(op) < 1e-10


class TestInvariances:
    def test_fractal_weight_is_conjugation_invariant(self):
        d = np.array([0.5, -1.5, 2.0, 4.0])
        fw_diag = fractal_weight(decompose_diag(d))
        fw_conj = fractal_weight(spectral_decompose(conjugated_diagonal(d, seed=37)))
        assert fw_conj.values() == pytest.approx(fw_diag.values(), rel=1e-10)

    def test_doubling_scales_spectrum_exactly(self):
        rng = np.random.default_rng(53)
        b = rng.standard_normal((10, 10))
        a = (b + b.T) / 2
        data, data2 = spectral_decompose(ScaleOperator(a)), spectral_decompose(ScaleOperator(2.0 * a))
        fw, fw2 = fractal_weight(data), fractal_weight(data2)
        assert np.array_equal(data2.sorted_gammas(), 2.0 * data.sorted_gammas())
        assert np.expm1(fw2.log_values) == pytest.approx(
            4.0 * np.expm1(fw.log_values), rel=1e-14
        )

    def test_seed_changes_conjugation_not_weight(self):
        d = np.linspace(-1.0, 1.0, 8)
        fw_a = fractal_weight(spectral_decompose(conjugated_diagonal(d, seed=1)))
        fw_b = fractal_weight(spectral_decompose(conjugated_diagonal(d, seed=2)))
        assert fw_a.values() == pytest.approx(fw_b.values(), rel=1e-10)
