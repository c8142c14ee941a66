import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from scalehilbert import linalg
from scalehilbert.hessian import (
    DEFAULT_RESOLVENT_POINT,
    OperatorAnalysis,
    ScaleOperator,
    SpectralData,
    SpectrumError,
    build_fractal_structure,
    check_kernel_cokernel,
    check_symmetry,
    conjugated_diagonal,
    graph_equivalence_constants,
    graph_ladder,
    normality_defect,
    operator_from_json,
    pair_isometry_certificate,
    regularity_constant,
    resolvent,
    resolvent_consistency,
    restriction_invariance,
    spectral_decompose,
)
from scalehilbert.sobolev_circle import build_sobolev_space
from scalehilbert.spaces import (
    GramGrade,
    TruncatedScaleSpace,
    gram_matrix,
    weighted_sequence_space,
)
from scalehilbert.verify import standard_operator_set
from scalehilbert.weights import Weight

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])


def random_symmetric(rng, n):
    b = rng.standard_normal((n, n))
    return (b + b.T) / 2


class TestScaleOperator:
    def test_accepts_square_real(self):
        op = ScaleOperator(np.diag([1.0, 2.0]))
        assert op.n == 2
        assert op.scale is None

    def test_matrix_is_read_only(self):
        op = ScaleOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            ScaleOperator(np.ones((2, 3)))
        with pytest.raises(ValueError):
            ScaleOperator(np.array([[1.0, np.inf], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            ScaleOperator(np.eye(2, dtype=complex) * 1j)

    def test_rejects_scale_dimension_mismatch(self):
        scale = weighted_sequence_space(Weight(np.zeros(3)), 1)
        with pytest.raises(ValueError):
            ScaleOperator(np.eye(2), scale)


class TestSymmetry:
    def test_diagonal_passes_with_zero_defect(self):
        report = check_symmetry(ScaleOperator(np.diag([3.0, 1.0, 2.0])))
        assert report.defect == 0.0
        assert report.passed

    def test_nilpotent_scores_exactly_one(self):
        report = check_symmetry(ScaleOperator(NILPOTENT))
        assert report.defect == 1.0
        assert not report.passed

    def test_conjugated_diagonal_is_numerically_symmetric(self):
        op = conjugated_diagonal(np.arange(1.0, 9.0), seed=3)
        assert check_symmetry(op).defect < 1e-14

    def test_zero_matrix(self):
        assert check_symmetry(ScaleOperator(np.zeros((3, 3)))).defect == 0.0

    def test_antisymmetric_scores_exactly_one(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        report = check_symmetry(ScaleOperator(a))
        assert report.defect == 1.0
        assert not report.passed

    def test_defect_is_the_plain_ratio_up_to_one_and_capped_beyond(self):
        rng = np.random.default_rng(5)
        for eps in (1e-12, 1e-3, 0.5, 0.99):
            s = rng.standard_normal((6, 6))
            a = s + s.T + eps * (s - s.T)
            plain = np.linalg.norm(a - a.T) / np.linalg.norm(a + a.T)
            assert plain <= 1.0
            assert check_symmetry(ScaleOperator(a)).defect == plain
        # mostly antisymmetric: ||A - A^T|| = 3 ||A + A^T||
        report = check_symmetry(ScaleOperator(np.array([[0.0, 1.0], [-0.5, 0.0]])))
        assert report.defect == 1.0

    def test_huge_diagonal_is_symmetric_without_overflow(self):
        # ||A + A^T||_F overflows as a plain sum of squares; with the
        # suite's error::RuntimeWarning filter an overflow warning fails here
        report = check_symmetry(ScaleOperator(np.diag([0.0, 1e200])))
        assert report.defect == 0.0
        assert report.passed

    def test_defect_is_the_linalg_defect(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal((5, 5))
        for a in (NILPOTENT, np.zeros((2, 2)), s, s + s.T + 1e-11 * s, [[0.0, 1e200], [0.0, 1e200]]):
            op = ScaleOperator(np.array(a))
            assert check_symmetry(op).defect == linalg.symmetry_defect(op.matrix)

    def test_huge_asymmetric_defect_is_measured(self):
        # ||A - A^T|| / ||A + A^T|| = sqrt(2) / sqrt(6), not inf / inf
        report = check_symmetry(ScaleOperator(np.array([[0.0, 1e200], [0.0, 1e200]])))
        assert report.defect == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-15)
        assert not report.passed


class TestKernelCokernel:
    def test_singular_diagonal(self):
        report = check_kernel_cokernel(ScaleOperator(np.diag([0.0, 1.0, 2.0])))
        assert report.ker_dim == 1
        assert report.coker_dim == 1
        assert report.index == 0
        assert report.subspace_angle < 1e-12

    def test_invertible_diagonal(self):
        report = check_kernel_cokernel(ScaleOperator(np.diag([1.0, 2.0, 3.0])))
        assert report.ker_dim == 0 and report.coker_dim == 0
        assert report.subspace_angle == 0.0

    def test_conjugated_rank_deficiency(self):
        op = conjugated_diagonal([0.0, 0.0, 1.0, 5.0], seed=11)
        report = check_kernel_cokernel(op)
        assert report.ker_dim == 2
        assert report.coker_dim == 2
        assert report.subspace_angle < 1e-10

    def test_zero_matrix_is_all_kernel(self):
        report = check_kernel_cokernel(ScaleOperator(np.zeros((4, 4))))
        assert report.ker_dim == 4 and report.coker_dim == 4
        assert report.subspace_angle == 0.0

    def test_nilpotent_has_orthogonal_kernel_and_corange(self):
        # kernel e1, range e1: dims agree but the subspaces are far apart,
        # which is exactly what the angle is there to detect
        report = check_kernel_cokernel(ScaleOperator(NILPOTENT))
        assert report.ker_dim == 1 and report.coker_dim == 1
        assert report.subspace_angle == pytest.approx(np.pi / 2, rel=1e-12)

    @staticmethod
    def full_svd_reference(a):
        """(ker_dim, angle) from one vector SVD, angles by scipy."""
        u, s, vt = np.linalg.svd(a)
        rank = int(np.sum(s > a.shape[0] * linalg.EPS * s[0]))
        if rank == a.shape[0]:
            return 0, 0.0
        return a.shape[0] - rank, float(np.max(scipy.linalg.subspace_angles(vt[rank:].T, u[:, rank:])))

    @staticmethod
    def dense_kinds(n=64, seed=512):
        """GOE-like, rank-deficient, clustered (width 1e-11) and GOE-like."""
        rng = np.random.default_rng(seed)
        goe = [random_symmetric(rng, n) / np.sqrt(n) for _ in range(2)]
        live = n - int(rng.integers(1, n // 4 + 1))
        deficient = np.zeros(n)
        deficient[n - live:] = rng.uniform(0.5, 2.0, live) * rng.choice([-1.0, 1.0], live)
        clustered = np.array([-1.75, -0.6, 0.8, 1.9])[rng.integers(0, 4, n)] + 1e-11 * rng.standard_normal(n)
        return [goe[0], conjugated_diagonal(deficient, 1).matrix, conjugated_diagonal(clustered, 2).matrix, goe[1]]

    def test_matches_the_full_svd(self):
        matrices = [op.matrix for op in standard_operator_set(1729)] + self.dense_kinds()
        ker_dims = []
        for a in matrices:
            report = check_kernel_cokernel(ScaleOperator(a))
            ker_dim, angle = self.full_svd_reference(a)
            assert report.ker_dim == report.coker_dim == ker_dim
            assert abs(report.subspace_angle - angle) <= 1e-14
            ker_dims.append(ker_dim)
        assert sum(k > 0 for k in ker_dims) == 26

    def test_values_only_rank_decision_at_the_cutoff(self):
        n = 6
        cutoff = n * linalg.EPS
        op = ScaleOperator(np.diag([1.0, 0.5, 0.25, 10 * cutoff, 0.1 * cutoff, 0.0]))
        report = check_kernel_cokernel(op)
        assert report.ker_dim == self.full_svd_reference(op.matrix)[0] == 2
        assert report.subspace_angle == 0.0


class TestGraphLadder:
    def test_graph_gram_of_diagonal(self):
        assert np.array_equal(graph_ladder(np.diag([1.0, 2.0]), 1)[1], np.diag([2.0, 5.0]))

    def test_ladder_starts_at_identity(self):
        grams = graph_ladder(np.diag([1.0, 2.0]), 2)
        assert np.array_equal(grams[0], np.eye(2))
        assert np.array_equal(grams[1], np.diag([2.0, 5.0]))
        assert grams[2] == pytest.approx(np.diag([4.0, 25.0]), rel=1e-15)

    def test_non_symmetric_ladder_transports_through_a(self):
        # A = e1 e2^T: A^T G A = G_11 e2 e2^T, while A G A^T would be G_22 e1 e1^T
        grams = graph_ladder(NILPOTENT, 3)
        assert [np.diag(g).tolist() for g in grams] == [[1.0, 1.0], [1.0, 2.0], [1.0, 3.0], [1.0, 4.0]]
        assert all(g[0, 1] == g[1, 0] == 0.0 for g in grams)

    def test_ladder_grams_are_spd_and_growing(self):
        rng = np.random.default_rng(21)
        a = random_symmetric(rng, 10)
        grams = graph_ladder(a, 4)
        assert len(grams) == 5
        for lo, hi in zip(grams, grams[1:]):
            assert np.array_equal(hi, hi.T)
            evals = np.linalg.eigvalsh(hi - lo)
            assert evals.min() >= -1e-12 * np.abs(evals).max()

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            graph_ladder(np.eye(2), -1)

    # the graph form <x, y> + <Ax, Ay> is x^T graph_ladder(A, 1)[1] y
    def test_graph_inner_product_values(self):
        gram = graph_ladder(np.diag([1.0, 2.0]), 1)[1]
        e1, e2 = np.eye(2)
        assert e2 @ gram @ e2 == 5.0
        assert e1 @ gram @ e2 == 0.0
        assert e1 @ gram @ e1 == 2.0

    def test_graph_inner_product_matches_gram(self):
        rng = np.random.default_rng(8)
        a = random_symmetric(rng, 6)
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        gram = graph_ladder(a, 1)[1]
        assert x @ y + (a @ x) @ (a @ y) == pytest.approx(x @ gram @ y, rel=1e-12)

    def test_graph_inner_product_dimension_check(self):
        with pytest.raises(ValueError, match="must be square"):
            graph_ladder(np.ones((2, 3)), 1)


class TestRegularity:
    def test_graph_default_constant_is_one(self):
        op = ScaleOperator(np.diag([1.0, 3.0, 0.5]))
        for k in (0, 1, 2):
            assert regularity_constant(op, k) == 1.0

    def test_zero_operator_flat_scale(self):
        scale = weighted_sequence_space(Weight(np.zeros(3)), 2)
        op = ScaleOperator(np.zeros((3, 3)), scale)
        assert regularity_constant(op, 1) == pytest.approx(1.0, rel=1e-10)

    def test_identity_operator_flat_scale(self):
        scale = weighted_sequence_space(Weight(np.zeros(3)), 2)
        op = ScaleOperator(np.eye(3), scale)
        assert regularity_constant(op, 0) == pytest.approx(2.0**-0.5, rel=1e-10)

    def test_random_graph_default_within_slack(self):
        rng = np.random.default_rng(17)
        op = ScaleOperator(random_symmetric(rng, 12))
        assert regularity_constant(op, 2) == 1.0

    def test_missing_grade_raises(self):
        scale = weighted_sequence_space(Weight(np.zeros(3)), 1)
        op = ScaleOperator(np.eye(3), scale)
        with pytest.raises(IndexError):
            regularity_constant(op, 1)
        with pytest.raises(IndexError):
            regularity_constant(op, -1)


class TestGraphEquivalence:
    def test_graph_default_constants_are_one(self):
        op = ScaleOperator(np.diag([0.0, 1.0, 4.0]))
        assert graph_equivalence_constants(op) == (1.0, 1.0, 1.0)

    def test_scaled_grade_one(self):
        a = np.diag([1.0, 2.0])
        g1 = 3.0 * (np.eye(2) + a.T @ a)
        scale = TruncatedScaleSpace(2, (GramGrade(np.eye(2)), GramGrade(g1)))
        c_lo, c_hi, _ = graph_equivalence_constants(ScaleOperator(a, scale))
        assert (c_lo, c_hi) == pytest.approx((3.0, 3.0), rel=1e-12)

    def test_random_operator_sanity(self):
        rng = np.random.default_rng(29)
        op = ScaleOperator(random_symmetric(rng, 9))
        assert graph_equivalence_constants(op) == (1.0, 1.0, 1.0)


class TestShiftedFloerHessian:
    """J d/dt + s on the circle with the Sobolev ladder as explicit scale.

    In the Fourier basis of ``build_sobolev_space`` it is diagonal:
    lambda = s on the constant, s + 2 pi m on the sine and s - 2 pi m on
    the cosine of frequency m. With w_k = sum_{j <= k} (2 pi m)^(2j) the
    grade-k weight, every constant is a per-index ratio of diagonals.
    """

    S, NU_MAX, K_MAX = 0.5, 9, 3

    def fixture(self):
        nu = np.arange(1, self.NU_MAX + 1)
        freq = 2.0 * np.pi * (nu // 2)
        lam = np.where(nu % 2 == 0, self.S + freq, self.S - freq)
        w = np.cumsum(freq[:, None] ** (2.0 * np.arange(self.K_MAX + 1)), axis=1)
        op = ScaleOperator(np.diag(lam), build_sobolev_space(self.NU_MAX, self.K_MAX))
        return op, lam, w

    def test_graph_equivalence_closed_form(self):
        op, lam, w = self.fixture()
        ratio = w[:, 1] / (1.0 + lam**2)
        c_lo, c_hi, c_step1 = graph_equivalence_constants(op)
        assert c_lo == pytest.approx(ratio.min(), rel=1e-12)
        assert c_hi == pytest.approx(ratio.max(), rel=1e-12)
        assert c_step1 == pytest.approx(np.sqrt(ratio.max()), rel=1e-12)
        assert (c_lo, c_hi, c_step1) == pytest.approx(
            (0.8, 1.175152986489625, 1.084044734542641), rel=1e-12
        )

    def test_regularity_closed_form(self):
        op, lam, w = self.fixture()
        pinned = (1.084044734542641, 1.0709055066400917, 1.070579071480327)
        for n, value in enumerate(pinned):
            closed = np.sqrt(np.max(w[:, n + 1] / (w[:, n] * (1.0 + lam**2))))
            assert regularity_constant(op, n) == pytest.approx(closed, rel=1e-12)
            assert regularity_constant(op, n) == pytest.approx(value, rel=1e-12)


class TestResolvent:
    def test_diagonal_inverse(self):
        d = np.array([3.0, 1.0, 2.0])
        r = resolvent(ScaleOperator(np.diag(d)))
        expected = np.diag(1.0 / (d - 1j))
        assert r.b_matrix == pytest.approx(expected, rel=1e-14)
        assert r.point == 1j
        assert r.residual < 1e-14

    def test_zero_operator(self):
        r = resolvent(ScaleOperator(np.zeros((3, 3))))
        assert r.b_matrix == pytest.approx(1j * np.eye(3), abs=1e-15)

    def test_random_residual(self):
        rng = np.random.default_rng(31)
        op = ScaleOperator(random_symmetric(rng, 50))
        assert resolvent(op).residual < 1e-10

    def test_rejects_real_point_by_default(self):
        op = ScaleOperator(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match="off the real axis"):
            resolvent(op, 0.5)

    # a real non-symmetric operator can have the default point i as an eigenvalue
    ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])

    def test_point_on_spectrum_raises(self):
        # the rotation has eigenvalues +-i: the solve meets an exact zero pivot
        with pytest.raises(SpectrumError):
            resolvent(ScaleOperator(self.ROTATION))

    def test_point_within_roundoff_of_spectrum_raises(self):
        # conjugated, the solve succeeds, but kappa_1 = ||A - iI||_1 ||B||_1 is ~2e17
        s = np.array([[2.0, 0.7], [0.1, 1.0]])
        with pytest.raises(SpectrumError, match="on spectrum"):
            resolvent(ScaleOperator(s @ self.ROTATION @ np.linalg.inv(s)))

    def test_condition_guard_rejects_huge_range(self):
        # n eps kappa_1 = 2 eps 1e200 >= 1 even at the imaginary unit
        with pytest.raises(SpectrumError):
            resolvent(ScaleOperator(np.diag([0.0, 1e200])))

    def test_default_point(self):
        assert DEFAULT_RESOLVENT_POINT == 1j


class TestNormality:
    def test_diagonal_resolvent_is_normal(self):
        r = resolvent(ScaleOperator(np.diag([1.0, 2.0, 3.0])))
        commutator, adjoint = normality_defect(r)
        assert commutator < 1e-14
        assert adjoint < 1e-14

    def test_large_random_symmetric(self):
        rng = np.random.default_rng(37)
        r = resolvent(ScaleOperator(random_symmetric(rng, 100)))
        commutator, adjoint = normality_defect(r)
        assert commutator < 1e-10
        assert adjoint < 1e-10

    def test_nilpotent_control_fails_loudly(self):
        # B = [[i, 1], [0, i]] gives ||B*B - BB*|| = sqrt(2), ||B||^2 = 3
        # and ||B^T - B|| = sqrt(2)
        r = resolvent(ScaleOperator(NILPOTENT))
        commutator, adjoint = normality_defect(r)
        assert commutator == pytest.approx(np.sqrt(2.0) / 3.0, rel=1e-12)
        assert commutator > 1e-2
        assert adjoint == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)

    def test_adjoint_matches_the_conjugate_point_solve(self):
        # a real operator's resolvent at conj(z) is conj(B): the adjoint
        # defect equals ||B* - (A - conj(z) I)^-1|| / ||B|| without the solve
        a = np.random.default_rng(53).standard_normal((20, 20))
        r = resolvent(ScaleOperator(a))
        b_conj = np.linalg.solve(a + 1j * np.eye(20), np.eye(20, dtype=complex))
        expected = linalg.frobenius(r.b_matrix.conj().T - b_conj) / linalg.frobenius(r.b_matrix)
        assert expected > 1e-2
        assert normality_defect(r)[1] == pytest.approx(expected, rel=1e-12)


class TestSpectralDecompose:
    def test_diagonal_in_coordinate_order(self):
        data = spectral_decompose(ScaleOperator(np.diag([3.0, 1.0, 2.0])))
        assert np.array_equal(data.gammas, [3.0, 1.0, 2.0])
        assert np.array_equal(data.vectors, np.eye(3))
        assert np.array_equal(data.order, [1, 2, 0])
        assert np.array_equal(data.sorted_gammas(), [1.0, 2.0, 3.0])
        assert np.array_equal(data.sorted_vectors(), np.eye(3)[:, [1, 2, 0]])

    def test_zero_operator(self):
        data = spectral_decompose(ScaleOperator(np.zeros((3, 3))))
        assert np.array_equal(data.gammas, np.zeros(3))
        assert np.array_equal(data.vectors, np.eye(3))
        assert np.array_equal(data.order, [0, 1, 2])

    def test_negative_eigenvalue_ordering(self):
        data = spectral_decompose(ScaleOperator(np.diag([1.0, -1.0])))
        assert np.array_equal(data.gammas, [1.0, -1.0])
        # |gamma| ties break toward the signed value
        assert np.array_equal(data.order, [1, 0])
        assert np.array_equal(data.sorted_gammas(), [-1.0, 1.0])

    def test_recovers_conjugated_spectrum(self):
        d = np.array([-4.0, 0.5, 0.5, 2.0, 9.0])
        op = conjugated_diagonal(d, seed=5)
        data = spectral_decompose(op)
        assert np.sort(data.gammas) == pytest.approx(np.sort(d), rel=1e-12)
        assert data.vectors.T @ data.vectors == pytest.approx(np.eye(5), abs=1e-13)
        recon = data.vectors @ np.diag(data.gammas) @ data.vectors.T
        assert recon == pytest.approx(np.asarray(op.matrix), abs=1e-12)

    def test_sign_convention(self):
        data = spectral_decompose(conjugated_diagonal(np.arange(1.0, 7.0), seed=2))
        dominant = np.argmax(np.abs(data.vectors), axis=0)
        assert np.all(data.vectors[dominant, np.arange(6)] > 0)

    def test_deterministic_presentation(self):
        op = conjugated_diagonal(np.array([2.0, -2.0, 1.0, 7.0]), seed=19)
        d1 = spectral_decompose(op)
        d2 = spectral_decompose(op)
        assert np.array_equal(d1.gammas, d2.gammas)
        assert np.array_equal(d1.vectors, d2.vectors)
        assert np.array_equal(d1.order, d2.order)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            spectral_decompose(ScaleOperator(NILPOTENT))

    def test_scaling_covariance_power_of_two(self):
        rng = np.random.default_rng(41)
        a = random_symmetric(rng, 15)
        base = spectral_decompose(ScaleOperator(a))
        doubled = spectral_decompose(ScaleOperator(2.0 * a))
        assert np.array_equal(doubled.sorted_gammas(), 2.0 * base.sorted_gammas())
        assert np.array_equal(doubled.order, base.order)

    def test_scaling_covariance_general_factor(self):
        rng = np.random.default_rng(43)
        a = random_symmetric(rng, 15)
        base = spectral_decompose(ScaleOperator(a))
        tripled = spectral_decompose(ScaleOperator(3.0 * a))
        assert tripled.sorted_gammas() == pytest.approx(3.0 * base.sorted_gammas(), rel=1e-12)
        assert np.array_equal(tripled.order, base.order)


class TestResolventConsistency:
    def test_diagonal_is_tight(self):
        op = ScaleOperator(np.diag([3.0, 1.0, 2.0]))
        data = spectral_decompose(op)
        assert resolvent_consistency(op, data) < 1e-14

    def test_random_within_certificate_tolerance(self):
        op = conjugated_diagonal(np.linspace(-3.0, 3.0, 40), seed=23)
        data = spectral_decompose(op)
        assert resolvent_consistency(op, data) < 1e-8

    def test_custom_point(self):
        # the resolvent at another off-axis point carries the same spectrum
        op = ScaleOperator(np.diag([1.0, 2.0]))
        data = spectral_decompose(op)
        assert self.eig_oracle(resolvent(op, 2j).b_matrix, data, point=2j) < 1e-14

    @staticmethod
    def eig_oracle(b, data, point=DEFAULT_RESOLVENT_POINT):
        """Largest relative mismatch between gamma and 1/mu + point, with
        mu from a nonsymmetric eigensolve of B matched to the eigenpairs
        by maximal eigenvector overlap (an assignment problem)."""
        mu, u = np.linalg.eig(b)
        _, cols = linear_sum_assignment(-np.abs(data.vectors.T @ u))
        dev = np.abs(data.gammas - (1.0 / mu[cols] + point)) / (1.0 + np.abs(data.gammas))
        return float(dev.max())

    def test_matches_the_eig_oracle_on_the_standard_batch(self):
        # Unperturbed, both are rounding noise; with every gamma shifted
        # by 1e-9 (1 + |gamma|) the defect is the oracle's deviation.
        rng = np.random.default_rng(5)
        for op in standard_operator_set():
            an = OperatorAnalysis(op)
            data = spectral_decompose(an)
            b = an.resolvent.b_matrix
            assert an.consistency < 1e-13
            assert self.eig_oracle(b, data) < 1e-13
            noise = 1e-9 * (1.0 + np.abs(data.gammas)) * rng.uniform(-1.0, 1.0, data.gammas.size)
            shifted = SpectralData(data.gammas + noise, data.vectors, data.order)
            assert resolvent_consistency(an, shifted) == pytest.approx(
                self.eig_oracle(b, shifted), rel=1e-4
            )

    @pytest.mark.parametrize("scale", [1e5, 1e7])
    def test_wide_spectrum_passes_with_the_eig_oracle(self, scale):
        # Roundoff here is eps ||A||: a bound that weights every pair's
        # residual by the largest |gamma| (eps ||A||^2) fails from about
        # 1e4, and per-pair residuals without the Rayleigh split fail
        # seed 7 at 1e7.
        for seed in range(20):
            an = OperatorAnalysis(conjugated_diagonal(np.array([scale, 1.0, 0.5, -2.0]), seed=seed))
            data = spectral_decompose(an)
            assert self.eig_oracle(an.resolvent.b_matrix, data) < 1e-8
            assert an.consistency < 1e-8

    @staticmethod
    def perturbed_control():
        op = conjugated_diagonal(np.linspace(-3.0, 3.0, 40), seed=23)
        return op, spectral_decompose(op)

    def test_shifted_eigenvalue_fails(self):
        op, data = self.perturbed_control()
        gammas = data.gammas.copy()
        gammas[5] += 1e-6
        shifted = SpectralData(gammas, data.vectors, data.order)
        defect = resolvent_consistency(op, shifted)
        oracle = self.eig_oracle(OperatorAnalysis(op).resolvent.b_matrix, shifted)
        assert defect == pytest.approx(oracle, rel=1e-5)
        assert defect == pytest.approx(3.1e-7, rel=0.01)

    def test_swapped_eigenvectors_fail(self):
        op, data = self.perturbed_control()
        vectors = data.vectors.copy()
        vectors[:, [3, 4]] = vectors[:, [4, 3]]
        swapped = SpectralData(data.gammas, vectors, data.order)
        defect = resolvent_consistency(op, swapped)
        assert defect == pytest.approx(0.40, rel=0.01)
        assert defect >= self.eig_oracle(OperatorAnalysis(op).resolvent.b_matrix, swapped)


class TestOperatorJson:
    def test_dense_roundtrip(self):
        rng = np.random.default_rng(47)
        op = ScaleOperator(random_symmetric(rng, 4))
        back = operator_from_json({"n": 4, "kind": "dense", "matrix": op.matrix.tolist(), "scale": "graph_default"})
        assert np.array_equal(back.matrix, op.matrix)
        assert back.scale is None

    def test_roundtrip_with_explicit_scale(self):
        table = {"n": 3, "kind": "table", "values": [1.0, 2.0, 3.0]}
        scale = {"n": 3, "k_max": 1, "grades": [{"type": "gram", "matrix": np.eye(3).tolist()},
                                                  {"type": "diagonal", "weight": table}]}
        back = operator_from_json({"n": 3, "kind": "dense", "matrix": np.eye(3).tolist(), "scale": scale})
        assert back.scale is not None
        assert back.scale.k_max == 1
        assert gram_matrix(back.scale, 1) == pytest.approx(np.diag([1.0, 2.0, 3.0]), rel=1e-14)

    def test_diagonal_kind(self):
        op = operator_from_json({"n": 3, "kind": "diagonal", "diag": [3.0, 1.0, 2.0]})
        assert np.array_equal(op.matrix, np.diag([3.0, 1.0, 2.0]))

    def test_conjugated_kind_is_deterministic(self):
        obj = {"n": 4, "kind": "conjugated_diagonal", "diag": [1.0, 2.0, 3.0, 4.0], "seed": 7}
        op1 = operator_from_json(obj)
        op2 = operator_from_json(obj)
        assert np.array_equal(op1.matrix, op2.matrix)
        assert check_symmetry(op1).defect < 1e-14
        assert np.sort(np.linalg.eigvalsh(op1.matrix)) == pytest.approx(
            [1.0, 2.0, 3.0, 4.0], rel=1e-12
        )

    def test_integral_float_counts_are_integers(self):
        # a JSON integer is a number with no fractional part, so 4.0 reads as 4
        obj = {"n": 4, "kind": "conjugated_diagonal", "diag": [1.0, 2.0, 3.0, 4.0], "seed": 7}
        op = operator_from_json({**obj, "n": 4.0, "seed": 7.0})
        assert np.array_equal(op.matrix, operator_from_json(obj).matrix)

    def test_default_kind_is_dense(self):
        op = operator_from_json({"n": 2, "matrix": [[1.0, 0.0], [0.0, 2.0]]})
        assert np.array_equal(op.matrix, np.diag([1.0, 2.0]))

    def test_rejects_bad_payloads(self):
        with pytest.raises(ValueError):
            operator_from_json({"n": 2, "kind": "sparse", "matrix": [[1.0]]})
        with pytest.raises(ValueError):
            operator_from_json({"n": 3, "kind": "dense", "matrix": [[1.0, 0.0], [0.0, 1.0]]})
        with pytest.raises(ValueError):
            operator_from_json(
                {"n": 3, "kind": "conjugated_diagonal", "diag": [1.0, 2.0], "seed": 1}
            )

    def test_scale_roundtrips_through_operator(self):
        scale = weighted_sequence_space(Weight(np.log([1.0, 4.0])), 2)
        grades = [{"type": "diagonal", "weight": {"n": 2, "kind": "table", "values": [1.0, 4.0**k]}} for k in range(3)]
        obj = {"n": 2, "kind": "diagonal", "diag": [0.0, 0.0], "scale": {"n": 2, "k_max": 2, "grades": grades}}
        back = operator_from_json(obj).scale
        assert back.k_max == 2
        for k in range(3):
            assert gram_matrix(back, k) == pytest.approx(gram_matrix(scale, k), rel=1e-14)


PARITY_SPECTRA = {
    "rank_deficient": [0.0, 0.0, 0.0, -1.5, 0.7, 2.0, 1.2, -0.4, 3.0, 0.9, -2.2, 1.1, 0.6, -0.8],
    "clustered": [-1.75, -1.75 + 2e-11, -1.75 - 1e-11, 0.8, 0.8 + 1e-11, 0.8 - 3e-11, 0.8 + 2e-11,
                  1.9, 1.9 - 1e-11, -0.6, -0.6 + 1e-11, -0.6 - 2e-11],
}


class TestOperatorAnalysis:
    @staticmethod
    def shared_defects(matrix):
        """Every certificate defect, all reading one analysis (CLI order)."""
        an = OperatorAnalysis(ScaleOperator(matrix))
        return {
            "kernel": an.kernel,
            "resolvent_residual": an.resolvent.residual,
            "normality": normality_defect(an.resolvent),
            "gammas": spectral_decompose(an).gammas.tolist(),
            "consistency": an.consistency,
            "reconstruction": an.relative_reconstruction,
            "fractal": build_fractal_structure(an, 3).deviations,
            "restriction": restriction_invariance(an),
            "pair": pair_isometry_certificate(an),
            "graph_equivalence": graph_equivalence_constants(an),
            "regularity": regularity_constant(an, 0),
        }

    @staticmethod
    def standalone_defects(matrix):
        """The same defects, each from its own fresh ScaleOperator."""

        def fresh():
            return ScaleOperator(matrix)

        op = fresh()
        data = spectral_decompose(op)
        recon = linalg.frobenius(
            op.matrix - data.vectors @ np.diag(data.gammas) @ data.vectors.T
        ) / max(linalg.frobenius(op.matrix), np.finfo(float).tiny)
        return {
            "kernel": check_kernel_cokernel(fresh()),
            "resolvent_residual": resolvent(fresh()).residual,
            "normality": normality_defect(resolvent(fresh())),
            "gammas": data.gammas.tolist(),
            "consistency": resolvent_consistency(op, data),
            "reconstruction": recon,
            "fractal": build_fractal_structure(fresh(), 3).deviations,
            "restriction": restriction_invariance(fresh()),
            "pair": pair_isometry_certificate(fresh()),
            "graph_equivalence": graph_equivalence_constants(fresh()),
            "regularity": regularity_constant(fresh(), 0),
        }

    @pytest.mark.parametrize("kind", sorted(PARITY_SPECTRA))
    def test_shared_analysis_is_bitwise_standalone(self, kind):
        matrix = conjugated_diagonal(PARITY_SPECTRA[kind], seed=31).matrix
        shared = self.shared_defects(matrix)
        assert shared == self.standalone_defects(matrix)
        if kind == "rank_deficient":
            assert shared["kernel"].ker_dim == 3

    def test_of_reuses_an_analysis(self):
        an = OperatorAnalysis(ScaleOperator(np.eye(2)))
        assert OperatorAnalysis.of(an) is an
        assert OperatorAnalysis.of(an.op) is not an

    def test_factorizations_are_computed_once(self):
        an = OperatorAnalysis(conjugated_diagonal([1.0, -2.0, 3.0], seed=4))
        assert an.spectral is an.spectral
        assert an.resolvent is an.resolvent
        top = an.ladder(3)
        assert an.ladder(1)[1] is top[1]

    def test_cached_grams_are_read_only(self):
        an = OperatorAnalysis(ScaleOperator(np.diag([1.0, 2.0])))
        with pytest.raises(ValueError):
            an.ladder(1)[1][0, 0] = 0.0
        with pytest.raises(ValueError):
            an.ladder(2)[2][0, 0] = 0.0

    def test_non_symmetric_still_rejected(self):
        an = OperatorAnalysis(ScaleOperator(NILPOTENT))
        with pytest.raises(ValueError, match="not symmetric"):
            spectral_decompose(an)
        with pytest.raises(ValueError, match="not symmetric"):
            restriction_invariance(an)
        with pytest.raises(ValueError, match="not symmetric"):
            graph_equivalence_constants(an)
