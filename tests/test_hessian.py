import tracemalloc
import warnings
from fractions import Fraction

import exact
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from scalehilbert import hessian, linalg, verify
from scalehilbert.hessian import (
    DEFAULT_RESOLVENT_POINT,
    KernelReport,
    OperatorAnalysis,
    ScaleOperator,
    SpectralData,
    SpectrumError,
    build_fractal_structure,
    check_kernel_cokernel,
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
    DiagonalGrade,
    GramGrade,
    TruncatedScaleSpace,
    equivalence_constants,
    gram_matrix,
    weighted_sequence_space,
)
from scalehilbert.verify import FRACTAL, OPERATOR_CERTIFICATES, SYMMETRY, standard_operator_set
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
        with pytest.raises(ValueError, match="nonempty"):
            ScaleOperator(np.zeros((0, 0)))

    def test_rejects_scale_dimension_mismatch(self):
        scale = weighted_sequence_space(Weight(np.zeros(3)), 1)
        with pytest.raises(ValueError):
            ScaleOperator(np.eye(2), scale)

    def test_rejects_scale_without_grade_one(self):
        with pytest.raises(ValueError, match=r"^scale\.k_max: an operator's scale needs grades 0 and 1"):
            ScaleOperator(np.eye(2), weighted_sequence_space(Weight(np.zeros(2)), 0))

    @pytest.mark.parametrize(
        "grade0",
        [DiagonalGrade(Weight(np.log([1.0, 100.0]))), DiagonalGrade(Weight(np.array([0.0, 2.0**-1074]))),
         GramGrade(np.diag([1.0, 100.0])), GramGrade(np.diag([1.0, 1.0 + 2.0**-52])), GramGrade([[1.0, 0.5], [0.5, 1.0]])],
        ids=["diagonal", "diagonal-subnormal-log", "gram", "gram-one-ulp", "gram-off-diagonal"],
    )
    def test_grade_zero_must_be_exactly_the_identity(self, grade0):
        # the matrix is written in grade-0 coordinates; there is no tolerance
        grade1 = DiagonalGrade(Weight(np.log([2.0, 200.0])))
        with pytest.raises(ValueError, match=r"^scale\.grades\[0\]: expected the identity"):
            ScaleOperator(np.array([[1.0, 1.0], [1.0, -1.0]]), TruncatedScaleSpace(2, (grade0, grade1)))

    @pytest.mark.parametrize("grade0", [DiagonalGrade(Weight(np.array([0.0, -0.0]))), GramGrade(np.eye(2))],
                             ids=["diagonal", "gram"])
    def test_identity_grade_zero_is_accepted(self, grade0):
        scale = TruncatedScaleSpace(2, (grade0, DiagonalGrade(Weight(np.log([2.0, 200.0])))))
        assert ScaleOperator(np.eye(2), scale).scale is scale


class TestSymmetry:
    """``linalg.symmetry_defect`` is the symmetry gate of
    :func:`spectral_decompose` and the ``symmetry`` certificate."""

    def test_diagonal_passes_with_zero_defect(self):
        op = ScaleOperator(np.diag([3.0, 1.0, 2.0]))
        assert linalg.symmetry_defect(op.matrix) == 0.0
        spectral_decompose(OperatorAnalysis(op))

    def test_nilpotent_scores_exactly_one(self):
        assert linalg.symmetry_defect(NILPOTENT) == 1.0
        with pytest.raises(ValueError, match="defect 1.000e[+]00 exceeds tol 1.000e-10"):
            spectral_decompose(OperatorAnalysis(ScaleOperator(NILPOTENT)))

    def test_conjugated_diagonal_is_numerically_symmetric(self):
        op = conjugated_diagonal(np.arange(1.0, 9.0), seed=3)
        assert linalg.symmetry_defect(op.matrix) < 1e-14

    def test_zero_matrix(self):
        assert linalg.symmetry_defect(np.zeros((3, 3))) == 0.0

    def test_antisymmetric_scores_exactly_one(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert linalg.symmetry_defect(a) == 1.0
        with pytest.raises(ValueError, match="not symmetric"):
            spectral_decompose(OperatorAnalysis(ScaleOperator(a)))

    def test_defect_is_the_plain_ratio_up_to_one_and_capped_beyond(self):
        rng = np.random.default_rng(5)
        for eps in (1e-12, 1e-3, 0.5, 0.99):
            s = rng.standard_normal((6, 6))
            a = s + s.T + eps * (s - s.T)
            plain = np.linalg.norm(a - a.T) / np.linalg.norm(a + a.T)
            assert plain <= 1.0
            assert linalg.symmetry_defect(a) == plain
        # mostly antisymmetric: ||A - A^T|| = 3 ||A + A^T||
        assert linalg.symmetry_defect(np.array([[0.0, 1.0], [-0.5, 0.0]])) == 1.0

    def test_huge_diagonal_is_symmetric_without_overflow(self):
        # ||A + A^T||_F overflows as a plain sum of squares; with the
        # suite's error::RuntimeWarning filter an overflow warning fails here
        op = ScaleOperator(np.diag([0.0, 1e200]))
        assert linalg.symmetry_defect(op.matrix) == 0.0
        spectral_decompose(OperatorAnalysis(op))

    @pytest.mark.parametrize(
        "a, defect",
        [(np.diag([1.0, 1.7e308]), 0.0), (np.array([[0.0, 1.7e308], [-1.7e308, 0.0]]), 1.0)],
        ids=["diagonal", "antisymmetric"],
    )
    def test_entries_near_the_double_max_are_measured_without_overflow(self, a, defect):
        # A +- A^T overflows in the add itself; the defect is then read on A / max|A|
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.symmetry_defect(a) == defect

    def test_defect_is_the_linalg_defect(self):
        # the symmetry certificate reports the gate's defect unchanged
        rng = np.random.default_rng(7)
        s = rng.standard_normal((5, 5))
        for a in (NILPOTENT, np.zeros((2, 2)), s, s + s.T + 1e-11 * s, [[0.0, 1e200], [0.0, 1e200]]):
            op = ScaleOperator(np.array(a))
            assert SYMMETRY.defect(OperatorAnalysis(op)) == linalg.symmetry_defect(op.matrix)

    def test_huge_asymmetric_defect_is_measured(self):
        # ||A - A^T|| / ||A + A^T|| = sqrt(2) / sqrt(6), not inf / inf
        a = np.array([[0.0, 1e200], [0.0, 1e200]])
        assert linalg.symmetry_defect(a) == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-15)
        with pytest.raises(ValueError, match="defect 5.774e-01 exceeds"):
            spectral_decompose(OperatorAnalysis(ScaleOperator(a)))


class TestKernelCokernel:
    def test_singular_diagonal(self):
        report = check_kernel_cokernel(OperatorAnalysis(ScaleOperator(np.diag([0.0, 1.0, 2.0]))))
        assert report.ker_dim == 1
        assert report.coker_dim == 1
        assert report.subspace_angle < 1e-12

    def test_invertible_diagonal(self):
        report = check_kernel_cokernel(OperatorAnalysis(ScaleOperator(np.diag([1.0, 2.0, 3.0]))))
        assert report.ker_dim == 0 and report.coker_dim == 0
        assert report.subspace_angle == 0.0

    def test_conjugated_rank_deficiency(self):
        op = conjugated_diagonal([0.0, 0.0, 1.0, 5.0], seed=11)
        report = check_kernel_cokernel(OperatorAnalysis(op))
        assert report.ker_dim == 2
        assert report.coker_dim == 2
        assert report.subspace_angle < 1e-10

    def test_zero_matrix_is_all_kernel(self):
        report = check_kernel_cokernel(OperatorAnalysis(ScaleOperator(np.zeros((4, 4)))))
        assert report.ker_dim == 4 and report.coker_dim == 4
        assert report.subspace_angle == 0.0

    def test_nilpotent_has_orthogonal_kernel_and_corange(self):
        # kernel e1, range e1: dims agree but the subspaces are far apart,
        # which is exactly what the angle is there to detect
        report = check_kernel_cokernel(OperatorAnalysis(ScaleOperator(NILPOTENT)))
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
            report = check_kernel_cokernel(OperatorAnalysis(ScaleOperator(a)))
            ker_dim, angle = self.full_svd_reference(a)
            assert report.ker_dim == report.coker_dim == ker_dim
            assert abs(report.subspace_angle - angle) <= 1e-14
            ker_dims.append(ker_dim)
        assert sum(k > 0 for k in ker_dims) == 26

    def test_values_only_rank_decision_at_the_cutoff(self):
        # a zero defeats the full-rank proof, so the rank comes from the
        # kernel entry's one SVD, with vectors, cut at n eps sigma_1: the
        # value 10 cutoffs up counts, the one at 0.1 cutoff does not
        n = 6
        cutoff = n * linalg.EPS
        op = ScaleOperator(np.diag([1.0, 0.5, 0.25, 10 * cutoff, 0.1 * cutoff, 0.0]))
        report = check_kernel_cokernel(OperatorAnalysis(op))
        assert report.ker_dim == self.full_svd_reference(op.matrix)[0] == 2
        assert report.subspace_angle == 0.0


    @staticmethod
    @st.composite
    def kernel_inputs(draw):
        """A conjugated spectrum of dimension n <= 48: magnitudes log-uniform
        within 0 to 18 decades below a top of 10^-300..10^300, with zeros,
        clusters and values at f * n * eps times the top, f log-uniform in
        0.1..1e4 (around the rank cutoff and the proof's widening of it),
        random signs, a seeded orthogonal conjugation and, on a flag, a skew
        part at relative asymmetry 3e-11."""
        n = draw(st.integers(1, 48))
        top, decades = 10.0 ** draw(st.floats(-300, 300)), draw(st.floats(0, 18))
        entries = []
        for i in range(n):
            kind = draw(st.sampled_from(["spread"] * 5 + ["zero", "cluster", "cutoff"]) if i else st.just("spread"))
            if kind == "spread":
                entries.append(top * 10.0 ** -draw(st.floats(0, decades)) if i else top)
            elif kind == "zero":
                entries.append(0.0)
            elif kind == "cluster":
                entries.append(entries[draw(st.integers(0, i - 1))] * (1.0 + 1e-11 * draw(st.floats(-1, 1))))
            else:
                entries.append(top * n * linalg.EPS * 10.0 ** draw(st.floats(-1, 4)))
        d = np.array(entries) * np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        q = linalg.random_orthogonal(n, rng)
        a = linalg.sym_part(q.T @ np.diag(d) @ q)
        if draw(st.booleans()) and n > 1:
            c = rng.standard_normal((n, n))
            part = (c - c.T) / 2.0
            a = a + part * (3e-11 * linalg.frobenius(a) / linalg.frobenius(part))
        return a

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(a=kernel_inputs())
    def test_full_rank_proof_implies_the_svd_rank(self, a):
        # whenever the proof certifies full rank, an SVD of A finds it
        # too: its smallest singular value is above the rank cutoff
        an = OperatorAnalysis(ScaleOperator(a))
        if hessian._full_rank_proved(an):
            s = np.linalg.svd(a, compute_uv=False)
            assert s[-1] > a.shape[0] * linalg.EPS * s[0]
            assert check_kernel_cokernel(an) == KernelReport(0, 0, 0.0)

    @pytest.mark.parametrize("n, smallest", [(24, 1e-14), (48, 10 * 48 * linalg.EPS)], ids=["1e-14", "ten-cutoffs"])
    def test_inconclusive_proof_leaves_the_rank_to_the_svd(self, n, smallest):
        # full rank, with the smallest |d| above the cutoff n eps (top 1) but
        # within the proof's rounding widening, of order n^2 eps / 2, so the
        # SVD decides
        d = np.linspace(0.5, 1.0, n)
        d[7] = smallest
        op = conjugated_diagonal(d, seed=5)
        an = OperatorAnalysis(op)
        assert not hessian._full_rank_proved(an)
        s = np.linalg.svd(op.matrix, compute_uv=False)
        assert s[-1] > n * linalg.EPS * s[0]
        assert check_kernel_cokernel(an) == KernelReport(0, 0, 0.0)
        assert self.full_svd_reference(op.matrix) == (0, 0.0)


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
        an = OperatorAnalysis(ScaleOperator(np.diag([1.0, 3.0, 0.5])), k_max=3)
        for k in (0, 1, 2):
            assert regularity_constant(an, k) == 1.0

    def test_zero_operator_flat_scale(self):
        scale = weighted_sequence_space(Weight(np.zeros(3)), 2)
        op = ScaleOperator(np.zeros((3, 3)), scale)
        assert regularity_constant(OperatorAnalysis(op), 1) == pytest.approx(1.0, rel=1e-10)

    def test_identity_operator_flat_scale(self):
        scale = weighted_sequence_space(Weight(np.zeros(3)), 2)
        op = ScaleOperator(np.eye(3), scale)
        assert regularity_constant(OperatorAnalysis(op), 0) == pytest.approx(2.0**-0.5, rel=1e-10)

    def test_random_graph_default_within_slack(self):
        rng = np.random.default_rng(17)
        op = ScaleOperator(random_symmetric(rng, 12))
        assert regularity_constant(OperatorAnalysis(op, k_max=3), 2) == 1.0

    def test_missing_grade_raises(self):
        # grades 0..max(k_max, 1) - 1 exist, under an explicit scale and the graph default alike
        scale = weighted_sequence_space(Weight(np.zeros(3)), 2)
        for an, top in [(OperatorAnalysis(ScaleOperator(np.eye(3), scale), k_max=1), 1),
                        (OperatorAnalysis(ScaleOperator(np.eye(3), scale)), 2),
                        (OperatorAnalysis(ScaleOperator(np.eye(3))), 1),
                        (OperatorAnalysis(ScaleOperator(np.eye(3)), k_max=3), 3)]:
            regularity_constant(an, top - 1)
            with pytest.raises(IndexError):
                regularity_constant(an, top)
            with pytest.raises(IndexError):
                regularity_constant(an, -1)


class TestGraphEquivalence:
    def test_graph_default_constants_are_one(self):
        op = ScaleOperator(np.diag([0.0, 1.0, 4.0]))
        assert graph_equivalence_constants(OperatorAnalysis(op)) == (1.0, 1.0)

    def test_scaled_grade_one(self):
        a = np.diag([1.0, 2.0])
        g1 = 3.0 * (np.eye(2) + a.T @ a)
        scale = TruncatedScaleSpace(2, (GramGrade(np.eye(2)), GramGrade(g1)))
        c_lo, c_hi = graph_equivalence_constants(OperatorAnalysis(ScaleOperator(a, scale)))
        assert (c_lo, c_hi) == pytest.approx((3.0, 3.0), rel=1e-12)

    def test_random_operator_sanity(self):
        rng = np.random.default_rng(29)
        op = ScaleOperator(random_symmetric(rng, 9))
        assert graph_equivalence_constants(OperatorAnalysis(op)) == (1.0, 1.0)


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
        c_lo, c_hi = graph_equivalence_constants(OperatorAnalysis(op))
        assert c_lo == pytest.approx(ratio.min(), rel=1e-12)
        assert c_hi == pytest.approx(ratio.max(), rel=1e-12)
        assert (c_lo, c_hi) == pytest.approx((0.8, 1.175152986489625), rel=1e-12)

    def test_regularity_closed_form(self):
        op, lam, w = self.fixture()
        an = OperatorAnalysis(op)
        pinned = (1.084044734542641, 1.0709055066400917, 1.070579071480327)
        for n, value in enumerate(pinned):
            closed = np.sqrt(np.max(w[:, n + 1] / (w[:, n] * (1.0 + lam**2))))
            assert regularity_constant(an, n) == pytest.approx(closed, rel=1e-12)
            assert regularity_constant(an, n) == pytest.approx(value, rel=1e-12)

    def test_constants_match_the_exact_reference(self):
        # every grade's pencil against tests/exact.py's 50-digit solve of
        # G_{k+1} against G_k + A^T G_k A, within the diagonal case's 4 eps
        # (TestExactEquivalence)
        op, _, _ = self.fixture()
        an = OperatorAnalysis(op)
        for k in range(self.K_MAX):
            grades = [gram_matrix(op.scale, j) for j in (k, k + 1)]
            for got, want in zip(an.equivalence[k], exact.equivalence_extremes(op.matrix, *grades)):
                assert abs(got - want) <= 4 * linalg.EPS * want


class TestSmoothFloerHessian:
    """J d/dt + s + 2c cos(2 pi t) on the Sobolev ladder, s = 0.5, c = 0.15,
    in the basis that diagonalizes J d/dt: index nu carries the signed
    frequency f = 0, +m, -m at nu = 1, 2m, 2m + 1, with eigenvalue
    s + 2 pi f, and the grades of ``build_sobolev_space`` weigh nu by |f|
    alone. The multiplication by 2c cos(2 pi t) adds c at |f - g| = 1, so
    the operator is not diagonal and every constant comes from a
    generalized solve. The pins are measured; they are converged in nu_max."""

    S, C = 0.5, 0.15
    PINNED_EQUIVALENCE = (0.6979774391081233, 1.2430199638374926)
    PINNED_REGULARITY = (1.1149080517412602, 1.7010315327400842, 4.9265460101565015)

    def operator(self, nu_max):
        nu = np.arange(1, nu_max + 1)
        f = np.where(nu % 2 == 0, nu // 2, -(nu // 2))
        a = np.diag(self.S + 2.0 * np.pi * f) + self.C * (np.abs(np.subtract.outer(f, f)) == 1)
        return ScaleOperator(a, build_sobolev_space(nu_max, 3))

    @pytest.mark.parametrize("nu_max", [33, 129])
    def test_constants_are_pinned(self, nu_max):
        an = OperatorAnalysis(self.operator(nu_max))
        assert np.count_nonzero(an.op.matrix - np.diag(np.diagonal(an.op.matrix))) == 2 * (nu_max - 1)
        c_lo, c_hi = graph_equivalence_constants(an)
        assert (c_lo, c_hi) == pytest.approx(self.PINNED_EQUIVALENCE, rel=1e-12)
        regularity = [regularity_constant(an, k) for k in range(3)]
        assert regularity == pytest.approx(self.PINNED_REGULARITY, rel=1e-12)
        assert regularity[0] == np.sqrt(c_hi)  # the same solve, bit for bit


@st.composite
def diagonal_pencils(draw):
    """A diagonal A of dimension 1..6 (zeros and ties included) and the log
    tables of a diagonal scale of grades 0..K, K in 1..3, grade 0 the identity."""
    n, top = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    a = draw(st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, 1.0, -1.0]), min_size=n, max_size=n))
    weights = [draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)) for _ in range(top)]
    return np.array(a), [np.zeros(n), *np.log(weights)]


class TestExactEquivalence:
    """The explicit-scale constants against exact references.

    The unit-scale inputs conjugated_diagonal([t, 1, 0.5, -2], seed) on the
    diagonal scale of grades 0 and 1 (both the identity) have the graph
    equivalence 1 / (1 + sigma^2) over the singular values of A, so
    c_hi = 1 / (1 + 0.5^2) = 0.8 and c_lo = 1 / (1 + max(t, 2)^2) up to the
    rounding of the double A; tests/exact.py solves the pencil of that double
    A at 50 digits. Over seeds 0-19 the computed c_hi lies within 3.3e-16,
    9.2e-13, 1.2e-10, 1.2e-8 and 7.2e-8 of the exact value at t = 1, 1e4, 1e6,
    1e8 and 1e9, about eps t / 3: what is left is eigh's backward error on the
    eigenvalue 0.5, as the form M + Gamma M Gamma holds no power of A. c_lo
    lies within 3.9e-16.

    For a diagonal A on a diagonal scale V is a permutation, so M_k is the
    diagonal of grade k and each constant is an extreme of the ratios
    w_{k+1} / (w_k (1 + gamma^2)). Counting roundings to first order (three
    in the form, two each through the Cholesky square root and the inverse,
    two in the reduced product) bounds the error by 9 u = 4.5 eps relative;
    the largest measured over 6000 random constants is 2.3 eps, and the
    property pins 4 eps.
    """

    SCALE = weighted_sequence_space(Weight(np.zeros(4)), 1)

    @pytest.mark.parametrize("t", [1.0, 1e4, 1e6, 1e8, 1e9])
    def test_unit_scale_constants_match_the_exact_reference(self, t):
        closed_lo = 1.0 / (1.0 + max(t, 2.0) ** 2)
        for seed in range(20):
            a = conjugated_diagonal([t, 1.0, 0.5, -2.0], seed=seed).matrix
            c_lo, c_hi = graph_equivalence_constants(OperatorAnalysis(ScaleOperator(a, self.SCALE)))
            exact_lo, exact_hi = map(float, exact.equivalence_extremes(a, np.eye(4), np.eye(4)))
            assert abs(c_hi - 0.8) <= 1e-7 and abs(c_hi - exact_hi) <= 1e-7, seed
            assert abs(c_lo - closed_lo) <= 5e-16 and abs(c_lo - exact_lo) <= 5e-16, seed

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(pencil=diagonal_pencils())
    def test_diagonal_constants_are_the_ratio_extremes(self, pencil):
        a, logs = pencil
        scale = TruncatedScaleSpace(len(a), tuple(DiagonalGrade(Weight(lv)) for lv in logs))
        an = OperatorAnalysis(ScaleOperator(np.diag(a), scale))
        v = spectral_decompose(an).vectors
        assert set(v.flat) <= {0.0, 1.0} and np.array_equal(v.T @ v, np.eye(len(a)))  # a permutation
        for k in range(scale.k_max):
            w, w_next = (grade.weight.values() for grade in scale.grades[k : k + 2])
            ratios = [Fraction(hi) / (Fraction(lo) * (1 + Fraction(g) ** 2)) for lo, hi, g in zip(w, w_next, a)]
            for got, want in zip(an.equivalence[k], (min(ratios), max(ratios))):
                assert abs(Fraction(got) - want) <= 4 * Fraction(linalg.EPS) * want


class TestResolvent:
    def test_diagonal_inverse(self):
        d = np.array([3.0, 1.0, 2.0])
        an = OperatorAnalysis(ScaleOperator(np.diag(d)))
        expected = np.diag(1.0 / (d - 1j))
        assert an.resolvent == pytest.approx(expected, rel=1e-14)
        assert an.resolvent_residual < 1e-14

    def test_zero_operator(self):
        b = resolvent(ScaleOperator(np.zeros((3, 3))))
        assert b == pytest.approx(1j * np.eye(3), abs=1e-15)

    def test_returns_the_read_only_inverse(self):
        b = resolvent(ScaleOperator(np.diag([1.0, 2.0])))
        assert isinstance(b, np.ndarray) and b.dtype == complex and not b.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            b[0, 0] = 0.0

    def test_random_residual(self):
        rng = np.random.default_rng(31)
        op = ScaleOperator(random_symmetric(rng, 50))
        assert OperatorAnalysis(op).resolvent_residual < 1e-10

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
        b = resolvent(ScaleOperator(a))
        b_conj = np.linalg.solve(a + 1j * np.eye(20), np.eye(20, dtype=complex))
        expected = linalg.frobenius(b.conj().T - b_conj) / linalg.frobenius(b)
        assert expected > 1e-2
        assert normality_defect(b)[1] == pytest.approx(expected, rel=1e-12)


class TestSpectralDecompose:
    def test_diagonal_in_coordinate_order(self):
        # a diagonal matrix decomposes into the standard basis, each column
        # the coordinate of its eigenvalue, listed by |gamma|
        data = spectral_decompose(OperatorAnalysis(ScaleOperator(np.diag([3.0, 1.0, 2.0]))))
        assert np.array_equal(data.gammas, [1.0, 2.0, 3.0])
        assert np.array_equal(data.vectors, np.eye(3)[:, [1, 2, 0]])

    def test_zero_operator(self):
        # every |gamma| and signed value ties, so eigh's position decides
        data = spectral_decompose(OperatorAnalysis(ScaleOperator(np.zeros((3, 3)))))
        assert np.array_equal(data.gammas, np.zeros(3))
        assert np.array_equal(data.vectors, np.eye(3))

    def test_negative_eigenvalue_ordering(self):
        data = spectral_decompose(OperatorAnalysis(ScaleOperator(np.diag([1.0, -1.0, 0.5, -2.0, 2.0]))))
        # |gamma| ties break toward the signed value
        assert np.array_equal(data.gammas, [0.5, -1.0, 1.0, -2.0, 2.0])
        assert np.array_equal(data.vectors, np.eye(5)[:, [2, 1, 0, 3, 4]])

    def test_recovers_conjugated_spectrum(self):
        d = np.array([-4.0, 0.5, 0.5, 2.0, 9.0])
        op = conjugated_diagonal(d, seed=5)
        data = spectral_decompose(OperatorAnalysis(op))
        assert np.sort(data.gammas) == pytest.approx(np.sort(d), rel=1e-12)
        assert data.vectors.T @ data.vectors == pytest.approx(np.eye(5), abs=1e-13)
        recon = data.vectors @ np.diag(data.gammas) @ data.vectors.T
        assert recon == pytest.approx(np.asarray(op.matrix), abs=1e-12)

    def test_sign_convention(self):
        # the largest-magnitude entry of each column is positive; where two
        # entries tie in magnitude (the swap's eigenvectors) the first is
        data = spectral_decompose(OperatorAnalysis(conjugated_diagonal(np.arange(1.0, 7.0), seed=2)))
        dominant = np.argmax(np.abs(data.vectors), axis=0)
        assert np.all(data.vectors[dominant, np.arange(6)] > 0)
        swap = spectral_decompose(OperatorAnalysis(ScaleOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))))
        assert np.array_equal(swap.gammas, [-1.0, 1.0])
        assert swap.vectors == pytest.approx(np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0), rel=1e-15)

    def test_deterministic_presentation(self):
        # the one order, nondecreasing computed |gamma|, bit for bit on
        # repeated analyses (the computed 2 and -2 differ in the last bits)
        op = conjugated_diagonal(np.array([2.0, -2.0, 1.0, 7.0]), seed=19)
        d1 = spectral_decompose(OperatorAnalysis(op))
        d2 = spectral_decompose(OperatorAnalysis(op))
        assert np.array_equal(d1.gammas, d2.gammas)
        assert np.array_equal(d1.vectors, d2.vectors)
        assert np.abs(d1.gammas) == pytest.approx([1.0, 2.0, 2.0, 7.0], rel=1e-12)
        assert np.all(np.diff(np.abs(d1.gammas)) >= 0)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            spectral_decompose(OperatorAnalysis(ScaleOperator(NILPOTENT)))

    def test_scaling_covariance_power_of_two(self):
        rng = np.random.default_rng(41)
        a = random_symmetric(rng, 15)
        base = spectral_decompose(OperatorAnalysis(ScaleOperator(a)))
        doubled = spectral_decompose(OperatorAnalysis(ScaleOperator(2.0 * a)))
        assert np.array_equal(doubled.gammas, 2.0 * base.gammas)
        assert np.array_equal(doubled.vectors, base.vectors)

    def test_scaling_covariance_general_factor(self):
        rng = np.random.default_rng(43)
        a = random_symmetric(rng, 15)
        base = spectral_decompose(OperatorAnalysis(ScaleOperator(a)))
        tripled = spectral_decompose(OperatorAnalysis(ScaleOperator(3.0 * a)))
        assert tripled.gammas == pytest.approx(3.0 * base.gammas, rel=1e-12)
        assert np.all(np.diff(np.abs(tripled.gammas)) >= 0)


class TestResolventConsistency:
    def test_diagonal_is_tight(self):
        op = ScaleOperator(np.diag([3.0, 1.0, 2.0]))
        assert resolvent_consistency(OperatorAnalysis(op)) < 1e-14

    def test_random_within_certificate_tolerance(self):
        op = conjugated_diagonal(np.linspace(-3.0, 3.0, 40), seed=23)
        assert resolvent_consistency(OperatorAnalysis(op)) < 1e-8

    def test_reads_the_gated_pairs(self):
        with pytest.raises(ValueError, match="not symmetric"):
            resolvent_consistency(OperatorAnalysis(ScaleOperator(NILPOTENT)))

    @staticmethod
    def patched(an, data):
        """``an`` with its eigenpairs replaced by ``data``, behind a passed gate."""
        spectral_decompose(an)
        an.spectral = data
        return an

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
            b = an.resolvent
            assert an.consistency < 1e-13
            assert self.eig_oracle(b, data) < 1e-13
            noise = 1e-9 * (1.0 + np.abs(data.gammas)) * rng.uniform(-1.0, 1.0, data.gammas.size)
            shifted = SpectralData(data.gammas + noise, data.vectors)
            assert resolvent_consistency(self.patched(an, shifted)) == pytest.approx(
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
            assert self.eig_oracle(an.resolvent, data) < 1e-8
            assert an.consistency < 1e-8

    @staticmethod
    def perturbed_control():
        op = conjugated_diagonal(np.linspace(-3.0, 3.0, 40), seed=23)
        return op, spectral_decompose(OperatorAnalysis(op))

    def test_shifted_eigenvalue_fails(self):
        op, data = self.perturbed_control()
        gammas = data.gammas.copy()
        gammas[29] += 1e-6  # gamma = 2.2308
        shifted = SpectralData(gammas, data.vectors)
        defect = resolvent_consistency(self.patched(OperatorAnalysis(op), shifted))
        oracle = self.eig_oracle(OperatorAnalysis(op).resolvent, shifted)
        assert defect == pytest.approx(oracle, rel=1e-5)
        assert defect == pytest.approx(3.1e-7, rel=0.01)

    def test_swapped_eigenvectors_fail(self):
        op, data = self.perturbed_control()
        vectors = data.vectors.copy()
        vectors[:, [30, 18]] = vectors[:, [18, 30]]  # gamma = -2.3846 and -1.4615
        swapped = SpectralData(data.gammas, vectors)
        defect = resolvent_consistency(self.patched(OperatorAnalysis(op), swapped))
        assert defect == pytest.approx(0.40, rel=0.01)
        assert defect >= self.eig_oracle(OperatorAnalysis(op).resolvent, swapped)


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
        assert linalg.symmetry_defect(op1.matrix) < 1e-14
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
        an = OperatorAnalysis(ScaleOperator(matrix), 3)
        return {
            "kernel": an.kernel,
            "resolvent_residual": an.resolvent_residual,
            "normality": normality_defect(an.resolvent),
            "gammas": spectral_decompose(an).gammas.tolist(),
            "consistency": an.consistency,
            "reconstruction": an.relative_reconstruction,
            "fractal": build_fractal_structure(an),
            "restriction": restriction_invariance(an),
            "pair": pair_isometry_certificate(an),
            "graph_equivalence": graph_equivalence_constants(an),
            "regularity": regularity_constant(an, 0),
        }

    @staticmethod
    def standalone_defects(matrix):
        """The same defects, each from a fresh analysis of its own."""

        def fresh():
            return OperatorAnalysis(ScaleOperator(matrix), 3)

        data = spectral_decompose(fresh())
        recon = linalg.frobenius(
            matrix - data.vectors @ np.diag(data.gammas) @ data.vectors.T
        ) / max(linalg.frobenius(matrix), np.finfo(float).tiny)
        return {
            "kernel": check_kernel_cokernel(fresh()),
            "resolvent_residual": fresh().resolvent_residual,
            "normality": normality_defect(resolvent(fresh().op)),
            "gammas": data.gammas.tolist(),
            "consistency": resolvent_consistency(fresh()),
            "reconstruction": recon,
            "fractal": build_fractal_structure(fresh()),
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

    def test_factorizations_are_computed_once(self):
        an = OperatorAnalysis(conjugated_diagonal([1.0, -2.0, 3.0], seed=4), 3)
        assert an.spectral is an.spectral
        assert an.resolvent is an.resolvent
        ladder = an.eigenbasis_pass
        restriction_invariance(an), pair_isometry_certificate(an)
        assert len(build_fractal_structure(an)) == 4
        assert an.eigenbasis_pass is ladder and len(ladder.deviations) == 4

    def test_graph_default_forms_no_graph_gram(self, monkeypatch):
        # every certificate reads the eigenbasis pass, and an explicit
        # scale's pencils are M_{k+1} against M_k + Gamma M_k Gamma in the
        # eigenbasis: no certificate and no constant forms a graph-ladder grade
        def refuse(*args):
            raise AssertionError("graph-ladder grade formed")

        forms = []

        def recorded(g, h):
            forms.append(h)
            return equivalence_constants(g, h)

        monkeypatch.setattr(hessian, "graph_ladder", refuse)
        monkeypatch.setattr(hessian, "equivalence_constants", recorded)
        floer, lam, _ = TestShiftedFloerHessian().fixture()
        for an in (OperatorAnalysis(conjugated_diagonal([1.0, -2.0, 3.0, 0.5], seed=4), 3), OperatorAnalysis(floer)):
            for cert in OPERATOR_CERTIFICATES:
                cert.defect(an)
            assert an.eigenbasis_pass.restriction == restriction_invariance(an)
        # positivity read grades 0..2 of the Floer operator; it is diagonal, so
        # V is a permutation and each form is grade k's diagonal w plus
        # gamma w gamma, in |gamma| order
        order = np.argmax(spectral_decompose(an).vectors, axis=0)  # column i's coordinate
        assert len(forms) == 3
        for k, form in enumerate(forms):
            w, g = np.diagonal(gram_matrix(floer.scale, k))[order], lam[order]
            assert np.array_equal(form, np.diag(w + g * w * g))

    def test_batch_row_reads_the_one_pass(self):
        # the batch's analysis is at grade 0; its pass still covers grades
        # 0 and 1 and the pair isometry, and the row reads it
        an = OperatorAnalysis(conjugated_diagonal(np.linspace(-2.0, 2.4, 10), seed=8))
        row = verify._analysis_row(an)
        ladder = an.eigenbasis_pass
        assert len(ladder.deviations) == 2 and ladder.pair == pair_isometry_certificate(an)
        assert row["restriction-invariance"] == ladder.restriction and row["kernel"].ker_dim == 0

    @pytest.mark.parametrize(
        "ops",
        [
            lambda: standard_operator_set(1729, 10),
            lambda: [conjugated_diagonal([1e9, 1.0, 0.5, -2.0], seed=3)],
            lambda: [conjugated_diagonal(np.linspace(-3.0, 3.0, 40), seed=23)],
        ],
        ids=["standard-set", "found-input", "conjugated-40"],
    )
    def test_grades_do_not_depend_on_k_max(self, ops):
        # every grade, restriction and pair isometry come from the same
        # products whatever the top grade is, so they agree bit for bit
        # (NaN equal to NaN) with the pass at k_max 5
        for op in ops():
            top = OperatorAnalysis(op, 5).eigenbasis_pass
            assert len(top.deviations) == 6
            for k in range(6):
                ladder = OperatorAnalysis(op, k).eigenbasis_pass
                assert len(ladder.deviations) == max(k, 1) + 1
                got = (ladder.deviations, ladder.restriction, ladder.pair)
                expected = (top.deviations[: len(ladder.deviations)], top.restriction, top.pair)
                assert all(np.array_equal(g, e, equal_nan=True) for g, e in zip(got, expected))

    def test_non_symmetric_still_rejected(self):
        an = OperatorAnalysis(ScaleOperator(NILPOTENT))
        with pytest.raises(ValueError, match="not symmetric"):
            spectral_decompose(an)
        with pytest.raises(ValueError, match="not symmetric"):
            restriction_invariance(an)


class TestDenseReferenceFormulas:
    """The direct dense formulas, kept here as the reference route: each
    forms the graph ladder's Grams G_k, rescales the eigenbasis by
    weight^(-k/2) and takes its products against them; the resolvent
    residual is the complex product (A - iI) B. The package reaches the same
    quantities through the eigenbasis pass and real products, so each defect
    must agree with its reference within ROUNDOFF * n * eps times the scale
    of the matrix it measures: for grade k, sqrt(n) (the Frobenius norm of
    I) times the ladder's spread (max weight / min weight)^k, since both
    routes round the unscaled grade, of size max weight^k, before the
    rescale divides entry (i, j) by (w_i w_j)^(k/2); ||diag(gamma)||_F for
    restriction; max(1 + gamma^2) for pair isometry; ||A - iI||_F ||B||_F
    for the resolvent residual."""

    ROUNDOFF = 4.0

    @staticmethod
    def analysis(kind="rank_deficient"):
        return OperatorAnalysis(conjugated_diagonal(PARITY_SPECTRA[kind], seed=31), 5)

    @staticmethod
    def dense_ladder(a, k_max):
        """Grades 0..k_max, each a full matrix, G_0 the identity."""
        grams = [np.eye(len(a))]
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(k_max):
                g = grams[-1]
                grams.append(linalg.sym_part(g + (a.T @ a if k == 0 else a.T @ g @ a)))
        return grams

    @staticmethod
    def basis(an, k):
        """The |gamma|-sorted eigenvectors, column nu scaled by weight^(-k/2)."""
        return spectral_decompose(an).vectors * np.exp(-0.5 * k * an.fractal_weight.log_values)

    @classmethod
    def fractal_deviations(cls, an, k_max):
        deviations = []
        with np.errstate(invalid="ignore"):  # inf * 0 in an overflowed grade
            for k, g in enumerate(cls.dense_ladder(an.op.matrix, k_max)):
                basis = cls.basis(an, k)
                gram = basis.T @ basis if k == 0 else basis.T @ g @ basis
                deviations.append(linalg.frobenius(gram - np.eye(an.op.n)))
        return deviations

    @classmethod
    def pair_deviations(cls, an):
        data = spectral_decompose(an)
        vs = data.vectors
        actual = vs.T @ cls.dense_ladder(an.op.matrix, 1)[1] @ vs
        g = data.gammas
        expected = np.diag(1.0 + g * g)
        return np.abs(actual - expected) / np.maximum(1.0, np.abs(expected))

    @classmethod
    def bound(cls, n, scale):
        return cls.ROUNDOFF * n * linalg.EPS * scale

    @classmethod
    def grade_bounds(cls, an, k_max):
        logs = an.fractal_weight.log_values
        return [cls.bound(an.op.n, np.sqrt(an.op.n) * np.exp(k * (logs.max() - logs.min()))) for k in range(k_max + 1)]

    @staticmethod
    def perturbed(an, vectors):
        """``an`` with its eigenvectors replaced, behind a passed gate."""
        d = spectral_decompose(an)
        an.spectral = SpectralData(gammas=d.gammas, vectors=vectors)
        return an

    @pytest.mark.parametrize("on_diagonal", [True, False], ids=["diagonal-max", "off-diagonal-max"])
    def test_pair_isometry(self, on_diagonal):
        an = self.analysis()
        v = spectral_decompose(an).vectors.copy()
        if on_diagonal:
            v[:, 4] *= 1.0 + 1e-6
        else:
            c, s = np.cos(1e-3), np.sin(1e-3)
            v[:, [4, 5]] = v[:, [4, 5]] @ np.array([[c, -s], [s, c]])
        dev = self.pair_deviations(self.perturbed(an, v))
        row, col = np.unravel_index(np.argmax(dev), dev.shape)
        assert (row == col) == on_diagonal
        g = spectral_decompose(an).gammas
        assert dev.max() > 1e-7
        assert abs(pair_isometry_certificate(an) - dev.max()) <= self.bound(an.op.n, np.max(1.0 + g * g))

    @pytest.mark.parametrize("kind", sorted(PARITY_SPECTRA))
    def test_restriction_fractal_and_resolvent(self, kind):
        an = self.analysis(kind)
        a, n = an.op.matrix, an.op.n
        data = spectral_decompose(an)
        basis = self.basis(an, 1)
        in_graph = basis.T @ self.dense_ladder(a, 1)[1] @ (a @ basis)
        reference = linalg.frobenius(in_graph - np.diag(data.gammas))
        assert abs(restriction_invariance(an) - reference) <= self.bound(n, np.linalg.norm(data.gammas))
        deviations = build_fractal_structure(an)
        assert (np.abs(np.subtract(deviations, self.fractal_deviations(an, 5))) <= self.grade_bounds(an, 5)).all()
        shifted = a - DEFAULT_RESOLVENT_POINT * np.eye(n)
        b = np.linalg.solve(shifted, np.eye(n, dtype=complex))
        assert np.array_equal(an.resolvent, b)
        reference = linalg.frobenius(shifted @ b - np.eye(n))
        assert abs(an.resolvent_residual - reference) <= self.bound(n, linalg.frobenius(shifted) * linalg.frobenius(b))

    def test_overflowed_grade_stays_nan(self):
        # grade 18 of diag(1e9, 1) overflows; from there on the direct route
        # reads NaN (0 * inf in the rescaled product) and the pass inf or NaN
        an = OperatorAnalysis(ScaleOperator(np.diag([1e9, 1.0])), 40)
        got, reference = build_fractal_structure(an), self.fractal_deviations(an, 40)
        first = int(np.argmin(np.isfinite(reference)))
        assert first == 18 and np.isnan(reference[first:]).all()
        assert np.isfinite(got[:first]).all() and not np.isfinite(got[first:]).any()
        assert (np.abs(np.subtract(got[:first], reference[:first])) <= self.grade_bounds(an, first - 1)).all()
        assert not FRACTAL.defect(an) <= FRACTAL.tol


def test_full_pass_working_set():
    """One pass of every operator certificate on an n = 256 operator peaks
    below 11 n x n doubles of traced allocations: the analysis keeps B and
    the eigenvectors, the eigenbasis pass keeps only scalars, and no
    certificate builds a full identity or diagonal matrix."""
    n = 256
    op = ScaleOperator(random_symmetric(np.random.default_rng(256), n) / np.sqrt(n))
    tracemalloc.start()
    try:
        an = OperatorAnalysis(op, 3)
        for cert in OPERATOR_CERTIFICATES:
            cert.defect(an)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * n * n * 8


def test_eigenbasis_pass_working_set():
    """The eigenbasis pass at the analysis's default grade on an n = 256 GOE
    operator peaks at 4 n x n doubles plus O(n) of traced allocations, once
    the spectral data and the weight are held: Y_1, Y_2, the restriction
    matrix and one product's temporary, then Y_1, Y_2, P_0 and P_1; the
    eigenvectors are read in place, not copied."""
    n = 256
    b = np.random.default_rng(256).standard_normal((n, n))
    an = OperatorAnalysis(ScaleOperator((b + b.T) / (2.0 * np.sqrt(n))))
    an.fractal_weight
    tracemalloc.start()
    try:
        an.eigenbasis_pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (4 * n * n + 16 * n) * 8
