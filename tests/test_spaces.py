import numpy as np
import pytest
from weight_checks import is_scale_weight

from scalehilbert.linalg import generalized_eigh, random_orthogonal
from scalehilbert.spaces import (
    DiagonalGrade,
    GramGrade,
    TruncatedScaleSpace,
    equivalence_constants,
    gram_matrix,
    inclusion_singular_values,
    is_scale_isometric,
    space_from_json,
    weighted_sequence_space,
)
from scalehilbert.weights import Weight, sigma_weight


def sigma_space(n=6, k_max=3):
    return weighted_sequence_space(sigma_weight(n), k_max)


def random_spd(rng, n):
    b = rng.standard_normal((n, n))
    return b @ b.T + n * np.eye(n)


def basis_vector(n, nu):
    e = np.zeros(n)
    e[nu - 1] = 1.0
    return e


class TestConstruction:
    def test_weighted_space_shape(self):
        s = sigma_space(6, 3)
        assert s.n == 6
        assert s.k_max == 3
        assert len(s.grades) == 4

    def test_grade_zero_is_canonical(self):
        s = sigma_space()
        g0 = s.grade(0)
        assert isinstance(g0, DiagonalGrade)
        assert np.array_equal(g0.weight.log_values, np.zeros(s.n))
        assert all(is_scale_weight(g.weight) for g in s.grades)

    def test_grade_k_is_kth_power(self):
        s = sigma_space(5, 3)
        w = sigma_weight(5)
        for k in range(4):
            assert np.array_equal(s.grade(k).weight.log_values, k * w.log_values)

    def test_grade_index_errors(self):
        s = sigma_space(4, 2)
        with pytest.raises(IndexError):
            s.grade(3)
        with pytest.raises(IndexError):
            s.grade(-1)

    def test_rejects_invalid_weight(self):
        with pytest.raises(ValueError):
            weighted_sequence_space(Weight(np.log([2.0, 1.0])), 2)
        with pytest.raises(ValueError):
            weighted_sequence_space(sigma_weight(3), -1)

    def test_rejects_non_spd_gram(self):
        bad = np.diag([1.0, -1.0])
        with pytest.raises(np.linalg.LinAlgError):
            TruncatedScaleSpace(2, (GramGrade(bad),))

    def test_rejects_asymmetric_gram(self):
        with pytest.raises(ValueError):
            TruncatedScaleSpace(2, (GramGrade(np.array([[2.0, 1.0], [0.0, 2.0]])),))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            TruncatedScaleSpace(3, (DiagonalGrade(sigma_weight(2)),))

    def test_rejects_empty_and_junk_grades(self):
        with pytest.raises(ValueError):
            TruncatedScaleSpace(2, ())
        with pytest.raises(TypeError):
            TruncatedScaleSpace(2, (np.eye(2),))

    def test_gram_matrix_paths(self):
        s = sigma_space(4, 2)
        assert np.array_equal(gram_matrix(s, 1), np.diag(sigma_weight(4).values()))
        g = np.array([[2.0, 1.0], [1.0, 2.0]])
        t = TruncatedScaleSpace(2, (GramGrade(np.eye(2)), GramGrade(g)))
        assert np.array_equal(gram_matrix(t, 1), g)


class TestInnerProduct:
    """The grade-k form of a space is x^T gram_matrix(s, k) y."""

    def test_basis_vector_norm_is_weight(self):
        s = sigma_space(5, 2)
        e3 = basis_vector(5, 3)
        assert e3 @ gram_matrix(s, 1) @ e3 == pytest.approx(10.0, rel=1e-14)
        assert e3 @ gram_matrix(s, 2) @ e3 == pytest.approx(100.0, rel=1e-14)
        assert e3 @ gram_matrix(s, 0) @ e3 == pytest.approx(1.0, rel=1e-15)

    def test_distinct_basis_vectors_orthogonal(self):
        s = sigma_space(5, 2)
        assert basis_vector(5, 1) @ gram_matrix(s, 2) @ basis_vector(5, 4) == 0.0

    def test_graded_vector_inputs(self):
        # grade-1 coordinates of the second basis vector carry sigma(2) = 5
        s = sigma_space(4, 1)
        x = basis_vector(4, 2)
        assert x @ gram_matrix(s, 1) @ x == pytest.approx(5.0, rel=1e-14)

    def test_gram_path_matches_brute_force(self):
        rng = np.random.default_rng(11)
        n = 7
        g = random_spd(rng, n)
        s = TruncatedScaleSpace(n, (GramGrade(np.eye(n)), GramGrade(g)))
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        expected = sum(x[i] * g[i, j] * y[j] for i in range(n) for j in range(n))
        gram = gram_matrix(s, 1)
        assert x @ gram @ y == pytest.approx(expected, rel=1e-12)
        assert x @ gram @ y == pytest.approx(y @ gram @ x, rel=1e-12)

    def test_dimension_mismatch(self):
        s = sigma_space(4, 1)
        assert gram_matrix(s, 0).shape == (4, 4)
        with pytest.raises(ValueError):
            np.ones(3) @ gram_matrix(s, 0) @ np.ones(4)


class TestInclusion:
    def test_sigma_singular_values(self):
        s = sigma_space(6, 2)
        sv = inclusion_singular_values(s, 1)
        expected = np.sort(1.0 / np.sqrt(sigma_weight(6).values()))[::-1]
        assert sv == pytest.approx(expected, rel=1e-14)
        assert sv[0] == pytest.approx(2.0**-0.5, rel=1e-14)
        assert np.all(np.diff(sv) <= 0)

    def test_constant_weight_gives_unit_values(self):
        s = weighted_sequence_space(Weight(np.zeros(5)), 2)
        assert np.array_equal(inclusion_singular_values(s, 2), np.ones(5))

    def test_grade_independent_for_weighted_model(self):
        # identity from grade k to k-1 always contracts by w**(-1/2)
        s = sigma_space(8, 4)
        base = inclusion_singular_values(s, 1)
        for k in range(2, 5):
            assert inclusion_singular_values(s, k) == pytest.approx(base, rel=1e-12)

    def test_gram_path_matches_diagonal_path(self):
        s = sigma_space(5, 2)
        dense = TruncatedScaleSpace(
            5, tuple(GramGrade(gram_matrix(s, k)) for k in range(3))
        )
        for k in (1, 2):
            assert inclusion_singular_values(dense, k) == pytest.approx(
                inclusion_singular_values(s, k), rel=1e-10
            )

    def test_requires_positive_grade(self):
        with pytest.raises(IndexError):
            inclusion_singular_values(sigma_space(), 0)


class TestEquivalence:
    """:func:`equivalence_constants` of two SPD forms are the extreme
    generalized eigenvalues, the ends of
    :func:`scalehilbert.linalg.generalized_eigh`'s nondecreasing
    eigenvalues; of two diagonal forms, the extreme ratios of their log
    tables."""

    def test_identical_forms(self):
        g = random_spd(np.random.default_rng(0), 5)
        assert equivalence_constants(g, g) == pytest.approx((1.0, 1.0), rel=1e-12)

    def test_scaled_form(self):
        g = random_spd(np.random.default_rng(1), 5)
        assert equivalence_constants(4.0 * g, g) == pytest.approx((4.0, 4.0), rel=1e-12)

    def test_bounds_hold_on_samples_and_are_attained(self):
        rng = np.random.default_rng(2)
        n = 12
        a, b = random_spd(rng, n), random_spd(rng, n)
        mu, basis = generalized_eigh(a, b)
        c_lo, c_hi = equivalence_constants(a, b)
        assert (c_lo, c_hi) == (mu[0], mu[-1])
        x = rng.standard_normal((20000, n))
        ratios = np.einsum("si,ij,sj->s", x, a, x) / np.einsum("si,ij,sj->s", x, b, x)
        slack = 1e-10 * c_hi
        assert ratios.min() >= c_lo - slack
        assert ratios.max() <= c_hi + slack
        # the extreme generalized eigenvectors attain the bounds
        lo_vec, hi_vec = basis[:, 0], basis[:, -1]
        assert lo_vec @ a @ lo_vec / (lo_vec @ b @ lo_vec) == pytest.approx(c_lo, rel=1e-10)
        assert hi_vec @ a @ hi_vec / (hi_vec @ b @ hi_vec) == pytest.approx(c_hi, rel=1e-10)

    def test_swap_inverts_constants(self):
        rng = np.random.default_rng(3)
        a, b = random_spd(rng, 6), random_spd(rng, 6)
        (c_lo, c_hi), swapped = equivalence_constants(a, b), equivalence_constants(b, a)
        assert swapped == pytest.approx((1.0 / c_hi, 1.0 / c_lo), rel=1e-10)

    def test_rejects_non_spd(self):
        with pytest.raises(np.linalg.LinAlgError):
            equivalence_constants(np.eye(2), np.diag([1.0, -1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            equivalence_constants(np.eye(2), np.eye(3))
        with pytest.raises(ValueError, match="matching length"):
            equivalence_constants(np.zeros(2), np.zeros(3))

    def test_diagonal_path_matches_dense(self):
        log_a = np.log([1.0, 4.0, 9.0])
        log_b = np.log([2.0, 2.0, 2.0])
        fast = equivalence_constants(log_a, log_b)
        assert fast == pytest.approx(equivalence_constants(np.diag(np.exp(log_a)), np.diag(np.exp(log_b))), rel=1e-12)
        assert fast == pytest.approx((0.5, 4.5), rel=1e-14)

    def test_diagonal_path_survives_huge_weights(self):
        c_lo, c_hi = equivalence_constants(
            np.array([2000.0, 2001.0]), np.array([2000.5, 2000.5])
        )
        assert np.isfinite([c_lo, c_hi]).all()
        assert c_lo == pytest.approx(np.exp(-0.5), rel=1e-14)


class TestIsometry:
    def test_identity_is_exact_isometry(self):
        s = sigma_space(5, 3)
        report = is_scale_isometric(s, s, np.eye(5))
        assert report.is_isometric
        assert report.defects == (0.0,) * 4

    def test_permuted_weight_isometry_is_exact(self):
        n, k_max = 6, 3
        logs = sigma_weight(n).log_values
        p = np.array([2, 0, 5, 1, 4, 3])
        s = sigma_space(n, k_max)
        t = TruncatedScaleSpace(
            n, tuple(DiagonalGrade(Weight((k * logs)[p])) for k in range(k_max + 1))
        )
        report = is_scale_isometric(s, t, np.eye(n)[p])
        assert report.is_isometric
        assert report.defects == (0.0,) * (k_max + 1)

    def test_uniform_rescaling_isometry(self):
        n, k_max = 5, 2
        logs = sigma_weight(n).log_values
        s = sigma_space(n, k_max)
        t = TruncatedScaleSpace(
            n,
            tuple(
                DiagonalGrade(Weight(k * logs + np.log(4.0))) for k in range(k_max + 1)
            ),
        )
        report = is_scale_isometric(s, t, 0.5 * np.eye(n))
        assert report.is_isometric
        assert max(report.defects) < 1e-12

    def test_scaling_breaks_isometry(self):
        s = sigma_space(5, 2)
        report = is_scale_isometric(s, s, 2.0 * np.eye(5))
        assert not report.is_isometric
        assert min(report.defects) > 1.0

    def test_nan_defect_is_not_isometric(self):
        # exp(800) overflows, so the grade-1 transport holds inf * 0 = NaN
        s = TruncatedScaleSpace(2, (DiagonalGrade(Weight(np.zeros(2))), DiagonalGrade(Weight([0.0, 800.0]))))
        with np.errstate(invalid="ignore"):
            report = is_scale_isometric(s, s, np.eye(2))
        assert report.defects[0] == 0.0 and np.isnan(report.defects[1])
        assert not report.is_isometric

    def test_rejects_singular_mapping(self):
        s = sigma_space(3, 1)
        with pytest.raises(ValueError):
            is_scale_isometric(s, s, np.zeros((3, 3)))

    def test_rejects_mismatches(self):
        with pytest.raises(ValueError):
            is_scale_isometric(sigma_space(3, 1), sigma_space(4, 1), np.eye(3))
        with pytest.raises(ValueError):
            is_scale_isometric(sigma_space(3, 1), sigma_space(3, 2), np.eye(3))
        with pytest.raises(ValueError):
            is_scale_isometric(sigma_space(3, 1), sigma_space(3, 1), np.eye(2))


class TestCommonBasis:
    """:func:`scalehilbert.linalg.generalized_eigh` gives a basis orthogonal for both forms."""

    def test_identity_pair_gives_orthonormal_columns(self):
        n = 4
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        basis = generalized_eigh(a, np.eye(n))[1]
        assert basis.T @ basis == pytest.approx(np.eye(n), abs=1e-12)
        transported = basis.T @ a @ basis
        off = transported - np.diag(np.diag(transported))
        assert np.abs(off).max() < 1e-12

    def test_random_pair_simultaneously_diagonal(self):
        rng = np.random.default_rng(5)
        n = 8
        a, b = random_spd(rng, n), random_spd(rng, n)
        basis = generalized_eigh(a, b)[1]
        in_b = basis.T @ b @ basis
        in_a = basis.T @ a @ basis
        assert in_b == pytest.approx(np.eye(n), abs=1e-10)
        off = in_a - np.diag(np.diag(in_a))
        assert np.abs(off).max() / np.abs(np.diag(in_a)).max() < 1e-10


class TestJson:
    @staticmethod
    def gram_grade(matrix):
        return {"type": "gram", "matrix": np.asarray(matrix).tolist()}

    def test_roundtrip_mixed_grades(self):
        g = random_spd(np.random.default_rng(9), 4)
        obj = {
            "n": 4,
            "k_max": 1,
            "grades": [
                {"type": "diagonal", "weight": {"n": 4, "kind": "table", "values": [2.0, 5.0, 10.0, 17.0]}},
                self.gram_grade(g),
            ],
        }
        back = space_from_json(obj)
        assert back.n == 4 and back.k_max == 1
        assert gram_matrix(back, 0) == pytest.approx(gram_matrix(sigma_space(4, 1), 1), rel=1e-14)
        assert np.array_equal(gram_matrix(back, 1), g)

    def test_roundtrip_is_stable_under_orthogonal_conjugation(self):
        q = random_orthogonal(5, np.random.default_rng(13))
        g = q.T @ np.diag([1.0, 2, 3, 4, 5]) @ q
        back = space_from_json({"n": 5, "k_max": 1, "grades": [self.gram_grade(np.eye(5)), self.gram_grade(g)]})
        assert gram_matrix(back, 1) == pytest.approx(g, rel=1e-14)

    def test_rejects_bad_payloads(self):
        weight = {"n": 3, "kind": "closed_form", "formula": {"name": "poly_plus_one", "degree": 2}}
        good = {"n": 3, "k_max": 1, "grades": [self.gram_grade(np.eye(3)), {"type": "diagonal", "weight": weight}]}
        assert space_from_json(good).k_max == 1
        with pytest.raises(ValueError):
            space_from_json({**good, "grades": good["grades"][:1]})
        bad_type = {**good, "grades": [dict(good["grades"][0], type="sparse")] + good["grades"][1:]}
        with pytest.raises(ValueError):
            space_from_json(bad_type)
