import numpy as np
import pytest

from scalehilbert.linalg import (
    EPS,
    as_square_matrix,
    cholesky_spd,
    extreme_generalized_eigenvalues,
    frobenius,
    generalized_eigh,
    principal_angles,
    random_orthogonal,
    require_spd,
    require_symmetric,
    sym_part,
    symmetry_defect,
)


def test_as_square_matrix_copies_and_checks():
    src = [[1, 2], [3, 4]]
    m = as_square_matrix(src)
    assert m.dtype == float
    m[0, 0] = 9.0
    assert src[0][0] == 1
    with pytest.raises(ValueError, match="payload"):
        as_square_matrix(np.ones((2, 3)), name="payload")
    with pytest.raises(ValueError):
        as_square_matrix(np.ones(4))


def test_symmetry_helpers():
    assert symmetry_defect(np.zeros((2, 2))) == 0.0
    assert symmetry_defect(np.eye(3)) == 0.0
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert symmetry_defect(skew) == pytest.approx(2.0, rel=1e-15)
    assert np.array_equal(sym_part(skew), np.zeros((2, 2)))
    assert np.array_equal(require_symmetric([[1, 2], [2, 1]]), [[1.0, 2.0], [2.0, 1.0]])
    nearly = np.array([[1.0, 2.0 + 1e-12], [2.0, 1.0]])
    assert np.array_equal(require_symmetric(nearly), sym_part(nearly))
    with pytest.raises(np.linalg.LinAlgError, match="not symmetric"):
        require_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="payload"):
        require_symmetric(np.ones((2, 3)), name="payload")


def test_cholesky_and_spd_guard():
    g = np.array([[4.0, 2.0], [2.0, 3.0]])
    low = cholesky_spd(g)
    assert low @ low.T == pytest.approx(g, rel=1e-15)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        cholesky_spd(np.diag([1.0, -1.0]), name="grade")
    with pytest.raises(np.linalg.LinAlgError):
        require_spd(np.diag([1.0, 0.0]))
    back = require_spd(g)
    assert np.array_equal(back, g)


def test_generalized_eigh_normalization():
    rng = np.random.default_rng(61)
    n = 6
    c = rng.standard_normal((n, n))
    a = sym_part(c @ c.T) + n * np.eye(n)
    d = rng.standard_normal((n, n))
    b = sym_part(d @ d.T) + n * np.eye(n)
    mu, v = generalized_eigh(a, b)
    assert np.all(np.diff(mu) >= 0)
    assert v.T @ b @ v == pytest.approx(np.eye(n), abs=1e-10)
    assert v.T @ a @ v == pytest.approx(np.diag(mu), abs=1e-9)
    lo, hi = extreme_generalized_eigenvalues(a, b)
    assert (lo, hi) == (mu[0], mu[-1])


def test_principal_angles():
    e1 = np.eye(3)[:, :1]
    e2 = np.eye(3)[:, 1:2]
    assert principal_angles(e1, e2)[0] == pytest.approx(np.pi / 2, rel=1e-12)
    assert principal_angles(e1, e1)[0] == pytest.approx(0.0, abs=1e-12)
    assert principal_angles(np.zeros((3, 0)), e1).size == 0


def test_random_orthogonal_is_deterministic_and_orthogonal():
    q1 = random_orthogonal(7, np.random.default_rng(73))
    q2 = random_orthogonal(7, np.random.default_rng(73))
    assert np.array_equal(q1, q2)
    assert q1.T @ q1 == pytest.approx(np.eye(7), abs=1e-13)
    q3 = random_orthogonal(7, np.random.default_rng(74))
    assert not np.array_equal(q1, q3)


def test_frobenius_and_eps():
    assert frobenius(np.full((2, 2), 3.0)) == pytest.approx(6.0, rel=1e-15)
    assert 0 < EPS < 1e-15


def test_frobenius_survives_overflow_of_the_squares():
    m = np.random.default_rng(3).standard_normal((5, 4))
    assert frobenius(m) == float(np.linalg.norm(m, "fro"))
    assert frobenius(np.full((2, 2), 1e200)) == pytest.approx(2e200, rel=1e-15)
    assert frobenius(np.array([[3e300j, 4e300]])) == pytest.approx(5e300, rel=1e-15)
    assert frobenius(np.array([[np.inf, 1.0]])) == np.inf
