import numpy as np
import pytest
import scipy.linalg

from scalehilbert.hessian import OperatorAnalysis, ScaleOperator, check_kernel_cokernel
from scalehilbert.linalg import (
    EPS,
    as_square_matrix,
    cholesky_spd,
    frobenius,
    generalized_eigh,
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
    assert symmetry_defect(skew) == 1.0
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
    mu = generalized_eigh(a, b)
    assert mu.shape == (n,) and np.all(np.diff(mu) >= 0)
    # the eigenvalues alone: the generalized eigenvectors of the test-only
    # oracle scipy.linalg.eigh(a, b), v^T b v = I, carry a to diag(mu)
    v = scipy.linalg.eigh(a, b)[1]
    assert v.T @ a @ v == pytest.approx(np.diag(mu), abs=1e-9)
    assert np.array_equal(generalized_eigh(a, b), mu)


@pytest.mark.parametrize("log10_kappa", [0, 10])
def test_generalized_eigh_matches_lapack_sygvd(log10_kappa):
    """The Cholesky reduction against scipy.linalg.eigh(a, b), LAPACK's
    sygvd (a test-only oracle), for a well-conditioned b and one with
    condition number 10**10. Both reduce the same pencil, so with a
    well-conditioned a the eigenvalues agree to a small multiple of
    eps * kappa(b); the largest gap measured is about 1 eps * kappa(b)."""
    rng = np.random.default_rng(67)
    n = 40
    c = rng.standard_normal((n, n))
    a = sym_part(c @ c.T) / n + np.eye(n)
    q = random_orthogonal(n, rng)
    b = sym_part((q * np.logspace(0, log10_kappa, n)) @ q.T)
    assert np.linalg.cond(b) == pytest.approx(10.0**log10_kappa, rel=1e-2)
    mu = generalized_eigh(a, b)
    oracle = scipy.linalg.eigh(a, b, eigvals_only=True)
    assert np.max(np.abs(mu - oracle) / np.abs(oracle)) <= 32 * EPS * 10.0**log10_kappa


def prescribed_bases(angles, extra_x, extra_y, seed, n=24):
    """Orthonormal x, y (QR-built) whose spans meet at ``angles``, with
    ``extra_x``/``extra_y`` further columns orthogonal to the other span;
    each basis is mixed by a random rotation of its own columns."""
    rng = np.random.default_rng(seed)
    m = len(angles)
    q = random_orthogonal(n, rng)
    pair, rest = q[:, m + extra_x:2 * m + extra_x], q[:, 2 * m + extra_x:2 * m + extra_x + extra_y]
    x = q[:, :m + extra_x]
    y = np.hstack([q[:, :m] * np.cos(angles) + pair * np.sin(angles), rest])
    return x @ random_orthogonal(x.shape[1], rng), y @ random_orthogonal(y.shape[1], rng)


# All at most pi/4 (the largest read from its sine), all above it (the
# largest from its cosine), both in one set, and a tiny angle next to one
# near pi/2. scipy picks sine or cosine by a mask on the descending
# cosines but applies it to the descending angles, so on the mixed set
# it reads arccos near 1 or arcsin near 1, where one ulp of input moves
# the angle by about 1e-8; that set is checked against the prescribed
# angles only.
ANGLE_SETS = {
    "sines": np.geomspace(1e-12, 0.7, 6),
    "cosines": np.linspace(0.9, np.pi / 2, 5),
    "both": np.array([0.2, 0.5, 1.0, 1.3]),
    "mixed": np.array([1e-12, np.pi / 2]),
}
SCIPY_MASK_QUIRK = {"mixed"}


def with_kernel_pair(x, y, seed):
    """A = W diag(s) Z^T, s uniform in [1, 2] from default_rng(seed), with Z
    and W orthonormal complements of x and y (complete QR): its kernel is
    span(x) and the complement of its range span(y). It is not symmetric,
    so the kernel entry's full-rank proof refuses it and its SVD runs."""
    n, d = x.shape
    z = np.linalg.qr(x, mode="complete")[0][:, d:]
    w = np.linalg.qr(y, mode="complete")[0][:, d:]
    return (w * np.random.default_rng(seed).uniform(1.0, 2.0, n - d)) @ z.T


def kernel_angle(a, monkeypatch):
    """(KernelReport, number of ``svd`` calls) of the kernel entry on a."""
    calls, svd = [], np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", counted)
        return check_kernel_cokernel(OperatorAnalysis(ScaleOperator(a))), len(calls)


# The largest principal angle that the kernel entry reads, against the one
# prescribed and (outside the mask quirk) scipy's: the largest gap measured
# is 2.5 eps against the prescribed angle and 3 eps against scipy's
KERNEL_ANGLE_TOL = 8 * EPS


def test_principal_angles(monkeypatch):
    # the nilpotent operator's kernel e1 meets its range complement e2 at
    # pi/2, read from the cosine; diag(0, 1) has kernel and range complement
    # e1, angle 0; a nonsymmetric full-rank operator fails the proof and
    # its SVD finds two empty subspaces, angle 0
    cases = [([[0.0, 1.0], [0.0, 0.0]], 1, np.pi / 2, 3), ([[0.0, 0.0], [0.0, 1.0]], 1, 0.0, 2),
             ([[1.0, 1.0], [0.0, 1.0]], 0, 0.0, 2)]
    for a, ker_dim, angle, svd_calls in cases:
        report, calls = kernel_angle(np.array(a), monkeypatch)
        assert (report.ker_dim, report.coker_dim, calls) == (ker_dim, ker_dim, svd_calls)
        assert report.subspace_angle == pytest.approx(angle, rel=1e-15, abs=0.0)


# orthogonal, shared: the spans also meet at pi/2 along ``orthogonal``
# further directions and at 0 along ``shared`` common ones
@pytest.mark.parametrize("name", sorted(ANGLE_SETS))
@pytest.mark.parametrize("orthogonal, shared", [(0, 0), (2, 0), (0, 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_principal_angles_match_scipy(name, orthogonal, shared, seed, monkeypatch):
    """The kernel entry on an operator whose kernel and range complement are
    prescribed spans reads their largest principal angle, from the sine at
    most pi/4 (2 SVDs) and from the cosine above it (3 SVDs), in either
    role. With extra directions the spans meet at 0 or pi/2 besides the
    set's angles, where scipy's mask quirk shows on most sets, so only the
    bare sets are checked against scipy."""
    angles = np.concatenate([ANGLE_SETS[name], np.zeros(shared)])
    x, y = prescribed_bases(angles, orthogonal, orthogonal, seed)
    expected = np.pi / 2 if orthogonal else float(np.max(angles))
    for kernel, complement in ((x, y), (y, x)):
        report, calls = kernel_angle(with_kernel_pair(kernel, complement, seed), monkeypatch)
        assert report.ker_dim == report.coker_dim == len(angles) + orthogonal
        assert calls == (3 if expected > np.pi / 4 else 2)
        assert abs(report.subspace_angle - expected) <= KERNEL_ANGLE_TOL
        if not (orthogonal or shared or name in SCIPY_MASK_QUIRK):
            oracle = np.max(scipy.linalg.subspace_angles(kernel, complement))
            assert abs(report.subspace_angle - oracle) <= KERNEL_ANGLE_TOL


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
