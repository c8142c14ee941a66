# Shared dense linear algebra helpers, all on numpy.linalg.
#
# Generalized symmetric eigenproblems a v = mu b v are solved by the Cholesky
# reduction of a definite pencil (Golub and Van Loan, Matrix Computations, 8.7),
# as LAPACK's sygvd does: b = L L^T is factored once, L^-1 comes from one LU
# solve against the identity, and the symmetric eigensolve of C = L^-1 a L^-T
# gives mu, nondecreasing (the ordering convention of the package), and V = L^-T W.

import numpy as np

EPS = float(np.finfo(float).eps)
# largest symmetry_defect, a relative asymmetry in [0, 1], that a symmetry gate accepts
SYMMETRY_TOL = 1e-10


def as_square_matrix(m, name="matrix"):
    """Coerce to a float (or complex) square 2-d array, copying the input."""
    a = np.array(m, dtype=complex if np.iscomplexobj(m) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def sym_part(m):
    """(m + m^T) / 2, halved before the add so that entries near the
    double max do not overflow; the same bits for normal numbers. The add
    is in place, so the result and one temporary are alive at the peak."""
    half = m / 2.0
    half += m.T / 2.0
    return half


def frobenius(m):
    """Frobenius norm. Only when the plain sum of squares overflows is it
    recomputed on m / max|m|, so a norm below the overflow threshold
    comes out finite and every other result is the plain one."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m, "fro"))
    if norm == np.inf:
        scale = float(np.max(np.abs(m)))
        if np.isfinite(scale):
            norm = scale * float(np.linalg.norm(m / scale, "fro"))
    return norm


def symmetry_defect(m):
    """Frobenius asymmetry ||M - M^T|| / max(||M + M^T||, ||M - M^T||) in
    [0, 1]: 0 for a symmetric or zero matrix, exactly 1 for a strictly
    triangular or skew-symmetric one; read on m / max|m| if M +- M^T overflows."""
    with np.errstate(over="ignore"):
        num = frobenius(m - m.T)
        den = max(frobenius(m + m.T), num)
    if not np.isfinite([num, den]).all() and np.isfinite(scale := float(np.max(np.abs(m)))):
        return symmetry_defect(m / scale)
    return num / den if den > 0.0 else 0.0


def require_symmetric(m, name="matrix"):
    """The symmetric part of a square matrix; LinAlgError if an entry is
    NaN or infinite or its :func:`symmetry_defect` exceeds SYMMETRY_TOL."""
    a = as_square_matrix(m, name)
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError(f"{name} has a non-finite entry")
    if symmetry_defect(a) > SYMMETRY_TOL:
        raise np.linalg.LinAlgError(f"{name} is not symmetric")
    return sym_part(a)


def cholesky_spd(m, name="matrix"):
    """Lower Cholesky factor; raises LinAlgError('... not positive definite')."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"{name} is not positive definite") from exc


def require_spd(m, name="matrix"):
    a = require_symmetric(m, name)
    cholesky_spd(a, name)
    return a


def generalized_eigh(a, b, name_a="a", name_b="b"):
    """Eigenpairs of a v = mu b v for symmetric a and SPD b.

    Returns (mu, V) with mu nondecreasing, V^T b V = I and V^T a V = diag(mu).
    """
    a, b = require_symmetric(a, name=name_a), require_symmetric(b, name=name_b)
    l_inv = np.linalg.solve(cholesky_spd(b, name_b), np.eye(b.shape[0]))
    mu, w = np.linalg.eigh(sym_part(l_inv @ a @ l_inv.T))
    return mu, l_inv.T @ w


def principal_angles(x, y):
    """Principal angles between the spans of two real matrices with
    orthonormal columns, largest first (empty -> []).

    The Knyazev-Argentati steps of ``scipy.linalg.subspace_angles``, which
    first re-orthonormalizes both inputs; here the columns must already
    be orthonormal. The cosines are the singular values of x^T y and the
    sines those of the residual of the side with more columns (scipy's
    branch); an angle is the arcsine of its sine where its cosine^2 >= 1/2
    and the arccosine of its cosine elsewhere. scipy reads that mask in
    cosine order, not angle order, and so loses about 1e-8 on spans that
    meet at both a tiny angle and one near pi/2.
    """
    if x.size == 0 or y.size == 0:
        return np.zeros(0)
    cross = x.T @ y
    cosines = np.linalg.svd(cross, compute_uv=False)
    residual = y - x @ cross if x.shape[1] >= y.shape[1] else x - y @ cross.T
    small = cosines[::-1] ** 2 >= 0.5
    sines = np.arcsin(np.clip(np.linalg.svd(residual, compute_uv=False), -1.0, 1.0)) if small.any() else 0.0
    return np.where(small, sines, np.arccos(np.clip(cosines[::-1], -1.0, 1.0)))


def random_orthogonal(n, rng):
    """Haar-ish orthogonal matrix from a seeded generator, sign-normalized
    so the result is a deterministic function of the generator state."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs
