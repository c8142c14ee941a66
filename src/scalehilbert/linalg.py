# Shared dense linear algebra helpers.
#
# Generalized symmetric eigenproblems are solved through the SPD factor
# reduction (Cholesky of one Gram, symmetric eigensolve of the congruence
# transform), which is what LAPACK's sygvd driver does under scipy.linalg.eigh.
# Eigenvalues come back nondecreasing, which fixes the ordering convention
# used throughout the package.

import numpy as np
import scipy.linalg as sla

EPS = float(np.finfo(float).eps)


def as_square_matrix(m, name="matrix"):
    """Coerce to a float (or complex) square 2-d array, copying the input."""
    a = np.array(m, dtype=complex if np.iscomplexobj(m) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def sym_part(m):
    return (m + m.T) / 2.0


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
    """Relative Frobenius asymmetry ||M - M^T|| / ||M|| (0 for the zero matrix)."""
    denom = frobenius(m)
    if denom == 0.0:
        return 0.0
    return frobenius(m - m.T) / denom


def require_symmetric(m, tol=1e-10, name="matrix"):
    """The symmetric part of a square matrix; LinAlgError if its relative
    asymmetry exceeds tol."""
    a = as_square_matrix(m, name)
    if symmetry_defect(a) > tol:
        raise np.linalg.LinAlgError(f"{name} is not symmetric")
    return sym_part(a)


def cholesky_spd(m, name="matrix"):
    """Lower Cholesky factor; raises LinAlgError('... not positive definite')."""
    try:
        return sla.cholesky(m, lower=True)
    except sla.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"{name} is not positive definite") from exc


def require_spd(m, tol=1e-10, name="matrix"):
    a = require_symmetric(m, tol, name)
    cholesky_spd(a, name)
    return a


def generalized_eigh(a, b, name_a="a", name_b="b"):
    """Eigenpairs of a v = mu b v for symmetric a and SPD b.

    Returns (mu, V) with mu nondecreasing, V^T b V = I and V^T a V = diag(mu).
    """
    a = require_symmetric(a, name=name_a)
    b = require_spd(b, name=name_b)
    return sla.eigh(a, b)


def extreme_generalized_eigenvalues(a, b):
    mu = generalized_eigh(a, b)[0]
    return float(mu[0]), float(mu[-1])


def principal_angles(x, y):
    """Principal angles between column spans, largest first (empty -> [])."""
    if x.size == 0 or y.size == 0:
        return np.zeros(0)
    return sla.subspace_angles(x, y)


def random_orthogonal(n, rng):
    """Haar-ish orthogonal matrix from a seeded generator, sign-normalized
    so the result is a deterministic function of the generator state."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs
