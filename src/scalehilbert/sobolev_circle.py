"""Sobolev spaces of circle maps in the Fourier basis.

The basis is e_1(t) = 1, e_{2m}(t) = sqrt(2) sin(2 pi m t),
e_{2m+1}(t) = sqrt(2) cos(2 pi m t) on the unit circle [0, 1).
With the inner product <f, g>_k = sum_{j=0}^k integral f^(j) g^(j),
the Gram matrix of every grade is diagonal with the closed form

    <e_nu, e_nu'>_k = delta(nu, nu') * sum_{j=0}^k (2 pi m)^(2j),
    m = floor(nu / 2),

where the j = 0 term is 1 even for m = 0. The resulting ladder is
scale isomorphic to the weighted sequence model with sigma(nu) =
nu^2 + 1; the per-index ratio between the two weight families stays
inside fixed bounds and tends to pi^(2k) along large nu.

A periodic trapezoid quadrature serves as the independent oracle for
the closed form. The integrands are trigonometric polynomials, so the
trapezoid rule is exact (up to roundoff) once the node count exceeds
the bandwidth.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .spaces import DiagonalGrade, TruncatedScaleSpace, diagonal_equivalence_constants
from .weights import Weight, sigma_weight

__all__ = [
    "FourierBasisSpec",
    "fourier_gram_closed_form",
    "fourier_gram_quadrature",
    "fourier_gram_quadrature_table",
    "oracle_delta",
    "ratio_trace",
    "sigma_equivalence_constants",
    "build_sobolev_space",
]


@dataclass(frozen=True)
class FourierBasisSpec:
    """The first nu_max Fourier basis functions, indexed from 1."""

    nu_max: int

    def __post_init__(self):
        if self.nu_max < 1:
            raise ValueError("nu_max must be >= 1")

    def mode(self, nu: int) -> tuple[int, str]:
        """Map an index to its (frequency, kind) pair.

        Index 1 is the constant function, even indices are sines,
        odd indices >= 3 are cosines; the frequency is floor(nu / 2).
        """
        if not 1 <= nu <= self.nu_max:
            raise ValueError(f"index {nu} out of range 1..{self.nu_max}")
        m = nu // 2
        if nu == 1:
            return 0, "constant"
        return m, "sine" if nu % 2 == 0 else "cosine"

    def modes(self):
        return [self.mode(nu) for nu in range(1, self.nu_max + 1)]


def _require_index(nu: int, name: str = "nu"):
    if nu < 1:
        raise ValueError(f"{name} must be >= 1, got {nu}")


def fourier_gram_closed_form(nu: int, nu_prime: int, k: int) -> float:
    """Grade-k inner product of two Fourier basis functions, in closed form."""
    _require_index(nu)
    _require_index(nu_prime, "nu_prime")
    if k < 0:
        raise ValueError(f"grade must be >= 0, got {k}")
    if nu != nu_prime:
        return 0.0
    r = (2.0 * math.pi * (nu // 2)) ** 2
    return float(sum(r**j for j in range(k + 1)))


def _log_closed_form_diag(nu, k: int):
    """log of the diagonal closed form, vectorized over nu (1-based)."""
    m = np.asarray(nu, dtype=float) // 2
    j = np.arange(k + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = 2.0 * np.log(2.0 * math.pi * m)  # -inf at m = 0
        terms = np.atleast_1d(log_r)[..., None] * j
    terms[..., 0] = 0.0  # the j = 0 term is exactly 1, also for m = 0
    out = logsumexp(terms, axis=-1)
    return out if np.ndim(nu) else float(out[0])


def _derivative_values(m: int, kind: str, j: int, t: np.ndarray) -> np.ndarray:
    """j-th derivative of a basis function on the grid t, analytically."""
    if kind == "constant":
        return np.ones_like(t) if j == 0 else np.zeros_like(t)
    amp = math.sqrt(2.0) * (2.0 * math.pi * m) ** j
    phase = 2.0 * math.pi * m * t + j * math.pi / 2.0
    if kind == "sine":
        return amp * np.sin(phase)
    if kind == "cosine":
        return amp * np.cos(phase)
    raise ValueError(f"unknown basis kind {kind!r}")


def _require_nodes(q: int, max_m: int, k: int):
    need = max(2, 4 * max_m * (k + 1))
    if q < need:
        raise ValueError(
            f"insufficient node count: q={q}, need at least {need} "
            f"for frequency {max_m} at grade {k}"
        )


def fourier_gram_quadrature(nu: int, nu_prime: int, k: int, q: int) -> float:
    """Oracle for the closed form: periodic trapezoid on q nodes.

    Derivatives are taken analytically (phase shifts by multiples of
    pi/2 and amplitude factors (2 pi m)^j), so the only numerical step
    is the quadrature itself.
    """
    _require_index(nu)
    _require_index(nu_prime, "nu_prime")
    if k < 0:
        raise ValueError(f"grade must be >= 0, got {k}")
    spec = FourierBasisSpec(max(nu, nu_prime))
    m1, kind1 = spec.mode(nu)
    m2, kind2 = spec.mode(nu_prime)
    _require_nodes(q, max(m1, m2), k)
    t = np.arange(q, dtype=float) / q
    total = 0.0
    for j in range(k + 1):
        total += float(np.mean(_derivative_values(m1, kind1, j, t) * _derivative_values(m2, kind2, j, t)))
    return total


def fourier_gram_quadrature_table(nu_max: int, k: int, q: int | None = None) -> np.ndarray:
    """The full quadrature Gram matrix of grade k, one row per basis index."""
    spec = FourierBasisSpec(nu_max)
    max_m = nu_max // 2
    if q is None:
        q = max(64, 4 * max_m * (k + 1))
    _require_nodes(q, max_m, k)
    t = np.arange(q, dtype=float) / q
    gram = np.zeros((nu_max, nu_max))
    for j in range(k + 1):
        d = np.empty((nu_max, q))
        for nu in range(1, nu_max + 1):
            m, kind = spec.mode(nu)
            d[nu - 1] = _derivative_values(m, kind, j, t)
        gram += d @ d.T / q
    return gram


def oracle_delta(nu_max: int, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(closed-form diagonal, quadrature Gram, worst scaled delta) of grade k.

    Deltas are measured relative to max(1, sqrt(d_nu * d_nu')) with d the
    closed-form diagonal; on the diagonal this is the plain
    max(1, closed_form) scale, and off the diagonal it compares the
    quadrature residue against the size of the two factors (the raw
    integrands reach 1e14, so an absolute delta is not meaningful there).
    """
    diag = np.array([fourier_gram_closed_form(nu, nu, k) for nu in range(1, nu_max + 1)])
    quad = fourier_gram_quadrature_table(nu_max, k)
    scale = np.maximum(1.0, np.sqrt(np.outer(diag, diag)))
    return diag, quad, float((np.abs(np.diag(diag) - quad) / scale).max())


def ratio_trace(nu_max: int, k: int) -> np.ndarray:
    """Ratio of the Sobolev grade-k weight to sigma(nu)^k, sigma(nu) = nu^2 + 1,
    over nu = 1..nu_max.

    Evaluated in the log domain so large grades cannot overflow. Bounded
    between 2^(-k) and (1 + 4 pi^2)^k, with limit pi^(2k) along large nu;
    these bounds witness that the Sobolev ladder and the sigma-weighted
    sequence model are the same scale structure.
    """
    _require_index(nu_max, "nu_max")
    if k < 0:
        raise ValueError(f"grade must be >= 0, got {k}")
    nu = np.arange(1, nu_max + 1, dtype=float)
    log_sigma = np.log1p(nu**2)
    return np.exp(_log_closed_form_diag(nu, k) - k * log_sigma)


def sigma_equivalence_constants(nu_max: int, k: int) -> tuple[float, float]:
    """Attained equivalence constants between the grade-k Sobolev weight
    and the k-th power of sigma, over the first nu_max indices."""
    log_diag = _log_closed_form_diag(np.arange(1, nu_max + 1), k)
    log_sigma_k = k * sigma_weight(nu_max).log_values
    return diagonal_equivalence_constants(log_diag, log_sigma_k)


def build_sobolev_space(nu_max: int, k_max: int) -> TruncatedScaleSpace:
    """The truncated Sobolev ladder: grade k is diagonal with the
    closed-form weight; grade 0 is the constant weight 1."""
    _require_index(nu_max, "nu_max")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    nu = np.arange(1, nu_max + 1)
    grades = [DiagonalGrade(Weight(_log_closed_form_diag(nu, k))) for k in range(k_max + 1)]
    return TruncatedScaleSpace(nu_max, tuple(grades))
