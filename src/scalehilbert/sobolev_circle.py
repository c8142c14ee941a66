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

The oracle for the closed form is the periodic trapezoid rule on q nodes,
read off its exactness theorem (:func:`oracle_deltas`): at q > 2 max_m the
rule integrates every product of two basis functions or their derivatives
exactly, so its Gram table is diagonal, with the derivative amplitudes
sum_j ((2 pi m)^j)^2 on the diagonal. The numeric cosine sums that check
the theorem live with the tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spaces import DiagonalGrade, TruncatedScaleSpace, equivalence_constants
from .weights import Weight, sigma_weight

__all__ = [
    "FourierBasisSpec",
    "fourier_gram_closed_form",
    "oracle_deltas",
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


def _log_geometric_sum(log_r: np.ndarray, k: int) -> np.ndarray:
    """log sum_{j=0}^k r^j, elementwise, from log r >= log(4 pi^2)."""
    top = log_r * k
    tail = np.zeros_like(log_r)
    for j in range(k):
        tail += np.exp(log_r * j - top)
    return np.log1p(tail) + top


def _log_closed_form_diag(nu, k: int):
    """log of the diagonal closed form of grade k over a run of consecutive
    indices nu (1-based; a scalar nu is a run of one), read from
    :func:`_log_closed_form_grades`.

    With r = (2 pi m)^2 >= 4 pi^2 for m >= 1, the sum is r^k times
    1 + sum_{j<k} r^(j-k), so its log is k log r + log1p of terms below
    1/39: nothing overflows, and the constant function (m = 0, where the
    sum is exactly 1) gives exactly 0.
    """
    out = _log_closed_form_grades(np.atleast_1d(nu))(k)
    return out if np.ndim(nu) else float(out[0])


def _log_closed_form_grades(nu: np.ndarray):
    """k -> the log diagonal closed form of grade k over a run of consecutive
    indices nu, the one definition of the Sobolev log weight: evaluated once
    per frequency m = nu // 2 from one log r shared by every grade."""
    m = nu // 2
    start = int(m[0])
    log_r = 2.0 * np.log(2.0 * math.pi * np.arange(max(start, 1), m[-1] + 1.0))
    lead, index = [0.0] if start == 0 else [], m - start  # the constant function has log 1 = 0
    return lambda k: np.concatenate((lead, _log_geometric_sum(log_r, k)))[index]


def oracle_deltas(nu_max: int, k_max: int):
    """Yield (closed-form diagonal, quadrature diagonal, worst scaled delta)
    for grades 0..k_max, the diagonals per frequency m = nu // 2 = 0..nu_max // 2.

    The quadrature side is the periodic trapezoid rule on q nodes. With
    S(p) = sum_i cos(2 pi p i / q), S(p) / q is exactly 1 at p = 0 and 0 at
    every 0 < p < q (the trapezoid rule is exact on trigonometric
    polynomials of degree below q; Trefethen and Weideman, SIAM Review 56,
    2014). Every product of two basis functions or of their derivatives is
    a sum of cosines of frequency m - m' and m + m', so at q > 2 max_m,
    max_m = nu_max // 2, the trapezoid table of every grade is diagonal,
    and its off-diagonal entries are exactly 0 on both sides. The j-th
    derivative of a basis function is w^j, w_nu = 2 pi floor(nu / 2),
    times a unit-mean-square basis function or direction (0 for the
    constant at j >= 1), so the diagonal of grade k is

        quad_k[nu] = sum_{j<=k} fl(w_nu^j * w_nu^j),

    accumulated grade by grade: exactly 1 for the constant. The default
    node count max(64, 4 max_m (k_max + 1)) meets q > 2 max_m at every
    grade. This route reads the derivative amplitudes, never the closed
    form, which sums r^j with r = (2 pi (nu // 2))^2 and is called once
    per frequency and grade.

    The delta is |d - quad| / d with d the closed-form diagonal, >= 1 for
    a true Gram. A d that is 0, negative, NaN or infinite, or an amplitude
    (w^k)^2 that overflows, gives an inf or NaN delta, which fails.
    """
    FourierBasisSpec(nu_max)
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    # the closed form reads nu only through m = nu // 2: one call per m, at nu = 1, 2, 4, ..
    heads = [1, *range(2, nu_max + 1, 2)]
    w = 2.0 * math.pi * np.arange(nu_max // 2 + 1)
    quad = np.zeros_like(w)
    for k in range(k_max + 1):
        diag = np.array([fourier_gram_closed_form(nu, nu, k) for nu in heads])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            wk = w**k
            quad = quad + wk * wk
            delta = np.where(diag < 0, np.nan, np.abs(diag - quad) / diag)  # no Gram diagonal is negative
        yield diag, quad, float(np.max(delta))


def _log_sigma_tables(nu_max: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(log S_k(nu), k log sigma(nu)) over nu = 1..nu_max, log sigma read
    from :func:`sigma_weight`; their difference is exactly -k log1p(1) at
    nu = 1."""
    _require_index(nu_max, "nu_max")
    if k < 0:
        raise ValueError(f"grade must be >= 0, got {k}")
    return _log_closed_form_diag(np.arange(1, nu_max + 1), k), k * sigma_weight(nu_max).log_values


def ratio_trace(nu_max: int, k: int) -> np.ndarray:
    """Ratio of the Sobolev grade-k weight to sigma(nu)^k, sigma(nu) = nu^2 + 1,
    over nu = 1..nu_max.

    Evaluated in the log domain so large grades cannot overflow. Bounded
    between 2^(-k) and (1 + 4 pi^2)^k, with limit pi^(2k) along large nu;
    these bounds witness that the Sobolev ladder and the sigma-weighted
    sequence model are the same scale structure.
    """
    return np.exp(np.subtract(*_log_sigma_tables(nu_max, k)))


def sigma_equivalence_constants(nu_max: int, k: int) -> tuple[float, float]:
    """Attained equivalence constants between the grade-k Sobolev weight
    and the k-th power of sigma, over the first nu_max indices: the
    extremes of :func:`ratio_trace`, from :func:`equivalence_constants`."""
    return equivalence_constants(*_log_sigma_tables(nu_max, k))


def build_sobolev_space(nu_max: int, k_max: int) -> TruncatedScaleSpace:
    """The truncated Sobolev ladder: grade k is diagonal with the
    closed-form weight; grade 0 is the constant weight 1."""
    _require_index(nu_max, "nu_max")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    nu = np.arange(1, nu_max + 1)
    grades = [DiagonalGrade(Weight(_log_closed_form_diag(nu, k))) for k in range(k_max + 1)]
    return TruncatedScaleSpace(nu_max, tuple(grades))
