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

A periodic trapezoid quadrature serves as the independent oracle for the closed
form. The integrands are trigonometric polynomials, so the trapezoid rule is
exact (up to roundoff) once the node count exceeds the bandwidth. The table
oracle samples the basis at exact integer phases and sums one node Gram over
the node pairs (i, q - i): the node set is symmetric under t -> -t, so its
sine-cosine block, a sum of odd integrands, is exactly 0. Every grade is read
off that Gram through the derivative amplitudes, an identity of the integrands
at each node, so the table is the trapezoid sum itself and never reads the
closed form it checks. The scalar :func:`fourier_gram_quadrature` is its
pointwise reference.

One run of the oracle (:func:`oracle_deltas`) builds one node Gram, at
grade k_max's node count, and streams grades 0..k_max through one
reused table, so only one grade is alive at a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spaces import DiagonalGrade, TruncatedScaleSpace
from .weights import Weight, sigma_weight

__all__ = [
    "FourierBasisSpec",
    "fourier_gram_closed_form",
    "fourier_gram_quadrature",
    "fourier_gram_quadrature_table",
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


def _log_closed_form_diag(nu, k: int):
    """log of the diagonal closed form, vectorized over nu (1-based).

    With r = (2 pi m)^2 >= 4 pi^2 for m >= 1, the sum is r^k times
    1 + sum_{j<k} r^(j-k), so its log is k log r + log1p of terms below
    1/39: nothing overflows, and the constant function (m = 0, where the
    sum is exactly 1) gives exactly 0.
    """
    m = np.atleast_1d(np.asarray(nu, dtype=float)) // 2
    out = np.zeros_like(m)
    freq = m > 0
    log_r = 2.0 * np.log(2.0 * math.pi * m[freq])
    top = log_r * k
    tail = np.zeros_like(log_r)
    for j in range(k):
        tail += np.exp(log_r * j - top)
    out[freq] = np.log1p(tail) + top
    return out if np.ndim(nu) else float(out[0])


def _derivative_values(m: int, kind: str, j: int, t: np.ndarray) -> np.ndarray:
    """j-th derivative of a basis function on the grid t, analytically
    (the pointwise reference behind :func:`fourier_gram_quadrature`)."""
    if kind == "constant":
        return np.ones_like(t) if j == 0 else np.zeros_like(t)
    amp = math.sqrt(2.0) * (2.0 * math.pi * m) ** j
    phase = 2.0 * math.pi * m * t + j * math.pi / 2.0
    if kind == "sine":
        return amp * np.sin(phase)
    if kind == "cosine":
        return amp * np.cos(phase)
    raise ValueError(f"unknown basis kind {kind!r}")


# nodes per block of the streamed node Gram in fourier_gram_quadrature_table
_NODE_BLOCK = 1024


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
    is the quadrature itself. The pointwise reference for
    :func:`fourier_gram_quadrature_table`.
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
    """The full quadrature Gram matrix of grade k, one row per basis index.

    The trapezoid sum of :func:`fourier_gram_quadrature` on q nodes, for all
    pairs at once. The basis is gathered at the exact integer phases (m * i)
    mod q from sine/cosine tables on phases 0..q/2, mirrored exactly to the
    rest (sin(-p) = -sin(p)). The node Gram G = E E^T / q is summed over the
    pairs (i, q - i) in blocks of _NODE_BLOCK, each pair twice, plus the
    unpaired nodes 0 and (even q) q/2 once, so no nu_max x q matrix is held;
    over a pair the sine-cosine products cancel, so that block of G is exactly
    0. The j-th derivative of a basis function is (2 pi m)^j times, up to sign,
    the function (j even) or its derivative direction (j odd: sine -> cosine,
    cosine -> -sine, constant -> 0), so the table is

        sum_{j=0}^k (w w^T)^j o G_{j mod 2},    w_nu = 2 pi floor(nu / 2),

    with G_0 the basis Gram and G_1 the Gram of the directions, both
    read out of G.
    """
    FourierBasisSpec(nu_max)
    if k < 0:
        raise ValueError(f"grade must be >= 0, got {k}")
    if q is None:
        q = _default_nodes(nu_max, k)
    _require_nodes(q, nu_max // 2, k)
    return _trapezoid_table(nu_max, k, q)


def _default_nodes(nu_max: int, k: int) -> int:
    return max(64, 4 * (nu_max // 2) * (k + 1))


def _node_gram(nu_max: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(G_0, G_1) of :func:`fourier_gram_quadrature_table` on q >= 1 nodes,
    read out of one node Gram summed over the node pairs (i, q - i)."""
    max_m = nu_max // 2
    half, pairs = q // 2, (q - 1) // 2  # node i pairs with node q - i for i = 1..pairs
    angle = (2.0 * math.pi / q) * np.arange(half + 1)
    sin_table, cos_table = math.sqrt(2.0) * np.sin(angle[: pairs + 1]), math.sqrt(2.0) * np.cos(angle)
    # phase q - p mirrors phase p; the sine is exactly 0 at the phase q/2 of an even q
    sin_table = np.concatenate([sin_table, np.zeros(half - pairs), -sin_table[:0:-1]])
    cos_table = np.concatenate([cos_table, cos_table[pairs:0:-1]])
    m = np.arange(1, max_m + 1)
    gram = np.zeros((2 * max_m + 1, 2 * max_m + 1))  # const, sin 1, cos 1, ..., sin M, cos M
    sines, evens = gram[1::2, 1::2], gram[0::2, 0::2]  # the sine-cosine block stays exactly 0
    buffer = np.ones((max_m + 1, min(_NODE_BLOCK, pairs)))  # row 0: the constant
    for start in range(1, pairs + 1, _NODE_BLOCK):
        phase = np.outer(m, np.arange(start, min(start + _NODE_BLOCK, pairs + 1))) % q
        block = buffer[:, : phase.shape[1]]
        block[1:] = sin_table[phase]
        sines += block[1:] @ block[1:].T
        block[1:] = cos_table[phase]
        evens += block @ block.T
    gram *= 2.0  # each pair stands for two equal products
    ends = cos_table[np.outer(np.arange(max_m + 1), [0, half][: 1 + (pairs < half)]) % q]
    ends[0] = 1.0  # the constant at node 0 and, for even q, node q/2, where sin is 0
    evens += ends @ ends.T
    gram /= q
    # derivative directions: index 2m (sine) -> 2m + 1 (cosine),
    # 2m + 1 (cosine) -> -(2m) (sine), 1 (constant) -> 0; 0-based below
    idx = np.arange(nu_max)
    partner = np.where(idx % 2 == 1, idx + 1, idx - 1)
    partner[0] = 0
    sign = np.where(idx % 2 == 1, 1.0, -1.0)
    sign[0] = 0.0
    return gram[:nu_max, :nu_max], gram[np.ix_(partner, partner)] * np.outer(sign, sign)


def _grade_tables(nu_max: int, k_max: int, q: int):
    """Yield the trapezoid tables of grades 0..k_max on q nodes, summed up
    in one buffer that each grade overwrites, from one node Gram."""
    g0, g1 = _node_gram(nu_max, q)
    table = g0.copy()  # the j = 0 term
    yield table
    term = np.empty_like(table)
    w = 2.0 * math.pi * (np.arange(1, nu_max + 1) // 2)
    for j in range(1, k_max + 1):
        wj = w**j
        np.outer(wj, wj, out=term)
        term *= g1 if j % 2 else g0
        table += term
        yield table


def _trapezoid_table(nu_max: int, k: int, q: int) -> np.ndarray:
    """:func:`fourier_gram_quadrature_table` at any q >= 1; the identity
    holds node by node, so also where q aliases two frequencies."""
    *_, table = _grade_tables(nu_max, k, q)  # every grade is the same buffer
    return table


def oracle_deltas(nu_max: int, k_max: int):
    """Yield (closed-form diagonal, quadrature Gram, worst scaled delta)
    for grades 0..k_max.

    Every grade is read off one node Gram, on grade k_max's default node
    count, which is alias-free for all lower grades too. The quadrature
    Gram is one buffer that the next grade overwrites; copy it to keep it.

    Deltas are measured relative to max(1, sqrt(d_nu * d_nu')) with d the
    closed-form diagonal; on the diagonal this is the plain
    max(1, closed_form) scale, and off the diagonal it compares the
    quadrature residue against the size of the two factors (the raw
    integrands reach 1e14, so an absolute delta is not meaningful there).
    """
    FourierBasisSpec(nu_max)
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    scale, resid = np.empty((nu_max, nu_max)), np.empty((nu_max, nu_max))
    for k, quad in enumerate(_grade_tables(nu_max, k_max, _default_nodes(nu_max, k_max))):
        diag = np.array([fourier_gram_closed_form(nu, nu, k) for nu in range(1, nu_max + 1)])
        root = np.sqrt(diag)  # the outer product of diag itself overflows from d ~ 1e154 on
        np.outer(root, root, out=scale)
        np.maximum(scale, 1.0, out=scale)
        np.abs(quad, out=resid)  # the closed form is exactly 0 off the diagonal
        np.fill_diagonal(resid, np.abs(diag - quad.diagonal()))
        resid /= scale
        yield diag, quad, float(resid.max())


def _log_sigma_ratio(nu_max: int, k: int) -> np.ndarray:
    """log S_k(nu) - k log sigma(nu) over nu = 1..nu_max, log sigma read
    from :func:`sigma_weight`; exactly -k log1p(1) at nu = 1."""
    _require_index(nu_max, "nu_max")
    if k < 0:
        raise ValueError(f"grade must be >= 0, got {k}")
    return _log_closed_form_diag(np.arange(1, nu_max + 1), k) - k * sigma_weight(nu_max).log_values


def ratio_trace(nu_max: int, k: int) -> np.ndarray:
    """Ratio of the Sobolev grade-k weight to sigma(nu)^k, sigma(nu) = nu^2 + 1,
    over nu = 1..nu_max.

    Evaluated in the log domain so large grades cannot overflow. Bounded
    between 2^(-k) and (1 + 4 pi^2)^k, with limit pi^(2k) along large nu;
    these bounds witness that the Sobolev ladder and the sigma-weighted
    sequence model are the same scale structure.
    """
    return np.exp(_log_sigma_ratio(nu_max, k))


def sigma_equivalence_constants(nu_max: int, k: int) -> tuple[float, float]:
    """Attained equivalence constants between the grade-k Sobolev weight
    and the k-th power of sigma, over the first nu_max indices: the
    extremes of :func:`ratio_trace`."""
    ratio = ratio_trace(nu_max, k)
    return float(ratio.min()), float(ratio.max())


def build_sobolev_space(nu_max: int, k_max: int) -> TruncatedScaleSpace:
    """The truncated Sobolev ladder: grade k is diagonal with the
    closed-form weight; grade 0 is the constant weight 1."""
    _require_index(nu_max, "nu_max")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    nu = np.arange(1, nu_max + 1)
    grades = [DiagonalGrade(Weight(_log_closed_form_diag(nu, k))) for k in range(k_max + 1)]
    return TruncatedScaleSpace(nu_max, tuple(grades))
