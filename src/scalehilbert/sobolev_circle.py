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
oracle writes every product of two basis functions as a sum of two cosines and
sums those cosines over the nodes, at exact integer phases and over the node
pairs (i, q - i): the node set is symmetric under t -> -t, so the sine-cosine
block, a sum of odd integrands, is exactly 0. Every grade is read off those
cosine sums through the derivative amplitudes, identities of the integrands at
each node, so the table is the trapezoid sum itself and never reads the closed
form it checks. The scalar :func:`fourier_gram_quadrature` is its pointwise
reference.

The cosine sums run over panels of frequencies (outer) and blocks of node
pairs (inner, in node order), with phases offset from a per-panel table, so
each sum adds the same block sums in the same order whatever the panel size
(:func:`_gram_blocks`). The table is formed in row panels of its sine and
cosine blocks (:func:`_grade_panels`), each holding grades 0..k_max in turn.
One run of the oracle (:func:`oracle_deltas`) sums the cosines once, at grade
k_max's node count, and reduces every panel to its diagonal and worst scaled
delta, so it forms no n x n array; the full table is written from the same panels.
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


def _log_geometric_sum(log_r: np.ndarray, k: int) -> np.ndarray:
    """log sum_{j=0}^k r^j, elementwise, from log r >= log(4 pi^2)."""
    top = log_r * k
    tail = np.zeros_like(log_r)
    for j in range(k):
        tail += np.exp(log_r * j - top)
    return np.log1p(tail) + top


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
    out[freq] = _log_geometric_sum(2.0 * np.log(2.0 * math.pi * m[freq]), k)
    return out if np.ndim(nu) else float(out[0])


def _log_closed_form_grades(nu: np.ndarray):
    """k -> :func:`_log_closed_form_diag` over a run of consecutive indices
    nu, bitwise, evaluated once per frequency m = nu // 2 from one log r
    shared by every grade."""
    m = nu // 2
    start = int(m[0])
    log_r = 2.0 * np.log(2.0 * math.pi * np.arange(max(start, 1), m[-1] + 1.0))
    lead, index = [0.0] if start == 0 else [], m - start  # the constant function has log 1 = 0
    return lambda k: np.concatenate((lead, _log_geometric_sum(log_r, k)))[index]


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


# nodes per block of the cosine sums in fourier_gram_quadrature_table
_NODE_BLOCK = 256
# frequencies per panel of the cosine sums, and block rows per row panel in _grade_panels
_ROW_PANEL = 32


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
    pairs at once. Every product of two basis functions is a sum of two
    cosines (2 sin a sin b = cos(a - b) - cos(a + b), 2 cos a cos b =
    cos(a - b) + cos(a + b)), so the basis Gram G_0 is read off the cosine
    sums S(p) = sum_i cos(2 pi p i / q), p = 0..2 floor(nu_max / 2):

        sine block (S(m - m') - S(m + m')) / q,  cosine block (S(m - m') + S(m + m')) / q,
        constant-cosine sqrt(2) S(m) / q,        constant-constant S(0) / q = 1,

    and the sine-cosine block, a sum of odd integrands over a node set
    symmetric under t -> -t, is never written, so it is exactly 0. Each S(p)
    is gathered at the exact integer phases (p * i) mod q from a cosine table
    on phases 0..q/2, mirrored exactly to the rest, and summed over the node
    pairs (i, q - i) in blocks of _NODE_BLOCK, in node order, for a panel of
    frequencies at a time (:func:`_gram_blocks`). The j-th derivative of a basis
    function is (2 pi m)^j times, up to sign, the function (j even) or its
    derivative direction (j odd: sine -> cosine, cosine -> -sine, constant ->
    0), so the table is

        sum_{j=0}^k (w w^T)^j o G_{j mod 2},    w_nu = 2 pi floor(nu / 2),

    with G_1, the Gram of the directions, G_0 with its sine and cosine
    blocks swapped and its constant row zeroed. The sine and cosine blocks
    are written row panel by row panel (:func:`_grade_panels`).
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


def _gram_blocks(max_m: int, q: int) -> np.ndarray:
    """S(p) / q for p = 0..2 max_m, the cosine sums that every block of G_0
    in :func:`fourier_gram_quadrature_table` is read from, on q >= 1 nodes.
    Panels of _ROW_PANEL frequencies p (outer) form the offsets (p j) mod q,
    j < _NODE_BLOCK, once; node block i0.. (inner, in node order) reads its
    phases, those plus (p i0) mod q < 2q, from the cosine table repeated twice.
    Each S(p) adds the same block sums in the same order whatever the panel."""
    half, pairs = q // 2, (q - 1) // 2  # node i pairs with node q - i for i = 1..pairs
    cos_table = np.cos((2.0 * math.pi / q) * np.arange(half + 1))
    cos_table = np.concatenate([cos_table, cos_table[pairs:0:-1]])  # phase q - p mirrors phase p
    cos_twice = np.concatenate([cos_table, cos_table])  # phases 0..2q - 1, so no % q per node
    p = np.arange(2 * max_m + 1)
    sums = np.zeros(2 * max_m + 1)
    for first in range(0, len(p), _ROW_PANEL):
        rows, panel = p[first : first + _ROW_PANEL, None], sums[first : first + _ROW_PANEL]
        offsets = rows * np.arange(min(_NODE_BLOCK, pairs)) % q
        for start in range(1, pairs + 1, _NODE_BLOCK):
            panel += cos_twice[offsets[:, : pairs + 1 - start] + rows * start % q].sum(axis=1)
    sums *= 2.0  # each pair stands for two equal terms
    sums += 1.0  # node 0
    if pairs < half:
        sums += cos_table[p * half % q]  # node q/2 of an even q
    sums /= q
    return sums


def _constant_row(s: np.ndarray, nu_max: int) -> np.ndarray:
    """Row 0 of every grade's table at the cosines, sqrt(2) S(m) / q."""
    return math.sqrt(2.0) * s[1 : (nu_max - 1) // 2 + 1]


def _grade_panels(s: np.ndarray, nu_max: int, k_max: int):
    """Yield (k, first, sine rows, cosine rows) of the trapezoid tables of
    grades 0..k_max, read off the cosine sums s of :func:`_gram_blocks`: the
    rows first.. (frequencies first + 1..) of the sine and cosine blocks, up
    to _ROW_PANEL of them. Each panel adds the grades in turn into one pair
    of buffers, so a grade overwrites the last; copy a panel to keep it.
    """
    sines_n, cosines_n = nu_max // 2, (nu_max - 1) // 2
    m = np.arange(1, sines_n + 1)
    w = 2.0 * math.pi * m
    for first in range(0, sines_n, _ROW_PANEL):
        rows = m[first : first + _ROW_PANEL, None]
        near, far = s[np.abs(rows - m)], s[rows + m]
        g0 = near - far, near + far  # the rows of G_0's sine and cosine blocks
        panels = np.zeros((len(rows), sines_n)), np.zeros((min(len(rows), cosines_n - first), cosines_n))
        for j in range(k_max + 1):
            wj = w**j
            # G_1 swaps the blocks: sine -> cosine, cosine -> -sine (the signs cancel in pairs)
            for panel, block in zip(panels, g0[::-1] if j % 2 else g0):
                r, c = panel.shape
                panel += np.outer(wj[first : first + r], wj[:c]) * block[:r, :c]
            yield j, first, *panels


def _trapezoid_table(nu_max: int, k: int, q: int) -> np.ndarray:
    """:func:`fourier_gram_quadrature_table` at any q >= 1; the identities
    hold node by node, so also where q aliases two frequencies."""
    s = _gram_blocks(nu_max // 2, q)
    table = np.zeros((nu_max, nu_max))  # the sine-cosine entries stay exactly 0
    table[0, 0] = s[0]  # the constant's derivatives are 0
    table[0, 2::2] = table[2::2, 0] = _constant_row(s, nu_max)
    blocks = table[1::2, 1::2], table[2::2, 2::2]  # sines 1..nu_max // 2, cosines 1..(nu_max - 1) // 2
    for grade, first, *panels in _grade_panels(s, nu_max, k):
        if grade == k:
            for block, panel in zip(blocks, panels):
                block[first : first + len(panel)] = panel
    return table


def oracle_deltas(nu_max: int, k_max: int):
    """Yield (closed-form diagonal, quadrature diagonal, worst scaled delta)
    for grades 0..k_max.

    Every grade is read off one set of cosine sums, on grade k_max's default
    node count, which is alias-free for all lower grades too, and reduced
    row panel by row panel (:func:`_grade_panels`), so no n x n array is
    formed.

    Deltas are measured relative to sqrt(d_nu * d_nu') with d the
    closed-form diagonal, which is >= 1, so the scale is >= 1 too; on the
    diagonal this is the closed form itself, and off the diagonal it
    compares the quadrature residue against the size of the two factors
    (the raw integrands reach 1e14, so an absolute delta is not meaningful
    there). The residue is read per block: the constant row, the sine block
    and the cosine block; the other entries are exactly 0 on both sides.
    """
    FourierBasisSpec(nu_max)
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    s = _gram_blocks(nu_max // 2, _default_nodes(nu_max, k_max))
    # the closed form reads nu only through m = nu // 2: one call per m, at nu = 1, 2, 4, ..
    heads, freq = [1, *range(2, nu_max + 1, 2)], np.arange(1, nu_max + 1) // 2
    diags = [np.array([fourier_gram_closed_form(nu, nu, k) for nu in heads])[freq] for k in range(k_max + 1)]
    roots = [np.sqrt(diag) for diag in diags]  # the outer product of diag itself overflows from d ~ 1e154 on
    quads = np.empty((k_max + 1, nu_max))
    quads[:, 0] = s[0]
    row = np.abs(_constant_row(s, nu_max))
    worst = [[abs(diag[0] - s[0]), (row / root[2::2]).max(initial=0.0)] for diag, root in zip(diags, roots)]  # d_1 = 1
    for k, first, *panels in _grade_panels(s, nu_max, k_max):
        for b, panel in zip((1, 2), panels):
            i = np.arange(len(panel))
            quad = quads[k, b::2][first : first + len(panel)]
            quad[:] = panel[i, first + i]
            resid = np.abs(panel)  # the closed form is exactly 0 off the diagonal
            resid[i, first + i] = np.abs(diags[k][b::2][first + i] - quad)
            root = roots[k][b::2]
            resid /= np.outer(root[first : first + len(panel)], root[: panel.shape[1]])
            worst[k].append(resid.max(initial=0.0))
    for diag, quad, deltas in zip(diags, quads, worst):
        yield diag, quad, float(np.max(deltas))


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
