"""The numeric trapezoid oracle for the circle Sobolev Grams, test-only.

:func:`scalehilbert.sobolev_circle.oracle_deltas` reads the trapezoid
table off the exactness theorem: at q > 2 max_m every cosine sum
S(p) / q is 1 at p = 0 and 0 elsewhere, so the table is diagonal with
the derivative amplitudes on its diagonal. This module sums those cosines
numerically, at any q, including node counts that alias two frequencies,
so the tests check the theorem (and the oracle built on it) against the
trapezoid sum itself. :func:`fourier_gram_quadrature` samples the
derivatives pointwise and is the reference for the table.

The cosine sums run over panels of frequencies (outer) and blocks of node
pairs (inner, in node order), with phases offset from a per-panel table, so
each sum adds the same block sums in the same order whatever the panel size
(:func:`_gram_blocks`). The table is formed in row panels of its sine and
cosine blocks (:func:`_grade_panels`), each holding grades 0..k_max in turn.
"""

import math

import numpy as np

from scalehilbert.sobolev_circle import FourierBasisSpec, _require_index


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
