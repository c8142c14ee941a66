"""Exact equivalence constants of an explicit scale, for the test suite.

For a double operator A and double Gram matrices G_k, G_{k+1} of an explicit
scale, :func:`equivalence_extremes` returns the extreme eigenvalues of the
pencil G_{k+1} v = mu (G_k + A^T G_k A) v: the constants that
``OperatorAnalysis.equivalence[k]`` holds, computed in the eigenbasis, here by the
direct route, for the double entries as given. mpmath carries DIGITS = 50
significant digits: the products of doubles in the form are exact to about
that many, and the Cholesky reduction of a form of condition kappa loses
about log10(kappa) of them, so a reference is good to 50 - log10(kappa)
digits, 32 on the unit-scale input with top entry 1e9 (kappa about 1e18).
The cost grows as n^3 at 50 digits; the tests use n <= 9.

Nothing here imports ``scalehilbert``: the grades come in as dense arrays.
"""

import mpmath
import numpy as np

DIGITS = 50


def _matrix(m) -> mpmath.matrix:
    """The double matrix ``m`` as an mpmath matrix, entry for entry exactly."""
    return mpmath.matrix([[mpmath.mpf(float(x)) for x in row] for row in np.asarray(m, dtype=float)])


def equivalence_extremes(a, g, g_next) -> tuple:
    """(c_lo, c_hi), as mpf, the smallest and largest mu of
    g_next v = mu (g + a^T g a) v, for symmetric g_next and SPD g, at DIGITS
    digits: mu are the eigenvalues of L^-1 g_next L^-T with L the Cholesky
    factor of the form."""
    with mpmath.workdps(DIGITS):
        a, g, g_next = _matrix(a), _matrix(g), _matrix(g_next)
        l_inv = mpmath.inverse(mpmath.cholesky(g + a.T * g * a))
        c = l_inv * g_next * l_inv.T
        mu = sorted(mpmath.eigsy((c + c.T) / 2, eigvals_only=True))
        return +mu[0], +mu[-1]
