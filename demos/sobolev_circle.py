"""
Circle Sobolev norms in the Fourier basis
=========================================

Grade k of the Sobolev ladder sums the squared L2 norms of the first k
derivatives. In the real Fourier basis every grade is diagonal, with a
closed-form entry per basis index. This demo checks the closed form
against a quadrature oracle and watches the weight ratio settle onto
the quadratic model.
"""

import numpy as np

from scalehilbert import (
    build_sobolev_space,
    fourier_gram_closed_form,
    inclusion_singular_values,
    oracle_deltas,
    ratio_trace,
    sigma_equivalence_constants,
)

nu_max, k_max = 16, 3

# the closed form says <e_nu, e_nu>_k = sum_{j<=k} (2 pi m)^(2j), m = nu // 2
print("closed-form diagonal, grade 1:")
diag = [fourier_gram_closed_form(nu, nu, 1) for nu in range(1, 8)]
print(" ", np.array(diag))

# a periodic trapezoid rule is exact for trigonometric polynomials, so it
# serves as an independent oracle for every Gram entry; one set of
# cosine sums gives every grade
for k, (_, _, delta) in enumerate(oracle_deltas(nu_max, k_max)):
    print(f"grade {k}: worst scaled quadrature delta {delta:.3e}")

# the whole ladder as a truncated scale space; the inclusion of grade k
# into grade k-1 is compact in the limit, visible here as singular values
# decaying like 1/nu
space = build_sobolev_space(nu_max, k_max)
sv = inclusion_singular_values(space, 1)
print("inclusion singular values (grade 1 -> 0), largest five:")
print(" ", sv[:5])

# dividing the grade-k weight by (nu^2 + 1)^k gives a ratio trapped in
# [2^-k, (1 + 4 pi^2)^k] that tends to pi^(2k): the Sobolev ladder and the
# weighted sequence model are the same scale structure
for k in (1, 2):
    trace = ratio_trace(4096, k)
    c_lo, c_hi = sigma_equivalence_constants(4096, k)
    print(
        f"grade {k}: ratio starts {trace[0]:.6f}, ends {trace[-1]:.6f}, "
        f"limit pi^{2 * k} = {np.pi ** (2 * k):.6f}"
    )
    print(f"  attained equivalence constants [{c_lo:.6f}, {c_hi:.6f}]")
