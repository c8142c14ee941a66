"""
From a symmetric operator to its fractal weight
===============================================

Pipeline walk-through on one random symmetric matrix: certify symmetry,
kernel = cokernel, a normal resolvent, and a consistent spectral
decomposition, then build the graph-norm ladder and read off the weight
1 + gamma^2 that turns it into a weighted sequence model.
"""

import numpy as np

from scalehilbert import (
    SYMMETRY_TOL,
    GramGrade,
    OperatorAnalysis,
    ScaleOperator,
    TruncatedScaleSpace,
    build_fractal_structure,
    check_kernel_cokernel,
    fractal_weight,
    graph_ladder,
    is_scale_isometric,
    normality_defect,
    resolvent_consistency,
    spectral_decompose,
    weighted_sequence_space,
)

rng = np.random.default_rng(1729)
n = 24
b = rng.standard_normal((n, n))
op = ScaleOperator((b + b.T) / (2 * np.sqrt(n)))
# one analysis up to grade 3 holds every factorization the steps below
# read, so the run makes one eigh and one resolvent inversion
an = OperatorAnalysis(op, 3)

# symmetry first; everything downstream assumes it
sym = an.symmetry
print(f"symmetry defect {sym:.3e} (tol {SYMMETRY_TOL:.0e}): {'ok' if sym <= SYMMETRY_TOL else 'FAIL'}")

# kernel and cokernel coincide for symmetric matrices; the principal
# angle between them is the quantitative witness
kernel = check_kernel_cokernel(an)
print(f"ker_dim {kernel.ker_dim}, coker_dim {kernel.coker_dim}, angle {kernel.subspace_angle:.2e}")

# the resolvent at the unit imaginary point exists unconditionally and
# must be normal, with adjoint equal to the conjugate-point resolvent
commutator, adjoint = normality_defect(an.resolvent)
print(f"resolvent residual {an.resolvent_residual:.2e}, commutator {commutator:.2e}, adjoint {adjoint:.2e}")

# eigenvalues from the direct decomposition against the resolvent route
data = spectral_decompose(an)
dev = resolvent_consistency(an)
print(f"eigenvalues in [{data.gammas.min():+.4f}, {data.gammas.max():+.4f}], "
      f"resolvent cross-check {dev:.2e}")

# the fractal weight is 1 + gamma^2 in |gamma| order; it seeds the
# weighted sequence model the graph ladder is isometric to
fw = fractal_weight(data)
print("fractal weight, first five entries:", np.round(fw.values()[:5], 4))

print("per-grade Gram deviations of the rescaled eigenbasis:")
for k, d in enumerate(build_fractal_structure(an)):
    print(f"  grade {k}: {d:.3e}")

# the certificate above reads the ladder Grams only; as scale spaces, the
# graph ladder maps onto the weighted model by the |gamma|-sorted eigenbasis
ladder = TruncatedScaleSpace(n, tuple(GramGrade(g) for g in graph_ladder(op.matrix, 3)))
model = weighted_sequence_space(fw, 3)
report = is_scale_isometric(ladder, model, data.vectors.T)
print(f"scale isometry onto the weighted model: {report.is_isometric} "
      f"(worst grade defect {max(report.defects):.3e})")
