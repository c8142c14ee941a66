"""Finite truncations of scale Hilbert spaces.

Weighted sequence models, graded inner-product ladders, the circle
Sobolev example with its quadrature oracle, and the certificate
pipeline that turns a symmetric operator into its fractal weight
1 + gamma^2 and the isometry onto the weighted model.
"""

from .hessian import (
    DEFAULT_RESOLVENT_POINT,
    FractalStructure,
    FractalWeight,
    KernelReport,
    OperatorAnalysis,
    ResolventData,
    ScaleOperator,
    SpectralData,
    SpectrumError,
    SymmetryReport,
    build_fractal_structure,
    check_kernel_cokernel,
    check_symmetry,
    conjugated_diagonal,
    fractal_weight,
    graph_equivalence_constants,
    graph_gram,
    graph_inner_product,
    graph_ladder,
    normality_defect,
    operator_from_json,
    operator_to_json,
    pair_isometry_certificate,
    regularity_constant,
    rescaled_basis,
    resolvent,
    resolvent_consistency,
    restriction_invariance,
    spectral_decompose,
)
from .sobolev_circle import (
    FourierBasisSpec,
    build_sobolev_space,
    fourier_gram_closed_form,
    fourier_gram_quadrature,
    fourier_gram_quadrature_table,
    oracle_delta,
    ratio_trace,
    sigma_equivalence_constants,
)
from .spaces import (
    DiagonalGrade,
    GradedVector,
    GramGrade,
    IsometryReport,
    TruncatedScaleSpace,
    common_orthogonal_basis,
    diagonal_equivalence_constants,
    equivalence_constants,
    gram_matrix,
    inclusion_singular_values,
    inner_product,
    is_scale_isometric,
    shift,
    space_from_json,
    space_to_json,
    validate_space,
    weighted_sequence_space,
)
from .verify import (
    DEFAULT_SEED,
    CriterionResult,
    VerifySummary,
    analyze_operator_batch,
    run_verify_all,
    standard_operator_set,
)
from .weights import (
    Weight,
    WeightValidation,
    WeightViolation,
    constant_weight,
    poly_plus_one_weight,
    sigma_weight,
    validate_weight,
    weight_from_json,
    weight_power,
    weight_to_json,
)

__version__ = "0.1.0"
