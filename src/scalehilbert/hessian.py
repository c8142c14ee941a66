"""Analysis of symmetric operators on a truncated scale space.

The pipeline certifies, at finite truncation, the constructive facts
behind fractal scale structures: a symmetric operator has coinciding
kernel and cokernel, its resolvent at an off-axis point is normal, its
spectral decomposition is real and orthonormal, and the weight
1 + gamma^2 built from its eigenvalues turns the graph-norm ladder into
a weighted sequence model. The final product of the module is
:func:`build_fractal_structure`, which assembles the ladder, rescales
the eigenbasis grade by grade, and reports the isometry defect onto the
diagonal model.

Every certificate of one operator reads the same factorizations, which
an :class:`OperatorAnalysis` computes lazily and at most once: the
kernel SVD, the ``eigh`` spectral data and its reconstruction residual,
the resolvent at :data:`DEFAULT_RESOLVENT_POINT` (one solve, whose
result also gives its condition guard) with its normality pair and its
consistency bound (the eigen-residuals of the ``eigh`` pairs), the
fractal weight, the graph Gram and ladder, and the graph-equivalence
constants. The certificate functions accept either a bare
:class:`ScaleOperator`, which gets a fresh analysis of its own, or an
analysis shared between them; none re-runs another.
``scalehilbert.verify.OPERATOR_CERTIFICATES`` lists them in the order
the CLI and the acceptance suite evaluate them.

Complex arithmetic appears only inside resolvent computations; every
other result is real.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .spaces import (
    GramGrade,
    TruncatedScaleSpace,
    gram_matrix,
    space_from_json,
    space_to_json,
    weighted_sequence_space,
)
from .weights import Weight

__all__ = [
    "DEFAULT_RESOLVENT_POINT",
    "SYMMETRY_TOL",
    "ScaleOperator",
    "OperatorAnalysis",
    "SpectrumError",
    "SymmetryReport",
    "KernelReport",
    "SpectralData",
    "FractalWeight",
    "ResolventData",
    "FractalStructure",
    "check_symmetry",
    "check_kernel_cokernel",
    "regularity_constant",
    "graph_inner_product",
    "graph_gram",
    "graph_ladder",
    "graph_equivalence_constants",
    "resolvent",
    "normality_defect",
    "spectral_decompose",
    "resolvent_consistency",
    "fractal_weight",
    "rescaled_basis",
    "build_fractal_structure",
    "restriction_invariance",
    "pair_isometry_certificate",
    "conjugated_diagonal",
    "operator_from_json",
    "operator_to_json",
]

# Purely imaginary points are never eigenvalues of a symmetric operator,
# so the unit imaginary point is an unconditionally safe default.
DEFAULT_RESOLVENT_POINT = 1j

# relative asymmetry (see check_symmetry) accepted by the symmetry gate
SYMMETRY_TOL = 1e-10


class SpectrumError(ValueError):
    """The requested resolvent point is on (or too close to) the spectrum."""


@dataclass(frozen=True, eq=False)
class ScaleOperator:
    """A real square matrix acting on a truncated scale space.

    The matrix holds the operator in grade-0 orthonormal coordinates.
    ``scale`` supplies the ambient ladder; ``None`` selects the graph
    default, where grade k + 1 is built from grade k through the
    operator itself.
    """

    matrix: np.ndarray
    scale: TruncatedScaleSpace | None = None

    def __post_init__(self):
        m = linalg.as_square_matrix(self.matrix, "operator matrix")
        if np.iscomplexobj(m):
            raise ValueError("operator matrix must be real")
        if not np.isfinite(m).all():
            raise ValueError("operator matrix must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if self.scale is not None and self.scale.n != self.n:
            raise ValueError(
                f"scale dimension {self.scale.n} does not match operator dimension {self.n}"
            )

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SymmetryReport:
    defect: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class KernelReport:
    """Kernel data of a square matrix. ``index`` is 0 by construction:
    ``coker_dim`` comes from the same numerical rank as ``ker_dim``. The
    measured evidence that kernel and cokernel coincide is ``subspace_angle``."""

    ker_dim: int
    coker_dim: int
    subspace_angle: float

    @property
    def index(self) -> int:
        return self.ker_dim - self.coker_dim


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigenvalues and orthonormal eigenvectors of a symmetric operator.

    ``gammas[i]`` belongs to column i of ``vectors``. ``order`` is the
    permutation that lists the pairs by nondecreasing absolute
    eigenvalue (ties: signed value, then position).
    """

    gammas: np.ndarray
    vectors: np.ndarray
    order: np.ndarray

    def __post_init__(self):
        for name in ("gammas", "vectors", "order"):
            a = np.array(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.gammas.shape[0]

    def sorted_gammas(self) -> np.ndarray:
        return self.gammas[self.order]

    def sorted_vectors(self) -> np.ndarray:
        return self.vectors[:, self.order]


@dataclass(frozen=True, eq=False)
class FractalWeight(Weight):
    """The weight 1 + gamma^2 in absolute-eigenvalue order.

    Entries are >= 1 and nondecreasing, so this is a valid scale weight;
    the eigenvalues it came from ride along in ``gammas_sorted``.
    """

    gammas_sorted: np.ndarray | None = field(default=None)

    def __post_init__(self):
        super().__post_init__()
        if self.gammas_sorted is not None:
            g = np.array(self.gammas_sorted, dtype=float)
            g.setflags(write=False)
            object.__setattr__(self, "gammas_sorted", g)


@dataclass(frozen=True, eq=False)
class ResolventData:
    """The inverse of (operator - point * identity) at an off-spectrum point."""

    point: complex
    b_matrix: np.ndarray
    residual: float

    def __post_init__(self):
        b = np.array(self.b_matrix, dtype=complex)
        b.setflags(write=False)
        object.__setattr__(self, "b_matrix", b)


def check_symmetry(op: ScaleOperator, tol: float = SYMMETRY_TOL) -> SymmetryReport:
    """Asymmetry of the operator matrix, in relative Frobenius norm.

    The antisymmetric part is measured against the symmetric part, so a
    strictly triangular matrix scores exactly 1 and a symmetric one 0.
    """
    a = op.matrix
    num = linalg.frobenius(a - a.T)
    den = linalg.frobenius(a + a.T)
    if den == 0.0:
        defect = 0.0 if num == 0.0 else float("inf")
    else:
        defect = num / den
    return SymmetryReport(defect=float(defect), tol=float(tol), passed=defect <= tol)


def check_kernel_cokernel(op: ScaleOperator, rank_tol: float | None = None) -> KernelReport:
    """Kernel and cokernel data from a singular value decomposition.

    Dimensions count singular values at or below rank_tol times the
    largest one (default n * machine epsilon). The reported angle is the
    largest principal angle between the kernel and the orthogonal
    complement of the range; for a symmetric operator the two subspaces
    coincide and the angle vanishes. The index ker_dim - coker_dim is 0
    for every square matrix, which is the truncated Fredholm statement.
    """
    u, s, vt = np.linalg.svd(op.matrix)
    if rank_tol is None:
        rank_tol = op.n * linalg.EPS
    cutoff = rank_tol * (float(s[0]) if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    kernel = vt[rank:].T
    range_perp = u[:, rank:]
    angles = linalg.principal_angles(kernel, range_perp)
    angle = float(np.max(angles)) if angles.size else 0.0
    return KernelReport(ker_dim=op.n - rank, coker_dim=op.n - rank, subspace_angle=angle)


def graph_gram(op: ScaleOperator) -> np.ndarray:
    """Gram matrix of the graph inner product, identity + A^T A, symmetrized."""
    a = op.matrix
    return linalg.sym_part(np.eye(op.n) + a.T @ a)


def graph_ladder(matrix: np.ndarray, k_max: int) -> list[np.ndarray]:
    """Grams of the graph-norm ladder: G_0 = identity and
    G_{k+1} = G_k + A^T G_k A, symmetrized at every step."""
    a = linalg.as_square_matrix(matrix, "operator matrix")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    grams = [np.eye(a.shape[0])]
    for _ in range(k_max):
        g = grams[-1]
        grams.append(linalg.sym_part(g + a.T @ g @ a))
    return grams


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class OperatorAnalysis:
    """The factorizations every certificate of one operator reads.

    Each attribute is computed on first access and kept, so one
    analysis passed to all certificates runs each factorization once.
    Build one per operator and drop it when that operator's
    certification is done; a new analysis always starts empty.
    ``symmetric`` is set once the operator passed a symmetry gate, by a
    caller that ran the gate at the tolerance it reports or by
    :attr:`symmetric_spectral`.
    """

    def __init__(self, op: ScaleOperator):
        self.op = op
        self.symmetric = False
        self._ladder = []

    @classmethod
    def of(cls, op) -> "OperatorAnalysis":
        """``op`` itself if it is an analysis, else a fresh one for it."""
        return op if isinstance(op, cls) else cls(op)

    @cached_property
    def kernel(self) -> KernelReport:
        return check_kernel_cokernel(self.op)

    @cached_property
    def resolvent(self) -> ResolventData:
        """The resolvent at :data:`DEFAULT_RESOLVENT_POINT`."""
        return resolvent(self.op)

    def resolvent_at(self, point: complex) -> ResolventData:
        """The shared resolvent at the default point, a fresh one elsewhere."""
        if complex(point) == DEFAULT_RESOLVENT_POINT:
            return self.resolvent
        return resolvent(self.op, point)

    @cached_property
    def normality(self) -> tuple[float, float]:
        """:func:`normality_defect` of the shared resolvent."""
        return normality_defect(self.resolvent)

    @cached_property
    def spectral(self) -> SpectralData:
        """``eigh`` of the symmetric part in the presentation documented
        by :func:`spectral_decompose`, without its symmetry check."""
        w, v = np.linalg.eigh(linalg.sym_part(self.op.matrix))
        n = self.op.n
        dominant = np.argmax(np.abs(v), axis=0)
        signs = np.sign(v[dominant, np.arange(n)])
        signs[signs == 0] = 1.0
        v = v * signs
        presentation = np.lexsort((np.arange(n), w, dominant))
        w = w[presentation]
        v = v[:, presentation]
        order = np.lexsort((np.arange(n), w, np.abs(w)))
        return SpectralData(gammas=w, vectors=v, order=order)

    @property
    def symmetric_spectral(self) -> SpectralData:
        """The spectral data behind the symmetry gate, which runs here
        (:func:`spectral_decompose`) unless ``symmetric`` is set."""
        if not self.symmetric:
            spectral_decompose(self)
            self.symmetric = True
        return self.spectral

    @cached_property
    def fractal_weight(self) -> FractalWeight:
        """:func:`fractal_weight` of the shared spectral data."""
        return fractal_weight(self.spectral)

    @cached_property
    def relative_reconstruction(self) -> float:
        """||A - V diag(gamma) V^T||_F / ||A||_F."""
        d = self.spectral
        residual = linalg.frobenius(self.op.matrix - d.vectors @ np.diag(d.gammas) @ d.vectors.T)
        return residual / max(linalg.frobenius(self.op.matrix), np.finfo(float).tiny)

    @cached_property
    def consistency(self) -> float:
        """:func:`resolvent_consistency` of the shared spectral data."""
        return resolvent_consistency(self, self.spectral)

    @cached_property
    def graph_gram(self) -> np.ndarray:
        return _frozen(graph_gram(self.op))

    @cached_property
    def graph_equivalence(self) -> tuple[float, float, float]:
        """:func:`graph_equivalence_constants` at the default point."""
        return graph_equivalence_constants(self)

    def ladder(self, k: int) -> list[np.ndarray]:
        """Grades 0..k of the graph ladder, extended on demand."""
        if not 0 <= k < len(self._ladder):
            self._ladder = [_frozen(g) for g in graph_ladder(self.op.matrix, k)]
        return self._ladder[: k + 1]

    def grade_grams(self, k: int) -> list[np.ndarray]:
        """Grams of grades 0..k of the ambient scale (graph ladder if none)."""
        scale = self.op.scale
        if scale is None:
            return self.ladder(k)
        if k > scale.k_max:
            raise IndexError(f"scale is missing grade {k} (has 0..{scale.k_max})")
        return [gram_matrix(scale, j) for j in range(k + 1)]


def regularity_constant(op: ScaleOperator | OperatorAnalysis, n_grade: int) -> float:
    """Best constant C with ||x||_{n+1} <= C sqrt(||Ax||_n^2 + ||x||_n^2).

    The quadratic right-hand side is norm equivalent to the literal
    (||Ax||_n + ||x||_n) within a factor sqrt(2), so C certifies the
    truncated regularity property up to that documented slack. Computed
    as the square root of the largest generalized eigenvalue between the
    grade-(n+1) Gram and the right-hand side form.
    """
    if n_grade < 0:
        raise IndexError("grade must be >= 0")
    an = OperatorAnalysis.of(op)
    grams = an.grade_grams(n_grade + 1)
    g_n, g_next = grams[n_grade], grams[n_grade + 1]
    a = an.op.matrix
    rhs = linalg.sym_part(g_n + a.T @ g_n @ a)
    _, mu_hi = linalg.extreme_generalized_eigenvalues(g_next, rhs)
    return float(np.sqrt(mu_hi))


def graph_inner_product(op: ScaleOperator, xi, eta) -> float:
    """<xi, eta> + <A xi, A eta> in grade-0 coordinates."""
    x = np.asarray(getattr(xi, "coords", xi), dtype=float).reshape(-1)
    y = np.asarray(getattr(eta, "coords", eta), dtype=float).reshape(-1)
    if x.shape != (op.n,) or y.shape != (op.n,):
        raise ValueError(
            f"vector dimensions {x.shape[0]}, {y.shape[0]} do not match operator dimension {op.n}"
        )
    a = op.matrix
    return float(x @ y + (a @ x) @ (a @ y))


def graph_equivalence_constants(
    op: ScaleOperator | OperatorAnalysis,
    point: complex = DEFAULT_RESOLVENT_POINT,
) -> tuple[float, float, float]:
    """(c_lo, c_hi, c_step1) between the grade-1 norm and the graph norm.

    c_lo and c_hi are the attained extreme generalized eigenvalues of the
    grade-1 Gram against the graph Gram, so
    c_lo ||x||_graph^2 <= ||x||_1^2 <= c_hi ||x||_graph^2 with equality
    somewhere. c_step1 is the constructive bound max(c0, |point| * c0),
    with c0 the operator norm of the resolvent at ``point`` as a map
    into grade 1; it is reported for comparison and only finiteness is
    contractual. With the graph-default scale both exact constants
    are 1.
    """
    an = OperatorAnalysis.of(op)
    g_one = an.grade_grams(1)[1]
    c_lo, c_hi = linalg.extreme_generalized_eigenvalues(g_one, an.graph_gram)
    r = an.resolvent_at(point)
    chol = linalg.cholesky_spd(g_one, "grade 1 Gram")
    c_zero = float(np.linalg.norm(chol.T @ r.b_matrix, 2))
    c_step1 = max(c_zero, abs(point) * c_zero)
    return float(c_lo), float(c_hi), float(c_step1)


def resolvent(
    op: ScaleOperator,
    point: complex = DEFAULT_RESOLVENT_POINT,
    require_off_axis: bool = True,
) -> ResolventData:
    """Invert (operator - point * identity) at a point off the spectrum.

    Real points are rejected by default: off the real axis the inverse
    exists unconditionally for symmetric operators. An exactly singular
    solve, a non-finite inverse B or n eps kappa_1 >= 1, with the 1-norm
    condition number kappa_1 = ||A - point I||_1 ||B||_1 read off the
    solve's result, raise :class:`SpectrumError`.
    """
    point = complex(point)
    if require_off_axis and point.imag == 0.0:
        raise ValueError(
            "resolvent point must lie off the real axis (pass require_off_axis=False to override)"
        )
    shifted = op.matrix - point * np.eye(op.n)
    try:
        b = np.linalg.solve(shifted, np.eye(op.n, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise SpectrumError(f"resolvent point on spectrum: {point}") from exc
    kappa = np.abs(shifted).sum(axis=0).max() * np.abs(b).sum(axis=0).max()
    if not op.n * linalg.EPS * kappa < 1.0:  # also when b holds NaN or inf
        raise SpectrumError(f"resolvent point on spectrum: {point}")
    residual = linalg.frobenius(shifted @ b - np.eye(op.n))
    return ResolventData(point=point, b_matrix=b, residual=residual)


def normality_defect(r: ResolventData) -> tuple[float, float]:
    """(commutator defect, adjoint defect) of a resolvent.

    The commutator defect ||B*B - BB*||_F / ||B||_F^2 vanishes exactly
    when B is normal. The adjoint defect compares B* with the resolvent
    at the conjugate point, which for a real operator is conj(B), so it
    is ||B^T - B||_F / ||B||_F, read from the same B as the commutator
    (no second solve). Both are zero in exact arithmetic when the
    operator is symmetric.
    """
    b = r.b_matrix
    bh = b.conj().T
    norm_b = linalg.frobenius(b)
    commutator = linalg.frobenius(bh @ b - b @ bh) / norm_b**2
    adjoint = linalg.frobenius(b.T - b) / norm_b
    return float(commutator), float(adjoint)


def spectral_decompose(op: ScaleOperator | OperatorAnalysis, tol: float = SYMMETRY_TOL) -> SpectralData:
    """Orthonormal eigendecomposition with a deterministic presentation.

    Columns are sign-fixed (largest-magnitude entry positive) and listed
    by their dominant coordinate, so a diagonal matrix decomposes into
    the standard basis in the original coordinate order. The returned
    permutation ``order`` re-lists the pairs by nondecreasing |gamma|.

    Symmetry is checked at ``tol`` on every call; a failure raises
    ValueError. The ``eigh`` comes from the operator's
    :class:`OperatorAnalysis`, so it runs once per analysis. How well
    the pairs reconstruct the operator and agree with the resolvent
    eigenproblem are certificates of their own
    (:attr:`OperatorAnalysis.relative_reconstruction`,
    :func:`resolvent_consistency`).
    """
    an = OperatorAnalysis.of(op)
    report = check_symmetry(an.op, tol)
    if not report.passed:
        raise ValueError(
            f"operator is not symmetric: defect {report.defect:.3e} exceeds tol {tol:.3e}"
        )
    return an.spectral


def resolvent_consistency(
    op: ScaleOperator | OperatorAnalysis,
    data: SpectralData,
    point: complex = DEFAULT_RESOLVENT_POINT,
) -> float:
    """Bound on the mismatch between the eigenvalues gamma and
    point + 1/mu, mu the eigenvalues of the resolvent B at ``point``.

    Each pair (gamma_i, v_i) claims the eigenpair (1/(gamma_i - point),
    v_i) of B. B is normal (the resolvent-normality certificate), so an
    eigenvalue of B lies within |rho_i - 1/(gamma_i - point)| + e_i of
    the claim, with rho_i = v_i* B v_i the Rayleigh quotient and s_i the
    norm of B v_i - rho_i v_i: e_i = s_i^2 / (g_i - s_i) (Temple) where
    the distance g_i from the claim to the other claims exceeds 2 s_i,
    else e_i = s_i (Bauer-Fike). Carried to first order onto gamma, the
    defect is max_i of that radius times |gamma_i - point|^2 /
    (1 + |gamma_i|); at the default point, wherever it is at most 1e-8
    it is within 1.5e-8 relative of the exact bound. Each pair is
    bounded by its own residual, so the defect stays of order
    eps ||A|| however wide the spectrum. The resolvent at the default
    point is the analysis's shared one.
    """
    b = OperatorAnalysis.of(op).resolvent_at(point).b_matrix
    v, shift = data.vectors, data.gammas - point
    mu = 1.0 / shift
    r = b @ v - v * mu
    rq_offset = np.einsum("ij,ij->j", v.conj(), r)
    s = np.linalg.norm(r - v * rq_offset, axis=0)
    g = np.abs(np.subtract.outer(mu, mu))
    np.fill_diagonal(g, np.inf)
    g = g.min(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.where(g > 2.0 * s, s * s / (g - s), s)
    dev = (np.abs(rq_offset) + radius) * np.abs(shift) ** 2 / (1.0 + np.abs(data.gammas))
    return float(dev.max())


def fractal_weight(data: SpectralData) -> FractalWeight:
    """The weight 1 + gamma^2, listed in |gamma|-sorted order.

    Stored in log scale so huge eigenvalues stay finite: above |gamma| = 1
    the log is taken as 2 log|gamma| + log1p(gamma^-2), which never forms
    gamma^2 and so survives even |gamma| past the square-root of the
    double-precision range. Nondecreasing because the sort is by |gamma|.
    """
    g = data.sorted_gammas()
    abs_g = np.abs(g)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        big = 2.0 * np.log(abs_g) + np.log1p(abs_g**-2.0)
        logs = np.where(abs_g > 1.0, big, np.log1p(g * g))
    return FractalWeight(
        logs,
        growth_note="1 + gamma^2, |gamma| nondecreasing",
        gammas_sorted=g,
    )


def rescaled_basis(data: SpectralData, fw: FractalWeight, k: int) -> np.ndarray:
    """Eigenvectors in |gamma| order, column nu scaled by weight^(-k/2).

    The scaling happens in the log domain, so high grades of rapidly
    growing weights do not underflow prematurely.
    """
    if k < 0:
        raise ValueError("grade must be >= 0")
    factors = np.exp(-0.5 * k * fw.log_values)
    return data.sorted_vectors() * factors


@dataclass(frozen=True, eq=False)
class FractalStructure:
    """Graph-norm ladder of an operator plus its diagonal model.

    ``mapping`` sends grade-0 coordinates to the diagonal model's
    coordinates (the analysis map onto the sorted eigenbasis).
    ``deviations[k]`` is the Frobenius distance from identity of the
    grade-k Gram of the rescaled basis; small deviations certify that
    the ladder is scale isometric to the weighted sequence model (the
    fractal certificate of ``scalehilbert.verify``).
    """

    space: TruncatedScaleSpace
    target: TruncatedScaleSpace
    weight: FractalWeight
    spectral: SpectralData
    mapping: np.ndarray
    deviations: tuple


def build_fractal_structure(op: ScaleOperator | OperatorAnalysis, k_max: int) -> FractalStructure:
    """Assemble the graph-norm ladder and certify its diagonal model.

    Grade k + 1 is grade k plus the operator-transported grade k. For
    every grade up to k_max the rescaled eigenbasis is checked to be
    orthonormal; the recorded deviations are the certificate that the
    ladder carries the fractal structure of the weight 1 + gamma^2.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    an = OperatorAnalysis.of(op)
    n = an.op.n
    data = an.symmetric_spectral
    fw = an.fractal_weight
    grams = an.ladder(k_max)
    space = TruncatedScaleSpace(n, tuple(GramGrade(g) for g in grams))
    target = weighted_sequence_space(fw, k_max)
    deviations = []
    for k, g in enumerate(grams):
        basis = rescaled_basis(data, fw, k)
        deviations.append(linalg.frobenius(basis.T @ g @ basis - np.eye(n)))
    return FractalStructure(
        space=space,
        target=target,
        weight=fw,
        spectral=data,
        mapping=data.sorted_vectors().T,
        deviations=tuple(float(d) for d in deviations),
    )


def restriction_invariance(op: ScaleOperator | OperatorAnalysis) -> float:
    """Frobenius distance between the operator's matrix in the graph-
    rescaled basis (graph inner product) and in the plain eigenbasis
    (grade-0 inner product); both equal diag(gamma) in exact arithmetic,
    so the operator and its grade-1 restriction are the same operator.
    """
    an = OperatorAnalysis.of(op)
    data = an.symmetric_spectral
    basis = rescaled_basis(data, an.fractal_weight, 1)
    in_graph = basis.T @ an.graph_gram @ (an.op.matrix @ basis)
    in_flat = np.diag(data.sorted_gammas())
    return linalg.frobenius(in_graph - in_flat)


def pair_isometry_certificate(op: ScaleOperator | OperatorAnalysis) -> float:
    """Largest entrywise relative deviation of the eigenbasis graph Gram
    from diag(1 + gamma^2); zero means the eigenbasis carries the pair
    (grade 0, graph norm) isometrically onto the weighted model."""
    an = OperatorAnalysis.of(op)
    data = an.symmetric_spectral
    vs = data.sorted_vectors()
    actual = vs.T @ an.graph_gram @ vs
    g = data.sorted_gammas()
    expected = np.diag(1.0 + g * g)
    dev = np.abs(actual - expected) / np.maximum(1.0, np.abs(expected))
    return float(dev.max())


def conjugated_diagonal(diag, seed: int, scale=None) -> ScaleOperator:
    """Q^T diag(d) Q for a seeded random orthogonal Q (PCG64 generator)."""
    d = np.asarray(diag, dtype=float).reshape(-1)
    rng = np.random.default_rng(seed)
    q = linalg.random_orthogonal(d.shape[0], rng)
    return ScaleOperator(q.T @ np.diag(d) @ q, scale)


def operator_to_json(op: ScaleOperator) -> dict:
    scale = "graph_default" if op.scale is None else space_to_json(op.scale)
    return {
        "n": op.n,
        "kind": "dense",
        "matrix": [[float(v) for v in row] for row in op.matrix],
        "scale": scale,
    }


def operator_from_json(obj: dict) -> ScaleOperator:
    """Load {"n", "kind": "dense"|"diagonal"|"conjugated_diagonal", ...}.

    Dense operators carry "matrix", diagonal ones "diag", conjugated
    diagonal ones "diag" plus "seed". "scale" is a space object or
    "graph_default".
    """
    n = int(obj["n"])
    kind = obj.get("kind", "dense")
    raw_scale = obj.get("scale", "graph_default")
    scale = None if raw_scale == "graph_default" else space_from_json(raw_scale)
    if kind == "dense":
        matrix = np.asarray(obj["matrix"], dtype=float)
    elif kind == "diagonal":
        matrix = np.diag(np.asarray(obj["diag"], dtype=float))
    elif kind == "conjugated_diagonal":
        op = conjugated_diagonal(obj["diag"], int(obj["seed"]), scale)
        if op.n != n:
            raise ValueError(f"operator has dimension {op.n}, expected n={n}")
        return op
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    if matrix.shape != (n, n):
        raise ValueError(f"operator has shape {matrix.shape}, expected ({n}, {n})")
    return ScaleOperator(matrix, scale)
