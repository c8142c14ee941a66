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
kernel SVD (singular values, plus vectors only when there is a kernel),
the ``eigh`` spectral data and its reconstruction residual,
the resolvent at :data:`DEFAULT_RESOLVENT_POINT` (one solve, whose
result also gives its condition guard) with its normality pair and its
consistency bound (the eigen-residuals of the ``eigh`` pairs), the
fractal weight, the graph ladder and the graph-equivalence constants.
The graph form has one definition, :func:`graph_ladder`: the graph Gram
I + A^T A is its grade 1. The certificate functions accept either a bare
:class:`ScaleOperator`, which gets a fresh analysis of its own, or an
analysis shared between them; none re-runs another.
``scalehilbert.verify.OPERATOR_CERTIFICATES`` lists them in the order
the CLI and the acceptance suite evaluate them.

Complex arithmetic appears only inside resolvent computations; every
other result is real.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .spaces import TruncatedScaleSpace, gram_matrix, space_from_json
from .weights import Weight, _json_int, _json_numbers, json_field

__all__ = [
    "DEFAULT_RESOLVENT_POINT",
    "SYMMETRY_TOL",
    "ScaleOperator",
    "OperatorAnalysis",
    "SpectrumError",
    "SymmetryReport",
    "KernelReport",
    "SpectralData",
    "ResolventData",
    "FractalStructure",
    "check_symmetry",
    "check_kernel_cokernel",
    "regularity_constant",
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
    """:func:`scalehilbert.linalg.symmetry_defect` of the operator matrix,
    in [0, 1], against ``tol``."""
    defect = linalg.symmetry_defect(op.matrix)
    return SymmetryReport(defect=float(defect), tol=float(tol), passed=defect <= tol)


def check_kernel_cokernel(op: ScaleOperator) -> KernelReport:
    """Kernel and cokernel data from a singular value decomposition.

    Dimensions count singular values at or below n * machine epsilon
    times the largest one. The reported angle is the
    largest principal angle between the kernel and the orthogonal
    complement of the range; for a symmetric operator the two subspaces
    coincide and the angle vanishes. The index ker_dim - coker_dim is 0
    for every square matrix, which is the truncated Fredholm statement.

    The rank comes from a values-only SVD. At full rank both subspaces
    are empty and the angle is 0, so no singular vectors are computed;
    otherwise one full SVD gives the kernel and the range complement as
    orthonormal slices of V and U, cut at that same rank.
    """
    s = np.linalg.svd(op.matrix, compute_uv=False)
    cutoff = op.n * linalg.EPS * (float(s[0]) if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    if rank == op.n:
        return KernelReport(ker_dim=0, coker_dim=0, subspace_angle=0.0)
    u, _, vt = np.linalg.svd(op.matrix)
    angle = float(np.max(linalg.principal_angles(vt[rank:].T, u[:, rank:])))
    return KernelReport(ker_dim=op.n - rank, coker_dim=op.n - rank, subspace_angle=angle)


def graph_ladder(matrix: np.ndarray, k_max: int) -> list[np.ndarray]:
    """Grams of the graph-norm ladder: G_0 = identity and
    G_{k+1} = G_k + A^T G_k A, symmetrized at every step. Grade 1 is the
    graph Gram identity + A^T A of the graph form <x, y> + <Ax, Ay>,
    formed without the product through G_0 = I."""
    a = linalg.as_square_matrix(matrix, "operator matrix")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    grams = [np.eye(a.shape[0])]
    for k in range(k_max):
        g = grams[-1]
        grams.append(linalg.sym_part(g + (a.T @ a if k == 0 else a.T @ g @ a)))
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
    def fractal_weight(self) -> Weight:
        """:func:`fractal_weight` of the shared spectral data."""
        return fractal_weight(self.spectral)

    @cached_property
    def relative_reconstruction(self) -> float:
        """||A - V diag(gamma) V^T||_F / ||A||_F."""
        d = self.spectral
        residual = linalg.frobenius(self.op.matrix - (d.vectors * d.gammas) @ d.vectors.T)
        return residual / max(linalg.frobenius(self.op.matrix), np.finfo(float).tiny)

    @cached_property
    def consistency(self) -> float:
        """:func:`resolvent_consistency` of the shared spectral data."""
        return resolvent_consistency(self, self.spectral)

    @cached_property
    def graph_equivalence(self) -> tuple[float, float, float]:
        """:func:`graph_equivalence_constants` of the operator."""
        return graph_equivalence_constants(self)

    def ladder(self, k: int) -> list[np.ndarray]:
        """Grades 0..k of the graph ladder, extended on demand."""
        if not 0 <= k < len(self._ladder):
            self._ladder = [_frozen(g) for g in graph_ladder(self.op.matrix, k)]
        return self._ladder[: k + 1]


def regularity_constant(op: ScaleOperator | OperatorAnalysis, n_grade: int) -> float:
    """Best constant C with ||x||_{n+1} <= C sqrt(||Ax||_n^2 + ||x||_n^2).

    The quadratic right-hand side is norm equivalent to the literal
    (||Ax||_n + ||x||_n) within a factor sqrt(2), so C certifies the
    truncated regularity property up to that documented slack. Computed
    as the square root of the largest generalized eigenvalue between the
    grade-(n+1) Gram of the explicit scale and the right-hand side form.

    Under the graph default C is exactly 1 and nothing is solved: grade
    n + 1 of the graph ladder is sym_part(G_n + A^T G_n A), which is the
    right-hand side form itself.
    """
    if n_grade < 0:
        raise IndexError("grade must be >= 0")
    an = OperatorAnalysis.of(op)
    scale = an.op.scale
    if scale is None:
        return 1.0
    g_n, g_next = gram_matrix(scale, n_grade), gram_matrix(scale, n_grade + 1)
    a = an.op.matrix
    rhs = linalg.sym_part(g_n + a.T @ g_n @ a)
    _, mu_hi = linalg.extreme_generalized_eigenvalues(g_next, rhs)
    return float(np.sqrt(mu_hi))


def graph_equivalence_constants(op: ScaleOperator | OperatorAnalysis) -> tuple[float, float, float]:
    """(c_lo, c_hi, c_step1) between the grade-1 norm and the graph norm.

    c_lo and c_hi are the attained extreme generalized eigenvalues of the
    grade-1 Gram of the explicit scale against the graph Gram (grade 1 of
    the graph ladder), so c_lo ||x||_graph^2 <= ||x||_1^2 <=
    c_hi ||x||_graph^2 with equality somewhere. c_step1 is the
    constructive bound max(c0, |i| c0) = c0, with c0 the operator norm
    of the resolvent at :data:`DEFAULT_RESOLVENT_POINT` = i as a map into
    grade 1; it is reported for comparison and only finiteness is
    contractual.

    Under the graph default all three are exactly 1 and nothing is
    solved: grade 1 is the graph Gram, so c_lo = c_hi = 1, and for
    symmetric A at the point i, c0 = max_gamma sqrt(1 + gamma^2) /
    |gamma - i| = 1. That last identity needs symmetry, so this branch
    passes the symmetry gate of :attr:`OperatorAnalysis.symmetric_spectral`
    (ValueError on a non-symmetric operator).
    """
    an = OperatorAnalysis.of(op)
    scale = an.op.scale
    if scale is None:
        an.symmetric_spectral  # the gate: c0 = 1 holds for symmetric A only
        return 1.0, 1.0, 1.0
    g_one = gram_matrix(scale, 1)
    c_lo, c_hi = linalg.extreme_generalized_eigenvalues(g_one, an.ladder(1)[1])
    chol = linalg.cholesky_spd(g_one, "grade 1 Gram")
    c_step1 = float(np.linalg.norm(chol.T @ an.resolvent.b_matrix, 2))
    return float(c_lo), float(c_hi), c_step1


def resolvent(op: ScaleOperator, point: complex = DEFAULT_RESOLVENT_POINT) -> ResolventData:
    """Invert (operator - point * identity) at a point off the spectrum.

    Real points are rejected: off the real axis the inverse exists
    unconditionally for symmetric operators. An exactly singular
    solve, a non-finite inverse B or n eps kappa_1 >= 1, with the 1-norm
    condition number kappa_1 = ||A - point I||_1 ||B||_1 read off the
    solve's result, raise :class:`SpectrumError`.
    """
    point = complex(point)
    if point.imag == 0.0:
        raise ValueError("resolvent point must lie off the real axis")
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


def resolvent_consistency(op: ScaleOperator | OperatorAnalysis, data: SpectralData) -> float:
    """Bound on the mismatch between the eigenvalues gamma and point + 1/mu,
    mu the eigenvalues of the shared resolvent B at the default point.

    Each pair (gamma_i, v_i) claims the eigenpair (1/(gamma_i - point),
    v_i) of B. B is normal (the resolvent-normality certificate), so an
    eigenvalue of B lies within |rho_i - 1/(gamma_i - point)| + e_i of
    the claim, with rho_i = v_i* B v_i the Rayleigh quotient and s_i the
    norm of B v_i - rho_i v_i: e_i = s_i^2 / (g_i - s_i) (Temple) where
    the distance g_i from the claim to the other claims exceeds 2 s_i,
    else e_i = s_i (Bauer-Fike). Carried to first order onto gamma, the
    defect is max_i of that radius times |gamma_i - point|^2 /
    (1 + |gamma_i|); wherever it is at most 1e-8 it is within 1.5e-8
    relative of the exact bound. Each pair is bounded by its own residual,
    so the defect stays of order eps ||A|| however wide the spectrum.
    """
    b = OperatorAnalysis.of(op).resolvent.b_matrix
    v, shift = data.vectors, data.gammas - DEFAULT_RESOLVENT_POINT
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


def fractal_weight(data: SpectralData) -> Weight:
    """The weight 1 + gamma^2, listed in |gamma|-sorted order: entry nu
    belongs to ``data.sorted_gammas()[nu - 1]``.

    Stored in log scale so huge eigenvalues stay finite: above |gamma| = 1
    the log is taken as 2 log|gamma| + log1p(gamma^-2), which never forms
    gamma^2 and so survives even |gamma| past the square-root of the
    double-precision range. Entries are >= 1 and nondecreasing because the
    sort is by |gamma|, so this is a valid scale weight.
    """
    g = data.sorted_gammas()
    abs_g = np.abs(g)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        big = 2.0 * np.log(abs_g) + np.log1p(abs_g**-2.0)
        logs = np.where(abs_g > 1.0, big, np.log1p(g * g))
    return Weight(logs)


def rescaled_basis(data: SpectralData, fw: Weight, k: int) -> np.ndarray:
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
    """The fractal weight of an operator and its ladder certificate.

    ``deviations[k]`` is the Frobenius distance from identity of the
    grade-k graph-ladder Gram of the rescaled basis; small deviations
    certify that the ladder is scale isometric to the weighted sequence
    model (the fractal certificate of ``scalehilbert.verify``). The
    identity behind it: in the eigenbasis the graph ladder is
    diag((1 + gamma^2)^k), because grade k + 1 is G_k + A^T G_k A, so
    weight^(-k/2) rescales every grade to the identity. The scale spaces
    themselves are not built here; ``TruncatedScaleSpace`` over
    :func:`graph_ladder`, ``weighted_sequence_space(weight, k_max)`` and
    the map ``spectral.sorted_vectors().T`` give them, for
    ``is_scale_isometric``.
    """

    weight: Weight
    spectral: SpectralData
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
    deviations = []
    for k, g in enumerate(an.ladder(k_max)):
        basis = rescaled_basis(data, fw, k)
        gram = basis.T @ basis if k == 0 else basis.T @ g @ basis
        deviations.append(linalg.frobenius(gram - np.eye(n)))
    return FractalStructure(weight=fw, spectral=data, deviations=tuple(float(d) for d in deviations))


def restriction_invariance(op: ScaleOperator | OperatorAnalysis) -> float:
    """Frobenius distance between the operator's matrix in the graph-
    rescaled basis (graph inner product) and in the plain eigenbasis
    (grade-0 inner product); both equal diag(gamma) in exact arithmetic,
    so the operator and its grade-1 restriction are the same operator.
    """
    an = OperatorAnalysis.of(op)
    data = an.symmetric_spectral
    basis = rescaled_basis(data, an.fractal_weight, 1)
    in_graph = basis.T @ an.ladder(1)[1] @ (an.op.matrix @ basis)
    in_flat = np.diag(data.sorted_gammas())
    return linalg.frobenius(in_graph - in_flat)


def pair_isometry_certificate(op: ScaleOperator | OperatorAnalysis) -> float:
    """Largest entrywise relative deviation of the eigenbasis graph Gram
    from diag(1 + gamma^2); zero means the eigenbasis carries the pair
    (grade 0, graph norm) isometrically onto the weighted model."""
    an = OperatorAnalysis.of(op)
    data = an.symmetric_spectral
    vs = data.sorted_vectors()
    actual = vs.T @ an.ladder(1)[1] @ vs
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


def operator_from_json(obj: dict, path: str = "operator") -> ScaleOperator:
    """Load {"n", "kind": "dense"|"diagonal"|"conjugated_diagonal", ...}.

    Dense operators carry "matrix", diagonal ones "diag", conjugated
    diagonal ones "diag" plus "seed". "scale" is a space object or
    "graph_default". ``path`` names the object in input errors.
    """
    n = _json_int(obj, "n", path)
    kind = json_field(obj, "kind", path, "dense")
    raw_scale = json_field(obj, "scale", path, "graph_default")
    scale = None if raw_scale == "graph_default" else space_from_json(raw_scale, f"{path}.scale")
    if kind == "dense":
        matrix = _json_numbers(obj, "matrix", path)
    elif kind == "diagonal":
        matrix = np.diag(_json_numbers(obj, "diag", path))
    elif kind == "conjugated_diagonal":
        op = conjugated_diagonal(_json_numbers(obj, "diag", path), _json_int(obj, "seed", path), scale)
        if op.n != n:
            raise ValueError(f"operator has dimension {op.n}, expected n={n}")
        return op
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    if matrix.shape != (n, n):
        raise ValueError(f"operator has shape {matrix.shape}, expected ({n}, {n})")
    return ScaleOperator(matrix, scale)
