"""Analysis of symmetric operators on a truncated scale space.

The pipeline certifies, at finite truncation, the constructive facts
behind fractal scale structures: a symmetric operator has coinciding
kernel and cokernel, its resolvent at an off-axis point is normal, its
spectral decomposition is real and orthonormal, and the weight
1 + gamma^2 built from its eigenvalues turns the graph-norm ladder into
a weighted sequence model. The final product of the module is
:func:`build_fractal_structure`, which reports the isometry defect of
the rescaled eigenbasis onto the diagonal model, grade by grade.

Every certificate of one operator reads the same factorizations, which
an :class:`OperatorAnalysis` of the operator and its top grade k_max (by
default an explicit scale's own) computes lazily and at most once: the
symmetry defect (the gate of :func:`spectral_decompose`), the ``eigh``
pairs, held once in the |gamma| order every certificate reads, and their
reconstruction residual, the eigenbasis pass
(:attr:`OperatorAnalysis.eigenbasis_pass`: one pass over A^j V gives the
fractal defects of grades 0..max(k_max, 1), the restriction and the
pair-isometry defects and keeps only those scalars, so no graph Gram is
formed), the kernel report (a full-rank proof from the ``eigh`` pairs,
else one SVD, whose kernel and range complement give the largest
principal angle directly),
the resolvent B at :data:`DEFAULT_RESOLVENT_POINT` (one ``inv``, whose
result also gives its condition guard, held as the one array) with its
normality pair, its consistency bound (the eigen-residuals of the ``eigh``
pairs) and its own residual (formed only where a report reads it), the
fractal weight, and the equivalence constants of every grade
(:attr:`OperatorAnalysis.equivalence`): for an explicit scale one loop of
values-only generalized solves in the kept eigenbasis, each grade's Gram
taken into it once, so that no power of A enters them.
Each defect subtracts its expected identity or diagonal in place on the
diagonal of the product it computes. Every certificate function takes
the analysis, the one way in, so the top grade is named once, where the
analysis is built, and no certificate re-runs another's factorization;
:func:`resolvent`, :func:`normality_defect` and :func:`fractal_weight`
are the steps the analysis itself runs on its operator, resolvent and
spectral data. ``scalehilbert.verify.OPERATOR_CERTIFICATES`` lists them
in the order the CLI and the acceptance suite evaluate them.

Complex arithmetic appears only inside resolvent computations, and
there a product with a real operand runs as a real product on the
complex array's float view; every other result is real.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .linalg import SYMMETRY_TOL
from .spaces import GramGrade, TruncatedScaleSpace, equivalence_constants, gram_matrix, space_from_json
from .weights import Weight, _json_int, _json_numbers, json_field

__all__ = [
    "DEFAULT_RESOLVENT_POINT",
    "SYMMETRY_TOL",
    "ScaleOperator",
    "OperatorAnalysis",
    "SpectrumError",
    "KernelReport",
    "SpectralData",
    "EigenbasisPass",
    "check_kernel_cokernel",
    "regularity_constant",
    "graph_ladder",
    "graph_equivalence_constants",
    "resolvent",
    "normality_defect",
    "spectral_decompose",
    "resolvent_consistency",
    "fractal_weight",
    "build_fractal_structure",
    "restriction_invariance",
    "pair_isometry_certificate",
    "conjugated_diagonal",
    "operator_from_json",
]

# Purely imaginary points are never eigenvalues of a symmetric operator,
# so the unit imaginary point is an unconditionally safe default.
DEFAULT_RESOLVENT_POINT = 1j


class SpectrumError(ValueError):
    """The requested resolvent point is on (or too close to) the spectrum."""


@dataclass(frozen=True, eq=False)
class ScaleOperator:
    """A real square matrix acting on a truncated scale space.

    The matrix holds the operator in grade-0 orthonormal coordinates.
    ``scale`` supplies the ambient ladder; ``None`` selects the graph
    default, where grade k + 1 is built from grade k through the
    operator itself. An explicit scale needs grades 0 and 1, and grade 0
    must be exactly the identity (log values all 0, or a Gram equal to I),
    the product the matrix is symmetric in. A refusal names its field.
    """

    matrix: np.ndarray
    scale: TruncatedScaleSpace | None = None

    def __post_init__(self):
        m = linalg.as_square_matrix(self.matrix, "operator matrix")
        if np.iscomplexobj(m) or m.size == 0:
            raise ValueError("operator matrix must be real and nonempty")
        if not np.isfinite(m).all():
            raise ValueError("operator matrix must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if self.scale is None:
            return
        if self.scale.n != self.n:
            raise ValueError(f"scale.n: scale dimension {self.scale.n} does not match operator dimension {self.n}")
        if self.scale.k_max < 1:  # the graph-equivalence and regularity constants read grade 1
            raise ValueError(f"scale.k_max: an operator's scale needs grades 0 and 1, got k_max {self.scale.k_max}")
        g0 = self.scale.grades[0]
        identity = (np.array_equal(g0.matrix, np.eye(self.n)) if isinstance(g0, GramGrade)
                    else not g0.weight.log_values.any())
        if not identity:
            raise ValueError("scale.grades[0]: expected the identity, the inner product the matrix is symmetric in")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class KernelReport:
    """Kernel data of a square matrix. ``coker_dim`` comes from the same
    numerical rank as ``ker_dim``, so the two are equal by construction; the
    measured evidence that kernel and cokernel coincide is ``subspace_angle``."""

    ker_dim: int
    coker_dim: int
    subspace_angle: float


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigenvalues and orthonormal eigenvectors of a symmetric operator,
    read-only: ``gammas[i]`` belongs to column i of ``vectors``, and the
    pairs are listed by nondecreasing |gamma| (ties: signed value, then
    ``eigh``'s position), the one order every certificate reads.
    """

    gammas: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        for name in ("gammas", "vectors"):
            a = np.array(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.gammas.shape[0]


@dataclass(frozen=True)
class EigenbasisPass:
    """The scalars of :attr:`OperatorAnalysis.eigenbasis_pass`: the fractal
    deviations of grades 0..max(k_max, 1), the restriction defect and the
    pair-isometry defect."""

    deviations: tuple
    restriction: float
    pair: float


def graph_ladder(matrix: np.ndarray, k_max: int) -> list[np.ndarray]:
    """Grams of the graph-norm ladder: G_0 = identity and
    G_{k+1} = G_k + A^T G_k A, symmetrized at every step. Grade 1 is the
    graph Gram identity + A^T A of the graph form <x, y> + <Ax, Ay>."""
    a = linalg.as_square_matrix(matrix, "operator matrix")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    grams = [np.eye(a.shape[0])]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed grade reads inf or NaN
        for _ in range(k_max):
            grams.append(linalg.sym_part(grams[-1] + a.T @ grams[-1] @ a))
    return grams


class OperatorAnalysis:
    """The factorizations every certificate of one operator reads, up to
    the top grade ``k_max``: by default an explicit scale's top grade (a
    higher one raises ValueError), and 0 under the graph default.

    Each attribute, the :attr:`eigenbasis_pass` and :attr:`equivalence`
    among them, is computed on first access and kept, so one analysis runs
    each factorization once. The arrays kept are the eigenvectors and the
    resolvent B; the eigenbasis pass and the constants keep scalars only.
    Build one per operator and drop it when that operator's certification
    is done; a new analysis always starts empty.
    """

    def __init__(self, op: ScaleOperator, k_max: int | None = None):
        top = op.scale.k_max if op.scale is not None else None
        self.op, self.k_max = op, (top or 0) if k_max is None else k_max
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")
        if top is not None and self.k_max > top:
            raise ValueError(f"k_max {self.k_max} exceeds the top grade {top} of the operator's scale")

    @cached_property
    def symmetry(self) -> float:
        """:func:`scalehilbert.linalg.symmetry_defect` of the matrix, which
        the symmetry gate of :func:`spectral_decompose` reads."""
        return linalg.symmetry_defect(self.op.matrix)

    @cached_property
    def kernel(self) -> KernelReport:
        """:func:`check_kernel_cokernel` of this analysis, whose full-rank
        proof reads the spectral data, the reconstruction residual and the
        eigenbasis pass kept here."""
        return check_kernel_cokernel(self)

    @cached_property
    def resolvent(self) -> np.ndarray:
        """The read-only resolvent B of :func:`resolvent`."""
        return resolvent(self.op)

    @cached_property
    def resolvent_residual(self) -> float:
        """||(A - point I) B - I||_F of the shared resolvent B at the point
        :data:`DEFAULT_RESOLVENT_POINT`, formed as A B - point B, A B as a
        real product on B's float view."""
        b, point = self.resolvent, DEFAULT_RESOLVENT_POINT
        product = (self.op.matrix @ b.view(float)).view(complex)
        product -= point * b
        product.flat[:: self.op.n + 1] -= 1.0
        return linalg.frobenius(product)

    @cached_property
    def normality(self) -> tuple[float, float]:
        """:func:`normality_defect` of the shared resolvent."""
        return normality_defect(self.resolvent)

    @cached_property
    def spectral(self) -> SpectralData:
        """``eigh`` of the symmetric part, sign-fixed and in the |gamma| order
        documented by :func:`spectral_decompose`, without its symmetry check."""
        w, v = np.linalg.eigh(linalg.sym_part(self.op.matrix))
        n = self.op.n
        signs = np.sign(v[np.argmax(np.abs(v), axis=0), np.arange(n)])
        signs[signs == 0] = 1.0
        order = np.lexsort((np.arange(n), w, np.abs(w)))
        return SpectralData(gammas=w[order], vectors=(v * signs)[:, order])

    @cached_property
    def fractal_weight(self) -> Weight:
        """:func:`fractal_weight` of the shared spectral data."""
        return fractal_weight(self.spectral)

    @cached_property
    def reconstruction_residual(self) -> float:
        """||A - V diag(gamma) V^T||_F, which the full-rank proof also reads."""
        d = self.spectral
        return linalg.frobenius(self.op.matrix - (d.vectors * d.gammas) @ d.vectors.T)

    @cached_property
    def relative_reconstruction(self) -> float:
        """||A - V diag(gamma) V^T||_F / ||A||_F."""
        return self.reconstruction_residual / max(linalg.frobenius(self.op.matrix), np.finfo(float).tiny)

    @cached_property
    def consistency(self) -> float:
        """:func:`resolvent_consistency` of this analysis."""
        return resolvent_consistency(self)

    @cached_property
    def eigenbasis_pass(self) -> EigenbasisPass:
        """The ladder certificates of the eigenbasis from one pass over
        Y_j = A^j V, V the |gamma|-sorted eigenvectors, j <= max(k_max, 2).

        Grade k of the graph ladder is G_k = sum_j C(k, j) (A^j)^T A^j, exactly
        for G_{k+1} = G_k + A^T G_k A and any square A, so
        V^T G_k V = sum_j C(k, j) Y_j^T Y_j: the Grams P_j = Y_j^T Y_j give every
        grade, summed in place by Pascal's rule, and no G_k is formed. Grade k
        rescaled by the weight^(-k/2) of :attr:`fractal_weight`, in the log
        domain and one side at a time, minus I is the fractal deviation; the
        unscaled grade 1 is the pair-isometry matrix; and
        V^T G_1 A V = Y_0^T Y_1 + Y_1^T Y_2, rescaled by weight^(-1/2), minus
        diag(gamma) is the restriction matrix. Grades 0..max(k_max, 1) are
        covered, each from the same products whatever k_max is, and only the
        scalars are kept. The restriction's products come first, then the P_j,
        then one Pascal loop over the grades; V is read in place, so at most
        four n x n arrays are live below k_max 2.
        """
        data = spectral_decompose(self)
        a, v, g, n, logs = self.op.matrix, data.vectors, data.gammas, self.op.n, self.fractal_weight.log_values
        n_grams = max(self.k_max, 1) + 1
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed grade reads inf or NaN, which fails
            ys = [v, a @ v]
            ys.append(a @ ys[1])  # Y_0, Y_1, Y_2
            in_graph = v.T @ ys[1]
            in_graph += ys[1].T @ ys[2]
            _rescale(in_graph, logs, 1).flat[:: n + 1] -= g
            restriction = linalg.frobenius(in_graph)
            del in_graph
            grams = []
            for _ in range(n_grams):  # P_j = Y_j^T Y_j; Y_j past Y_2 from Y_{j-1}, which is then dropped
                y = ys.pop(0) if ys else a @ y
                grams.append(y.T @ y)
            del y, ys
            deviations = []
            for k in range(n_grams):  # grams[0] is grade k
                if k == 1:
                    expected = 1.0 + g * g  # >= 1, so the relative deviation divides by it
                    on_diagonal = np.abs(np.diagonal(grams[0]) - expected) / expected
                    off_diagonal = np.abs(grams[0])
                    off_diagonal.flat[:: n + 1] = 0.0
                    pair = float(np.maximum(off_diagonal.max(), on_diagonal.max()))
                    del off_diagonal
                grade = _rescale(grams[0] if k == n_grams - 1 else grams[0].copy(), logs, k)
                grade.flat[:: n + 1] -= 1.0
                deviations.append(linalg.frobenius(grade))
                del grade
                for j in range(len(grams) - 1):  # Pascal's rule: grams[0] becomes grade k + 1
                    grams[j] += grams[j + 1]
                grams.pop()  # no later step reads the last
        return EigenbasisPass(deviations=tuple(float(d) for d in deviations), restriction=restriction, pair=pair)

    @cached_property
    def equivalence(self) -> tuple:
        """(c_lo, c_hi) of :func:`scalehilbert.spaces.equivalence_constants` for
        grades k = 0..max(k_max, 1) - 1: G_{k+1} against G_k + A^T G_k A in the
        kept eigenbasis, M_{k+1} against M_k + Gamma M_k Gamma, M_k = V^T G_k V,
        with V and Gamma the |gamma|-sorted pairs of :func:`spectral_decompose`
        (its gate applies), so the form loses no eps ||A||^2. One loop solves
        every grade on first read and forms each M_k once: grade k's M_{k+1}
        becomes grade k + 1's form, in place. Numerical trouble (LinAlgError,
        as the grades are SPD) reads (nan, nan); the graph default, (1.0, 1.0)."""
        n_grades = max(self.k_max, 1)
        if self.op.scale is None:
            return ((1.0, 1.0),) * n_grades
        data = spectral_decompose(self)
        v, g, constants = data.vectors, data.gammas, []
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed form is refused as non-finite
            m_next = v.T @ gram_matrix(self.op.scale, 0) @ v
            for k in range(n_grades):
                form, m_next = m_next, v.T @ gram_matrix(self.op.scale, k + 1) @ v
                form += g[:, None] * form * g
                try:
                    constants.append(equivalence_constants(m_next, form))
                except np.linalg.LinAlgError:
                    constants.append((np.nan, np.nan))
        return tuple(constants)


def check_kernel_cokernel(an: OperatorAnalysis) -> KernelReport:
    """Kernel and cokernel data: a full-rank proof first, else one SVD.

    Dimensions count singular values at or below n * machine epsilon
    times the largest one. The reported angle is the
    largest principal angle between the kernel and the orthogonal
    complement of the range; for a symmetric operator the two subspaces
    coincide and the angle vanishes. ker_dim and coker_dim agree for every
    square matrix (index 0, the truncated Fredholm statement).

    The proof reads what the analysis already holds for a symmetric
    operator: the computed pairs (gamma, V) of ``eigh``, the
    reconstruction residual E = A - V diag(gamma) V^T and
    delta = ||V^T V - I||_F, grade 0 of :attr:`OperatorAnalysis.eigenbasis_pass`.
    With delta < 1, sigma_min(V)^2 >= 1 - delta and sigma_max(V)^2 <= 1 + delta,
    so Weyl's inequality for singular values gives
    sigma_min(A) >= (1 - delta) min|gamma| - ||E||_F and
    sigma_1(A) <= (1 + delta) max|gamma| + ||E||_F. Each computed norm is
    widened by the rounding of the products behind it (Higham, Accuracy and
    Stability, 3.5, with g(m) = m u / (1 - m u) and u = eps / 2):
    ||E||_F by g(n + 1) max|gamma| ||V||_F^2 and delta by g(n) ||V||_F^2,
    each norm evaluation by a factor 1 + g(n^2 + 3), and the two scalar
    bounds by 1 -+ g(4). Full rank is reported, with no SVD, only when the
    lower bound exceeds n eps times the upper one; a NaN anywhere fails the
    proof. The widening is of order n^2 eps ||A||, so the proof certifies
    only that far clear of the cutoff, beyond the SVD's own rounding of it.

    Otherwise one SVD A = U S V^T gives the rank and, cut at it, the kernel
    X (the trailing columns of V) and the range complement Y (the trailing
    columns of U), orthonormal and of one dimension d. For two spans of
    equal dimension sin theta_max = ||(I - X X^T) Y||_2 (Golub and Van
    Loan, Matrix Computations, the distance between subspaces), so the
    angle is the arcsine of the largest singular value of Y - X (X^T Y),
    one values-only SVD of an n x d matrix; at full rank d = 0 and it is
    0. The arcsine loses accuracy as the sine nears 1, so where the sine
    exceeds sqrt(1/2) (theta_max > pi/4, far past any tolerance) the angle
    is the arccosine of sigma_min(X^T Y), the largest angle's cosine.
    """
    if _full_rank_proved(an):
        return KernelReport(ker_dim=0, coker_dim=0, subspace_angle=0.0)
    a, n = an.op.matrix, an.op.n
    u, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > n * linalg.EPS * s[0]))
    x, y = vt[rank:].T, u[:, rank:]
    cross = x.T @ y
    sine = np.max(np.linalg.svd(y - x @ cross, compute_uv=False), initial=0.0)
    if sine <= np.sqrt(0.5):
        angle = np.arcsin(sine)
    else:
        angle = np.arccos(min(np.linalg.svd(cross, compute_uv=False)[-1], 1.0))
    return KernelReport(ker_dim=n - rank, coker_dim=n - rank, subspace_angle=float(angle))


def _full_rank_proved(an: OperatorAnalysis) -> bool:
    """The full-rank proof of :func:`check_kernel_cokernel`; False, and so
    the SVD, for an operator the symmetry gate refuses."""
    if not an.symmetry <= SYMMETRY_TOL:
        return False
    n, data = an.op.n, an.spectral

    def g(m):
        return m * linalg.EPS / 2 / (1.0 - m * linalg.EPS / 2)

    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed bound is non-finite and fails
        abs_g = np.abs(data.gammas)
        v_sq = linalg.frobenius(data.vectors) ** 2 * (1.0 + g(2 * n * n + 4))
        delta = an.eigenbasis_pass.deviations[0] * (1.0 + g(n * n + 3)) + g(n) * v_sq
        residual = an.reconstruction_residual * (1.0 + g(n * n + 3)) + g(n + 1) * abs_g.max() * v_sq
        lower = ((1.0 - delta) * abs_g.min() - residual) * (1.0 - g(4))
        upper = ((1.0 + delta) * abs_g.max() + residual) * (1.0 + g(4))
        return bool(delta < 1.0 and lower > n * linalg.EPS * upper)


def regularity_constant(an: OperatorAnalysis, n_grade: int) -> float:
    """Best constant C with ||x||_{n+1} <= C sqrt(||Ax||_n^2 + ||x||_n^2):
    sqrt(c_hi) of grade n of :attr:`OperatorAnalysis.equivalence`, solved in
    the eigenbasis, so C_0 comes from the graph equivalence's solve. The
    right-hand side is within a factor sqrt(2) of ||Ax||_n + ||x||_n, the
    documented slack. Under the graph default C is exactly 1, unsolved. A
    grade below 0 or past max(k_max, 1) - 1 raises IndexError.
    """
    if n_grade < 0:
        raise IndexError("grade must be >= 0")
    return float(np.sqrt(an.equivalence[n_grade][1]))


def graph_equivalence_constants(an: OperatorAnalysis) -> tuple[float, float]:
    """(c_lo, c_hi), attained, with c_lo ||x||_graph^2 <= ||x||_1^2 <=
    c_hi ||x||_graph^2: grade 0 of :attr:`OperatorAnalysis.equivalence`, M_1
    against M_0 + Gamma M_0 Gamma in the eigenbasis, never the graph Gram
    I + A^T A; an operator the symmetry gate refuses raises ValueError.
    Exactly (1.0, 1.0) under the graph default, where grade 1 is the graph Gram.
    """
    return an.equivalence[0]


def resolvent(op: ScaleOperator) -> np.ndarray:
    """The inverse B of (operator - point * identity), read-only, at the
    off-axis point :data:`DEFAULT_RESOLVENT_POINT`, where the inverse
    exists unconditionally for symmetric operators.

    An exactly singular inversion, a non-finite inverse B or
    n eps kappa_1 >= 1, with the 1-norm condition number
    kappa_1 = ||A - point I||_1 ||B||_1 read off the inverse, raise
    :class:`SpectrumError`. The residual of B is
    :attr:`OperatorAnalysis.resolvent_residual`.
    """
    point = DEFAULT_RESOLVENT_POINT
    shifted = op.matrix.astype(complex)
    shifted.flat[:: op.n + 1] -= point
    try:
        b = np.linalg.inv(shifted)
    except np.linalg.LinAlgError as exc:
        raise SpectrumError(f"resolvent point on spectrum: {point}") from exc
    kappa = np.abs(shifted).sum(axis=0).max() * np.abs(b).sum(axis=0).max()
    del shifted
    if not op.n * linalg.EPS * kappa < 1.0:  # also when b holds NaN or inf
        raise SpectrumError(f"resolvent point on spectrum: {point}")
    b.setflags(write=False)
    return b


def normality_defect(b: np.ndarray) -> tuple[float, float]:
    """(commutator defect, adjoint defect) of a resolvent B.

    The commutator defect ||B*B - BB*||_F / ||B||_F^2 vanishes exactly
    when B is normal. The adjoint defect compares B* with the resolvent
    at the conjugate point, which for a real operator is conj(B), so it
    is ||B^T - B||_F / ||B||_F, read from the same B as the commutator
    (no second inversion). Both are zero in exact arithmetic when the
    operator is symmetric.
    """
    bh = b.conj().T
    norm_b = linalg.frobenius(b)
    commutator = linalg.frobenius(bh @ b - b @ bh) / norm_b**2
    adjoint = linalg.frobenius(b.T - b) / norm_b
    return float(commutator), float(adjoint)


def spectral_decompose(an: OperatorAnalysis) -> SpectralData:
    """Orthonormal eigendecomposition in the one deterministic order.

    Columns are sign-fixed (largest-magnitude entry positive) and the
    pairs listed by nondecreasing |gamma|, ties by signed value and then
    by ``eigh``'s position, the order the fractal weight needs to be
    nondecreasing; every certificate reads the pairs in this order.

    The symmetry defect of the operator's :class:`OperatorAnalysis` is
    checked against :data:`SYMMETRY_TOL` on every call; a failure raises
    ValueError. The defect and the ``eigh`` come from the analysis, so
    each runs once per analysis. How well the pairs reconstruct the
    operator and agree with the resolvent eigenproblem are certificates
    of their own
    (:attr:`OperatorAnalysis.relative_reconstruction`,
    :func:`resolvent_consistency`).
    """
    if not an.symmetry <= SYMMETRY_TOL:
        raise ValueError(f"operator is not symmetric: defect {an.symmetry:.3e} exceeds tol {SYMMETRY_TOL:.3e}")
    return an.spectral


def resolvent_consistency(an: OperatorAnalysis) -> float:
    """Bound on the mismatch between the eigenvalues gamma of the pairs of
    :func:`spectral_decompose` (its gate applies) and point + 1/mu, mu the
    eigenvalues of the analysis's resolvent B at the default point.

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
    so the defect stays of order eps ||A|| however wide the spectrum. The
    residuals B V are one real product with B's float view.
    """
    b, data = an.resolvent, spectral_decompose(an)
    v, shift = data.vectors, data.gammas - DEFAULT_RESOLVENT_POINT
    mu = 1.0 / shift
    g = np.abs(np.subtract.outer(mu, mu))
    np.fill_diagonal(g, np.inf)
    g = g.min(axis=0)
    # B V as (V^T B^T)^T, a real product on the float view of a contiguous B^T
    r = (v.T @ np.ascontiguousarray(b.T).view(float)).view(complex).T
    r -= v * mu
    rq_offset = np.einsum("ij,ij->j", v.conj(), r)
    r -= v * rq_offset
    s = np.linalg.norm(r, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.where(g > 2.0 * s, s * s / (g - s), s)
    dev = (np.abs(rq_offset) + radius) * np.abs(shift) ** 2 / (1.0 + np.abs(data.gammas))
    return float(dev.max())


def fractal_weight(data: SpectralData) -> Weight:
    """The weight 1 + gamma^2 of the |gamma|-sorted pairs: entry nu
    belongs to ``data.gammas[nu - 1]``.

    Stored in log scale so huge eigenvalues stay finite: above |gamma| = 1
    the log is taken as 2 log|gamma| + log1p(gamma^-2), which never forms
    gamma^2 and so survives even |gamma| past the square-root of the
    double-precision range. Entries are >= 1 and nondecreasing because the
    sort is by |gamma|, so this is a valid scale weight.
    """
    g = data.gammas
    abs_g = np.abs(g)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        big = 2.0 * np.log(abs_g) + np.log1p(abs_g**-2.0)
        logs = np.where(abs_g > 1.0, big, np.log1p(g * g))
    return Weight(logs)


def _rescale(m: np.ndarray, log_weight: np.ndarray, k: int) -> np.ndarray:
    """``m`` with entry (i, j) times (w_i w_j)^(-k/2), in place: the factors
    come from the log weight, so high grades of fast-growing weights do not
    underflow early, and multiply one side at a time."""
    factors = np.exp(-0.5 * k * log_weight)
    m *= factors[:, None]
    m *= factors
    return m


def build_fractal_structure(an: OperatorAnalysis) -> tuple:
    """The fractal certificate: the deviations of grades 0..``an.k_max`` of
    the graph ladder, from :attr:`OperatorAnalysis.eigenbasis_pass`.

    Deviation k is the Frobenius distance from the identity of the grade-k
    Gram of the eigenbasis rescaled by the fractal weight^(-k/2). In the
    eigenbasis the graph ladder is diag((1 + gamma^2)^k), because grade
    k + 1 is G_k + A^T G_k A, so small deviations certify that the ladder is
    scale isometric to the weighted sequence model of the weight
    1 + gamma^2. The scale spaces themselves are not built here:
    ``TruncatedScaleSpace`` over :func:`graph_ladder`,
    ``weighted_sequence_space(an.fractal_weight, an.k_max)`` and the map
    ``spectral_decompose(an).vectors.T`` give them, for
    ``is_scale_isometric``. The symmetry gate of :func:`spectral_decompose`
    applies; a refused operator raises ValueError.
    """
    return an.eigenbasis_pass.deviations[: an.k_max + 1]


def restriction_invariance(an: OperatorAnalysis) -> float:
    """Frobenius distance between the operator's matrix in the graph-
    rescaled basis (graph inner product) and in the plain eigenbasis
    (grade-0 inner product); both equal diag(gamma) in exact arithmetic,
    so the operator and its grade-1 restriction are the same operator.
    Read from :attr:`OperatorAnalysis.eigenbasis_pass`.
    """
    return an.eigenbasis_pass.restriction


def pair_isometry_certificate(an: OperatorAnalysis) -> float:
    """Largest entrywise deviation of the eigenbasis graph Gram from
    diag(1 + gamma^2), relative on the diagonal and absolute off it; zero
    means the eigenbasis carries the pair (grade 0, graph norm)
    isometrically onto the weighted model. The Gram is the unscaled grade 1
    of :attr:`OperatorAnalysis.eigenbasis_pass`."""
    return an.eigenbasis_pass.pair


def conjugated_diagonal(diag, seed: int) -> ScaleOperator:
    """Q^T diag(d) Q for a seeded random orthogonal Q (PCG64 generator)."""
    d = np.asarray(diag, dtype=float).reshape(-1)
    rng = np.random.default_rng(seed)
    q = linalg.random_orthogonal(d.shape[0], rng)
    return ScaleOperator(q.T @ np.diag(d) @ q)


def operator_from_json(obj: dict, path: str = "operator") -> ScaleOperator:
    """Load {"n", "kind": "dense"|"diagonal"|"conjugated_diagonal", ...}.

    Dense operators carry "matrix", diagonal ones "diag", conjugated
    diagonal ones "diag" plus "seed". "scale" is a space object or
    "graph_default". ``path`` names the object in input errors.
    """
    n = _json_int(obj, "n", path)
    if n < 1:
        raise ValueError(f"{path}.n: expected a dimension >= 1, got {n}")
    kind = json_field(obj, "kind", path, "dense")
    raw_scale = json_field(obj, "scale", path, "graph_default")
    scale = None if raw_scale == "graph_default" else space_from_json(raw_scale, f"{path}.scale")
    if kind not in ("dense", "diagonal", "conjugated_diagonal"):
        raise ValueError(f"{path}.kind: unknown operator kind {kind!r}")
    key, shape = ("matrix", (n, n)) if kind == "dense" else ("diag", (n,))
    values = _json_numbers(obj, key, path)
    if values.shape != shape:
        raise ValueError(f"{path}.{key}: expected shape {shape}, got {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"{path}.{key}: operator entries must be finite")
    if kind == "conjugated_diagonal":
        seed = _json_int(obj, "seed", path)
        if seed < 0:
            raise ValueError(f"{path}.seed: expected an integer >= 0, got {seed}")
        values = conjugated_diagonal(values, seed).matrix
    try:
        return ScaleOperator(np.diag(values) if kind == "diagonal" else values, scale)
    except ValueError as exc:  # the matrix is checked above, so the scale is refused, by its field
        raise ValueError(f"{path}.{exc}") from None
