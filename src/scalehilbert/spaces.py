"""Truncated scale Hilbert spaces.

A truncated scale space is a finite ladder of inner products (grades) on a
common n-dimensional coordinate space, expressed in the grade-0 orthonormal
basis. Each grade is either diagonal (a weight table) or a general SPD Gram
matrix. Grade k of the canonical weighted model uses the k-th power of a
single weight; general spaces may carry arbitrary SPD grades.

All types are immutable after construction and all operations are pure,
so spaces can be shared freely across threads.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .weights import (
    Weight,
    constant_weight,
    validate_weight,
    weight_from_json,
    weight_power,
    weight_to_json,
)

__all__ = [
    "DiagonalGrade",
    "GramGrade",
    "TruncatedScaleSpace",
    "GradedVector",
    "IsometryReport",
    "weighted_sequence_space",
    "gram_matrix",
    "inner_product",
    "inclusion_singular_values",
    "shift",
    "equivalence_constants",
    "diagonal_equivalence_constants",
    "is_scale_isometric",
    "common_orthogonal_basis",
    "validate_space",
    "space_from_json",
    "space_to_json",
]

DEFAULT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DiagonalGrade:
    """Inner product sum_nu w(nu) x_nu y_nu given by a weight table."""

    weight: Weight

    @property
    def n(self) -> int:
        return self.weight.n


@dataclass(frozen=True, eq=False)
class GramGrade:
    """Inner product x^T G y for a symmetric positive definite G."""

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_square_matrix(self.matrix, "Gram matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class TruncatedScaleSpace:
    """Grades 0..k_max of inner products on an n-dimensional space.

    Construction checks that every Gram grade is SPD and that dimensions
    agree. The canonical normalization (grade 0 = constant weight 1) is
    enforced only by :func:`weighted_sequence_space`; shifted spaces
    legitimately start at a nontrivial grade, so here it is merely
    reported by :func:`validate_space`.
    """

    n: int
    grades: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        grades = tuple(self.grades)
        if not grades:
            raise ValueError("a scale space needs at least one grade")
        for k, g in enumerate(grades):
            if not isinstance(g, (DiagonalGrade, GramGrade)):
                raise TypeError(f"grade {k} is not a DiagonalGrade or GramGrade")
            if g.n != self.n:
                raise ValueError(f"grade {k} has dimension {g.n}, expected {self.n}")
            if isinstance(g, GramGrade):
                name = f"grade {k} Gram matrix"
                linalg.cholesky_spd(linalg.require_symmetric(g.matrix, name=name), name)
            else:
                if not np.isfinite(g.weight.log_values).all():
                    raise ValueError(f"grade {k} weight has non-finite log values")
        object.__setattr__(self, "grades", grades)

    @property
    def k_max(self) -> int:
        return len(self.grades) - 1

    def grade(self, k: int):
        if not 0 <= k <= self.k_max:
            raise IndexError(f"grade {k} out of range 0..{self.k_max}")
        return self.grades[k]


@dataclass(frozen=True, eq=False)
class GradedVector:
    """Coordinates in the grade-0 orthonormal basis, tagged with a grade."""

    coords: np.ndarray
    grade: int = 0

    def __post_init__(self):
        c = np.array(self.coords, dtype=float).reshape(-1)
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)


def _coords(x) -> np.ndarray:
    return np.asarray(getattr(x, "coords", x), dtype=float).reshape(-1)


def weighted_sequence_space(w: Weight, k_max: int) -> TruncatedScaleSpace:
    """The canonical weighted model: grade k carries the weight f**k.

    Grade 0 is the constant weight 1 (plain square-summable normalization).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    report = validate_weight(w)
    if not report.ok:
        raise ValueError(f"invalid weight: {report.violations[0].message}")
    grades = [DiagonalGrade(constant_weight(w.n))]
    grades += [DiagonalGrade(weight_power(w, k)) for k in range(1, k_max + 1)]
    return TruncatedScaleSpace(w.n, tuple(grades))


def gram_matrix(s: TruncatedScaleSpace, k: int) -> np.ndarray:
    """Dense Gram matrix of grade k (diagonal grades are exponentiated)."""
    g = s.grade(k)
    if isinstance(g, DiagonalGrade):
        return np.diag(g.weight.values())
    return g.matrix.copy()


def inner_product(s: TruncatedScaleSpace, k: int, x, y) -> float:
    """The grade-k inner product of x and y (symmetric bilinear form)."""
    xv, yv = _coords(x), _coords(y)
    g = s.grade(k)
    if xv.shape != (s.n,) or yv.shape != (s.n,):
        raise ValueError(
            f"vector dimensions {xv.shape[0]}, {yv.shape[0]} do not match space dimension {s.n}"
        )
    if isinstance(g, DiagonalGrade):
        return float(np.sum(g.weight.values() * xv * yv))
    return float(xv @ g.matrix @ yv)


def inclusion_singular_values(s: TruncatedScaleSpace, k: int) -> np.ndarray:
    """Singular values of the identity (H_k, <,>_k) -> (H_{k-1}, <,>_{k-1}).

    Nonincreasing. For a diagonal pair these are the square roots of the
    weight ratios w_{k-1}/w_k (computed in log scale); in general they come
    from the generalized eigenproblem G_{k-1} v = mu G_k v.
    """
    if k < 1:
        raise IndexError("inclusion needs a grade k >= 1")
    lo, hi = s.grade(k - 1), s.grade(k)
    if isinstance(lo, DiagonalGrade) and isinstance(hi, DiagonalGrade):
        log_ratio = lo.weight.log_values - hi.weight.log_values
        sv = np.exp(0.5 * log_ratio)
    else:
        mu = linalg.generalized_eigh(
            gram_matrix(s, k - 1), gram_matrix(s, k), f"grade {k - 1}", f"grade {k}"
        )[0]
        sv = np.sqrt(np.maximum(mu, 0.0))
    return np.sort(sv)[::-1]


def shift(s: TruncatedScaleSpace, m: int) -> TruncatedScaleSpace:
    """Drop the first m grades: grade k of the result is grade k+m of s."""
    if m < 0:
        raise IndexError("shift must be nonnegative")
    if m > s.k_max:
        raise IndexError(f"shift {m} exceeds available grades 0..{s.k_max}")
    return TruncatedScaleSpace(s.n, s.grades[m:])


def equivalence_constants(g_a: np.ndarray, g_b: np.ndarray) -> tuple[float, float]:
    """Best constants with c_lo ||x||_b^2 <= ||x||_a^2 <= c_hi ||x||_b^2.

    Both bounds are attained (they are the extreme generalized eigenvalues
    of g_a v = mu g_b v). Raises LinAlgError for non-SPD input.
    """
    g_a = linalg.require_spd(g_a, name="g_a")
    g_b = linalg.require_spd(g_b, name="g_b")
    if g_a.shape != g_b.shape:
        raise ValueError("Gram matrices must have matching dimensions")
    return linalg.extreme_generalized_eigenvalues(g_a, g_b)


def diagonal_equivalence_constants(log_a: np.ndarray, log_b: np.ndarray) -> tuple[float, float]:
    """Equivalence constants for two diagonal forms, straight from the
    per-coordinate ratios in log scale (safe for very large weights)."""
    log_a = np.asarray(log_a, dtype=float)
    log_b = np.asarray(log_b, dtype=float)
    if log_a.shape != log_b.shape:
        raise ValueError("log tables must have matching length")
    ratio = np.exp(log_a - log_b)
    return float(ratio.min()), float(ratio.max())


@dataclass(frozen=True)
class IsometryReport:
    is_isometric: bool
    defects: tuple[float, ...]  # per-grade relative Frobenius transport defect
    tol: float


def is_scale_isometric(
    s: TruncatedScaleSpace,
    t: TruncatedScaleSpace,
    mapping: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> IsometryReport:
    """Does ``mapping`` carry every grade of s isometrically onto t?

    Checks mapping^T G'_k mapping = G_k per grade, in relative Frobenius
    norm; the report carries the per-grade defects.
    """
    if s.n != t.n:
        raise ValueError(f"space dimensions differ: {s.n} vs {t.n}")
    if s.k_max != t.k_max:
        raise ValueError(f"grade counts differ: {s.k_max} vs {t.k_max}")
    phi = linalg.as_square_matrix(mapping, "mapping")
    if phi.shape[0] != s.n:
        raise ValueError(f"mapping dimension {phi.shape[0]} does not match spaces of dimension {s.n}")
    if np.linalg.matrix_rank(phi) < s.n:
        raise ValueError("mapping is singular; a scale isometry must be invertible")
    defects = []
    for k in range(s.k_max + 1):
        gk = gram_matrix(s, k)
        transported = phi.T @ gram_matrix(t, k) @ phi
        defects.append(linalg.frobenius(transported - gk) / max(linalg.frobenius(gk), np.finfo(float).tiny))
    defects = tuple(float(d) for d in defects)
    return IsometryReport(max(defects) <= tol, defects, tol)


def common_orthogonal_basis(g_a: np.ndarray, g_b: np.ndarray) -> np.ndarray:
    """A basis simultaneously orthogonal for two SPD forms.

    Columns diagonalize both: B^T g_b B = I and B^T g_a B is diagonal
    (generalized symmetric eigenproblem; any two SPD forms admit such a
    basis, three in general do not).
    """
    g_a = linalg.require_spd(g_a, name="g_a")
    g_b = linalg.require_spd(g_b, name="g_b")
    if g_a.shape != g_b.shape:
        raise ValueError("Gram matrices must have matching dimensions")
    return linalg.generalized_eigh(g_a, g_b)[1]


def validate_space(s: TruncatedScaleSpace, tol: float = DEFAULT_TOL) -> list[str]:
    """Diagnostic findings (empty list = fully canonical).

    Construction already guarantees SPD grades; this reports softer
    conventions: canonical grade-0 normalization and per-grade weight
    monotonicity of diagonal grades.
    """
    findings = []
    g0 = s.grades[0]
    if isinstance(g0, DiagonalGrade):
        if not np.allclose(g0.weight.log_values, 0.0, atol=1e-12):
            findings.append("grade 0 is diagonal but not the constant weight 1")
    else:
        if not np.allclose(g0.matrix, np.eye(s.n), atol=tol):
            findings.append("grade 0 Gram is not the identity")
    for k, g in enumerate(s.grades):
        if isinstance(g, DiagonalGrade):
            report = validate_weight(g.weight)
            findings += [f"grade {k}: {v.message}" for v in report.violations]
    return findings


def space_to_json(s: TruncatedScaleSpace) -> dict:
    grades = []
    for g in s.grades:
        if isinstance(g, DiagonalGrade):
            grades.append({"type": "diagonal", "weight": weight_to_json(g.weight)})
        else:
            grades.append({"type": "gram", "matrix": [[float(v) for v in row] for row in g.matrix]})
    return {"n": s.n, "k_max": s.k_max, "grades": grades}


def space_from_json(obj: dict) -> TruncatedScaleSpace:
    """Load {"n", "k_max", "grades": [{"type": "diagonal"|"gram", ...}]}."""
    n = int(obj["n"])
    k_max = int(obj["k_max"])
    raw = obj["grades"]
    if len(raw) != k_max + 1:
        raise ValueError(f"expected {k_max + 1} grades, got {len(raw)}")
    grades = []
    for entry in raw:
        if entry["type"] == "diagonal":
            grades.append(DiagonalGrade(weight_from_json(entry["weight"])))
        elif entry["type"] == "gram":
            grades.append(GramGrade(np.asarray(entry["matrix"], dtype=float)))
        else:
            raise ValueError(f"unknown grade type {entry['type']!r}")
    return TruncatedScaleSpace(n, tuple(grades))
