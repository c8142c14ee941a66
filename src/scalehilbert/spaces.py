"""Truncated scale Hilbert spaces.

A truncated scale space is a finite ladder of inner products (grades) on a
common n-dimensional coordinate space, expressed in the grade-0 orthonormal
basis. Each grade is either diagonal (a weight table) or a general SPD Gram
matrix. Grade k of the canonical weighted model uses the k-th power of a
single weight, whose log values must be finite and nondecreasing:
:func:`weighted_sequence_space` refuses any other weight and names the
first index nu at fault. General spaces may carry arbitrary SPD grades.

All types are immutable after construction and all operations are pure,
so spaces can be shared freely across threads.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .weights import (
    Weight,
    _json_int,
    _json_numbers,
    _json_type,
    json_field,
    weight_from_json,
    weight_power,
)

__all__ = [
    "DiagonalGrade",
    "GramGrade",
    "TruncatedScaleSpace",
    "IsometryReport",
    "weighted_sequence_space",
    "gram_matrix",
    "inclusion_singular_values",
    "equivalence_constants",
    "is_scale_isometric",
    "space_from_json",
]


@dataclass(frozen=True, eq=False)
class DiagonalGrade:
    """Inner product sum_nu w(nu) x_nu y_nu given by a weight table."""

    weight: Weight

    @property
    def n(self) -> int:
        return self.weight.n


@dataclass(frozen=True, eq=False)
class GramGrade:
    """Inner product x^T G y for a symmetric positive definite G (checked)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_square_matrix(self.matrix, "Gram matrix")
        linalg.require_spd(m, name="Gram matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class TruncatedScaleSpace:
    """Grades 0..k_max of inner products on an n-dimensional space.

    Construction checks that every grade has dimension n and every weight
    is finite; a Gram grade checks that it is SPD when it is built. The
    canonical normalization (grade 0 = constant weight 1) is enforced by
    :func:`weighted_sequence_space` and ``hessian.ScaleOperator``, whose
    scale must start at the identity; other spaces may start anywhere.
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
            if isinstance(g, DiagonalGrade) and not np.isfinite(g.weight.log_values).all():
                raise ValueError(f"grade {k} weight has non-finite log values")
        object.__setattr__(self, "grades", grades)

    @property
    def k_max(self) -> int:
        return len(self.grades) - 1

    def grade(self, k: int):
        if not 0 <= k <= self.k_max:
            raise IndexError(f"grade {k} out of range 0..{self.k_max}")
        return self.grades[k]


def weighted_sequence_space(w: Weight, k_max: int) -> TruncatedScaleSpace:
    """The canonical weighted model: grade k carries the weight f**k.

    Grade 0 is the constant weight 1 (plain square-summable normalization).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    finite = np.isfinite(w.log_values)
    if not finite.all():
        nu = int(np.argmin(finite)) + 1
        raise ValueError(f"invalid weight: log value at nu={nu} is not finite (weight must be positive and finite)")
    drops = np.diff(w.log_values) < 0
    if drops.any():
        raise ValueError(f"invalid weight: weight decreases at nu={int(np.argmax(drops)) + 2}")
    grades = [DiagonalGrade(Weight(np.zeros(w.n)))]
    grades += [DiagonalGrade(weight_power(w, k)) for k in range(1, k_max + 1)]
    return TruncatedScaleSpace(w.n, tuple(grades))


def gram_matrix(s: TruncatedScaleSpace, k: int) -> np.ndarray:
    """Dense Gram matrix of grade k (diagonal grades are exponentiated)."""
    g = s.grade(k)
    if isinstance(g, DiagonalGrade):
        return np.diag(g.weight.values())
    return g.matrix.copy()


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


def equivalence_constants(g: np.ndarray, h: np.ndarray) -> tuple[float, float]:
    """(c_lo, c_hi), the attained extremes of g v = mu h v. Two 1-d arrays
    are the log tables of diagonal forms, whose ratios are taken in log scale
    (safe for very large weights); otherwise g is a symmetric and h an SPD
    matrix, and the constants are the ends of :func:`linalg.generalized_eigh`."""
    if np.ndim(g) == np.ndim(h) == 1:
        if len(g) != len(h):
            raise ValueError("log tables must have matching length")
        ratio = np.exp(g - h)
        return float(ratio.min()), float(ratio.max())
    mu = linalg.generalized_eigh(g, h)[0]
    return float(mu[0]), float(mu[-1])


@dataclass(frozen=True)
class IsometryReport:
    is_isometric: bool
    defects: tuple[float, ...]  # per-grade relative Frobenius transport defect
    tol: float


def is_scale_isometric(
    s: TruncatedScaleSpace,
    t: TruncatedScaleSpace,
    mapping: np.ndarray,
    tol: float = 1e-8,
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
    return IsometryReport(bool(np.max(defects) <= tol), defects, tol)  # a NaN defect fails


def space_from_json(obj: dict, path: str = "scale") -> TruncatedScaleSpace:
    """Load {"n", "k_max", "grades": [{"type": "diagonal"|"gram", ...}]};
    ``path`` names the object in input errors."""
    n = _json_int(obj, "n", path)
    k_max = _json_int(obj, "k_max", path)
    if k_max < 0:
        raise ValueError(f"{path}.k_max: a scale space needs at least one grade, got k_max {k_max}")
    raw = json_field(obj, "grades", path)
    if not isinstance(raw, list):
        raise ValueError(f"{path}.grades: expected an array, got {_json_type(raw)}")
    if len(raw) != k_max + 1:
        raise ValueError(f"{path}.grades: expected {k_max + 1} grades, got {len(raw)}")
    grades = []
    for k, entry in enumerate(raw):
        entry_path = f"{path}.grades[{k}]"
        kind = json_field(entry, "type", entry_path)
        if kind == "diagonal":
            weight = json_field(entry, "weight", entry_path)
            grades.append(DiagonalGrade(weight_from_json(weight, f"{entry_path}.weight")))
        elif kind == "gram":
            matrix = _json_numbers(entry, "matrix", entry_path)
            try:
                grades.append(GramGrade(matrix))
            except ValueError as exc:
                raise ValueError(f"{entry_path}.matrix: {exc}") from exc
        else:
            raise ValueError(f"{entry_path}.type: unknown grade type {kind!r}")
        if grades[-1].n != n:
            field = "matrix" if kind == "gram" else "weight"
            raise ValueError(f"{entry_path}.{field}: grade has dimension {grades[-1].n}, expected {path}.n = {n}")
    return TruncatedScaleSpace(n, tuple(grades))
