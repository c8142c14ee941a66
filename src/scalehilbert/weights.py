"""Monotone positive weight functions on indices 1..n, stored in log scale.

A weight table is the seed of a weighted sequence space: grade k of the
scale uses the k-th power of the weight. Powers of interesting weights
(e.g. nu**2 + 1 raised to grade 3) leave double-precision range quickly,
so every weight is kept as a table of log values and only exponentiated
on demand. Indices are 1-based throughout the public API.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Weight",
    "WeightViolation",
    "WeightValidation",
    "weight_power",
    "validate_weight",
    "constant_weight",
    "poly_plus_one_weight",
    "sigma_weight",
    "weight_from_json",
]

# exp() overflows just above this; past it callers must stay in log scale
EXP_OVERFLOW_LOG = 700.0


@dataclass(frozen=True, eq=False)
class Weight:
    """Positive weight f on 1..n as a read-only table of log f(nu)."""

    log_values: np.ndarray
    # Integer powers are tracked against a base table and materialized with a
    # single multiplication, so repeated powering composes exactly in log scale.
    _power_base: np.ndarray | None = field(default=None, repr=False)
    _power_exponent: int = field(default=1, repr=False)

    def __post_init__(self):
        logs = np.array(self.log_values, dtype=float).reshape(-1)
        logs.setflags(write=False)
        object.__setattr__(self, "log_values", logs)
        if self._power_base is None:
            object.__setattr__(self, "_power_base", logs)

    @property
    def n(self) -> int:
        return self.log_values.shape[0]

    def value(self, nu: int) -> float:
        """f(nu); inf past the double-precision range."""
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_value(nu)))

    def log_value(self, nu: int) -> float:
        """log f(nu), exact; raises IndexError outside 1..n."""
        if not 1 <= nu <= self.n:
            raise IndexError(f"weight index {nu} out of range 1..{self.n}")
        return float(self.log_values[nu - 1])

    def values(self) -> np.ndarray:
        """Materialize the linear-scale table (inf past the overflow bound)."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_values)


def weight_power(w: Weight, k: int) -> Weight:
    """The weight f**k for integer k >= 0.

    Log tables multiply by k, so monotonicity is preserved and
    ``weight_power(weight_power(w, k1), k2)`` equals
    ``weight_power(w, k1 * k2)`` exactly.
    """
    if k != int(k) or k < 0:
        raise ValueError(f"power must be a nonnegative integer, got {k}")
    k = int(k)
    exponent = w._power_exponent * k
    return Weight(w._power_base * exponent, _power_base=w._power_base, _power_exponent=exponent)


@dataclass(frozen=True)
class WeightViolation:
    kind: str  # "non_finite" | "not_monotone"
    index: int  # first offending 1-based index
    message: str


@dataclass(frozen=True)
class WeightValidation:
    violations: tuple[WeightViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_weight(w: Weight) -> WeightValidation:
    """Diagnostic check of the weight invariants; never raises.

    Reports the first index at which positivity/finiteness (finite log value)
    or monotonicity (nondecreasing log values) fails.
    """
    found = []
    finite = np.isfinite(w.log_values)
    if not finite.all():
        idx = int(np.argmin(finite)) + 1
        found.append(
            WeightViolation(
                "non_finite",
                idx,
                f"log value at nu={idx} is not finite (weight must be positive and finite)",
            )
        )
    if w.n > 1:
        drops = np.diff(w.log_values) < 0
        if drops.any():
            idx = int(np.argmax(drops)) + 2
            found.append(
                WeightViolation(
                    "not_monotone",
                    idx,
                    f"weight decreases at nu={idx}",
                )
            )
    return WeightValidation(tuple(found))


def constant_weight(n: int) -> Weight:
    if n < 1:
        raise ValueError("n must be >= 1")
    return Weight(np.zeros(n))


def poly_plus_one_weight(n: int, degree: int) -> Weight:
    """The weight nu**degree + 1, evaluated stably in log scale."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    nu = np.arange(1, n + 1, dtype=float)
    logs = degree * np.log(nu) + np.log1p(nu ** (-float(degree)))
    return Weight(logs)


def sigma_weight(n: int) -> Weight:
    """The quadratic weight nu**2 + 1 of the Sobolev circle model."""
    return poly_plus_one_weight(n, 2)


_REQUIRED = object()


def _json_type(value) -> str:
    """The JSON type name of a parsed value (null, boolean, number, string, array or object)."""
    names = {bool: "boolean", int: "number", float: "number", str: "string", list: "array", dict: "object"}
    return "null" if value is None else names.get(type(value), type(value).__name__)


def json_field(obj, key: str, path: str, default=_REQUIRED):
    """``obj[key]`` of the JSON object at ``path``, or ``default`` when
    the key is absent and a default is given. Input errors name the
    path: "path: expected an object, got number" or "path.key missing"."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object, got {_json_type(obj)}")
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise ValueError(f"{path}.{key} missing")
    return default


def _json_int(obj, key: str, path: str, default=_REQUIRED) -> int:
    """:func:`json_field` read as a JSON integer, a number with no fractional part (4 or 4.0);
    3.9, "4" or true is an input error naming the path: "path.key: expected an integer, got string"."""
    value = json_field(obj, key, path, default)
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{path}.{key}: expected an integer, got {_json_type(value)}")


def _json_numbers(obj, key: str, path: str) -> np.ndarray:
    """:func:`json_field` read as a (nested) array of JSON numbers, as floats; a string, boolean
    or null element is an input error naming it: "path.key[0]: expected a number, got string"."""
    value = json_field(obj, key, path)
    _require_numbers(value, f"{path}.{key}")
    return np.asarray(value, dtype=float)


def _require_numbers(item, where: str):
    if isinstance(item, list):
        if not set(map(type, item)) <= {int, float}:  # a flat array of numbers is checked at C speed
            for i, element in enumerate(item):
                _require_numbers(element, f"{where}[{i}]")
    elif type(item) not in (int, float):
        raise ValueError(f"{where}: expected a number, got {_json_type(item)}")


def weight_from_json(obj: dict, path: str = "weight") -> Weight:
    """Load {"n", "kind": "table"|"closed_form", "values"|"formula": ...}.

    Closed-form weights are expanded to log tables on load. ``path``
    names the object in input errors.
    """
    n = _json_int(obj, "n", path)
    kind = json_field(obj, "kind", path)
    if kind == "table":
        values = _json_numbers(obj, "values", path)
        if values.shape != (n,):
            raise ValueError(f"weight table has {values.shape[0]} values, expected n={n}")
        if not (np.isfinite(values).all() and (values > 0).all()):
            raise ValueError("weight table values must be finite and positive")
        return Weight(np.log(values))
    if kind == "closed_form":
        formula = json_field(obj, "formula", path)
        name = json_field(formula, "name", f"{path}.formula")
        if name != "poly_plus_one":
            raise ValueError(f"unknown weight formula {name!r}")
        return poly_plus_one_weight(n, _json_int(formula, "degree", f"{path}.formula"))
    raise ValueError(f"unknown weight kind {kind!r}")
