"""Monotone positive weight functions on indices 1..n, stored in log scale.

A weight table is the seed of a weighted sequence space: grade k of the
scale uses the k-th power of the weight. Powers of interesting weights
(e.g. nu**2 + 1 raised to grade 3) leave double-precision range quickly,
so every weight is kept as a table of log values and only exponentiated
on demand. Entry i of a table belongs to the index nu = i + 1, and
messages name the 1-based nu.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Weight",
    "weight_power",
    "poly_plus_one_weight",
    "sigma_weight",
    "weight_from_json",
]


@dataclass(frozen=True, eq=False)
class Weight:
    """Positive weight f on 1..n as a read-only table of log f(nu)."""

    log_values: np.ndarray

    def __post_init__(self):
        logs = np.array(self.log_values, dtype=float).reshape(-1)
        logs.setflags(write=False)
        object.__setattr__(self, "log_values", logs)

    @property
    def n(self) -> int:
        return self.log_values.shape[0]

    def values(self) -> np.ndarray:
        """Materialize the linear-scale table (inf past the overflow bound)."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_values)


def weight_power(w: Weight, k: int) -> Weight:
    """The weight f**k for integer k >= 0: the log table times k, one
    rounding per entry, so monotonicity is preserved."""
    if k != int(k) or k < 0:
        raise ValueError(f"power must be a nonnegative integer, got {k}")
    return Weight(w.log_values * int(k))


def _log_poly_plus_one(nu, degree: int) -> np.ndarray:
    """log(nu**degree + 1) over indices nu >= 1, elementwise and stable:
    degree log nu + log1p(nu**-degree)."""
    nu = np.asarray(nu, dtype=float)
    return degree * np.log(nu) + np.log1p(nu ** (-float(degree)))


def poly_plus_one_weight(n: int, degree: int) -> Weight:
    """The weight nu**degree + 1, evaluated stably in log scale."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return Weight(_log_poly_plus_one(np.arange(1, n + 1), degree))


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
    or null element, or an integer no double holds, is an input error naming it:
    "path.key[0]: expected a number, got string"."""
    value = json_field(obj, key, path)
    _require_numbers(value, f"{path}.{key}")
    try:
        return np.asarray(value, dtype=float)
    except ValueError:  # numpy's "inhomogeneous shape", or more than its 64 dimensions
        depth, level = 0, [value]
        while level:
            depth, level = depth + 1, [item for items in level for item in items if isinstance(item, list)]
        got = f"one nested {depth} deep" if depth > 64 else "a ragged one"
        raise ValueError(f"{path}.{key}: expected a rectangular array, got {got}") from None
    except OverflowError:  # an integer past the double range, named by the element-wise walk
        _require_numbers(value, f"{path}.{key}", in_range=True)
        raise


def _require_numbers(item, where: str, in_range: bool = False):
    """Every element of a nested array is a JSON number; with ``in_range``,
    every element is visited and each integer must fit a double too."""
    if isinstance(item, list):
        if in_range or not set(map(type, item)) <= {int, float}:  # a flat array of numbers is checked at C speed
            for i, element in enumerate(item):
                _require_numbers(element, f"{where}[{i}]", in_range)
    elif type(item) not in (int, float):
        raise ValueError(f"{where}: expected a number, got {_json_type(item)}")
    elif in_range:
        _require_double(item, where)


# the least integer that float() rounds past the largest double
_DOUBLE_OVERFLOW = 2**1024 - 2**970


def _require_double(number, where: str):
    """An input error naming ``where`` if the JSON integer ``number`` converts to no double."""
    if abs(number) >= _DOUBLE_OVERFLOW:
        digits = len(str(abs(number)))
        raise ValueError(f"{where}: expected a number within double range, got an integer of {digits} digits")


def weight_from_json(obj: dict, path: str = "weight") -> Weight:
    """Load {"n", "kind": "table"|"closed_form", "values"|"formula": ...}.

    Closed-form weights are expanded to log tables on load. ``path``
    names the object in input errors.
    """
    n = _json_int(obj, "n", path)
    if n < 1:
        raise ValueError(f"{path}.n: expected a dimension >= 1, got {n}")
    kind = json_field(obj, "kind", path)
    if kind == "table":
        values = _json_numbers(obj, "values", path)
        if values.shape != (n,):
            raise ValueError(f"{path}.values: expected {n} values, got shape {values.shape}")
        if not (np.isfinite(values).all() and (values > 0).all()):
            raise ValueError(f"{path}.values: weight table values must be finite and positive")
        return Weight(np.log(values))
    if kind == "closed_form":
        return poly_plus_one_weight(n, _closed_form_degree(obj, path))
    raise ValueError(f"{path}.kind: unknown weight kind {kind!r}")


def _closed_form_degree(obj: dict, path: str) -> int:
    """The degree of the closed-form weight at ``path``, whose formula is
    {"name": "poly_plus_one", "degree": d >= 0}."""
    formula = json_field(obj, "formula", path)
    name = json_field(formula, "name", f"{path}.formula")
    if name != "poly_plus_one":
        raise ValueError(f"{path}.formula.name: unknown weight formula {name!r}")
    degree = _json_int(formula, "degree", f"{path}.formula")
    if degree < 0:
        raise ValueError(f"{path}.formula.degree: expected an integer >= 0, got {degree}")
    _require_double(degree, f"{path}.formula.degree")
    return degree
