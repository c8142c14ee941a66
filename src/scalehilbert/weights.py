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
    "weight_to_json",
]

# exp() overflows just above this; past it callers must stay in log scale
EXP_OVERFLOW_LOG = 700.0


@dataclass(frozen=True, eq=False)
class Weight:
    """Positive weight f on 1..n as a read-only table of log f(nu).

    ``growth_note`` is an optional free-text tag for the declared asymptotic
    behaviour (informational only; nothing at a finite truncation can test
    unboundedness, so it is never validated).
    """

    log_values: np.ndarray
    growth_note: str | None = None
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
    return Weight(
        w._power_base * exponent,
        growth_note=w.growth_note,
        _power_base=w._power_base,
        _power_exponent=exponent,
    )


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
    return Weight(np.zeros(n), growth_note="constant 1")


def poly_plus_one_weight(n: int, degree: int) -> Weight:
    """The weight nu**degree + 1, evaluated stably in log scale."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    nu = np.arange(1, n + 1, dtype=float)
    logs = degree * np.log(nu) + np.log1p(nu ** (-float(degree)))
    return Weight(logs, growth_note=f"poly_plus_one degree {degree}")


def sigma_weight(n: int) -> Weight:
    """The quadratic weight nu**2 + 1 of the Sobolev circle model."""
    return poly_plus_one_weight(n, 2)


def weight_to_json(w: Weight) -> dict:
    """Schema: {"n", "kind": "table", "values": [linear-scale floats]}.

    Always writes a table; linear values saturate to inf past the
    double-precision range, so extreme weights should be exchanged as
    closed forms instead.
    """
    return {"n": w.n, "kind": "table", "values": [float(v) for v in w.values()]}


def weight_from_json(obj: dict) -> Weight:
    """Load {"n", "kind": "table"|"closed_form", "values"|"formula": ...}.

    Closed-form weights are expanded to log tables on load.
    """
    n = int(obj["n"])
    kind = obj["kind"]
    if kind == "table":
        values = np.asarray(obj["values"], dtype=float)
        if values.shape != (n,):
            raise ValueError(f"weight table has {values.shape[0]} values, expected n={n}")
        if not (np.isfinite(values).all() and (values > 0).all()):
            raise ValueError("weight table values must be finite and positive")
        return Weight(np.log(values))
    if kind == "closed_form":
        formula = obj["formula"]
        if formula["name"] != "poly_plus_one":
            raise ValueError(f"unknown weight formula {formula['name']!r}")
        return poly_plus_one_weight(n, int(formula["degree"]))
    raise ValueError(f"unknown weight kind {kind!r}")
