import numpy as np
import pytest
from weight_checks import is_scale_weight

from scalehilbert.spaces import weighted_sequence_space
from scalehilbert.weights import (
    Weight,
    poly_plus_one_weight,
    sigma_weight,
    weight_from_json,
    weight_power,
)


def test_sigma_values():
    w = sigma_weight(5)
    assert w.values() == pytest.approx([2, 5, 10, 17, 26], rel=1e-14)


def test_constant_weight_is_one():
    # grade 0 of the weighted model is the constant weight 1
    w = weighted_sequence_space(sigma_weight(4), 1).grade(0).weight
    assert np.array_equal(w.log_values, np.zeros(4))
    assert np.array_equal(w.values(), np.ones(4))


def test_poly_plus_one_degree_zero():
    w = poly_plus_one_weight(6, 0)
    assert w.values() == pytest.approx(np.full(6, 2.0), rel=1e-15)


def test_eval_is_one_based():
    # entry i of the table belongs to nu = i + 1
    w = sigma_weight(3)
    assert w.values()[0] == pytest.approx(2.0)
    assert w.log_values[2] == pytest.approx(np.log(10.0))


def test_log_values_read_only():
    w = sigma_weight(3)
    with pytest.raises(ValueError):
        w.log_values[0] = 0.0


def test_power_values():
    w = sigma_weight(4)
    w3 = weight_power(w, 3)
    assert w3.values() == pytest.approx(w.values() ** 3, rel=1e-13)
    assert np.array_equal(w3.log_values, w.log_values * 3)
    assert np.array_equal(weight_power(w, 1).log_values, w.log_values)
    assert np.array_equal(weight_power(w, 0).log_values, np.zeros(4))


def test_power_preserves_monotonicity():
    w = sigma_weight(64)
    for k in (2, 5, 40):
        assert is_scale_weight(weight_power(w, k))


def test_power_rejects_bad_exponent():
    w = sigma_weight(3)
    with pytest.raises(ValueError):
        weight_power(w, -1)
    with pytest.raises(ValueError):
        weight_power(w, 1.5)


def test_eval_at_overflow_boundary():
    # below ~700 the linear value is finite, above it saturates to inf,
    # while the log accessor stays exact
    w = Weight(np.array([699.0, 710.0]))
    assert np.isfinite(w.values()[0])
    assert w.values()[1] == np.inf
    assert w.log_values[1] == 710.0


def test_high_powers_stay_in_log_domain():
    w = weight_power(sigma_weight(4096), 50)
    assert np.isfinite(w.log_values).all()
    assert is_scale_weight(w)


def test_validate_flags_non_monotone():
    w = Weight(np.log([1.0, 3.0, 2.0, 4.0]))
    assert not is_scale_weight(w)
    with pytest.raises(ValueError, match=r"^invalid weight: weight decreases at nu=3$"):
        weighted_sequence_space(w, 1)


def test_validate_flags_non_finite():
    # the first non-finite index is named, before the drop after it
    w = Weight(np.array([0.0, np.inf, 1.0]))
    assert not is_scale_weight(w)
    with pytest.raises(ValueError, match=r"^invalid weight: log value at nu=2 is not finite \(weight must be"):
        weighted_sequence_space(w, 1)


def test_validate_ok():
    assert is_scale_weight(sigma_weight(100))
    assert weighted_sequence_space(sigma_weight(100), 1).n == 100


def test_json_roundtrip_table():
    w = sigma_weight(6)
    back = weight_from_json({"n": 6, "kind": "table", "values": [2, 5, 10, 17, 26, 37]})
    assert back.values() == pytest.approx(w.values(), rel=1e-14)


def test_json_closed_form():
    w = weight_from_json(
        {"n": 5, "kind": "closed_form", "formula": {"name": "poly_plus_one", "degree": 2}}
    )
    assert np.array_equal(w.log_values, sigma_weight(5).log_values)


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 2, "kind": "table", "values": [1.0, -2.0]},
        {"n": 3, "kind": "table", "values": [1.0, 2.0]},
        {"n": 2, "kind": "mystery", "values": [1.0, 2.0]},
        {"n": 2, "kind": "closed_form", "formula": {"name": "exp", "degree": 1}},
    ],
)
def test_json_rejects_invalid(obj):
    with pytest.raises(ValueError):
        weight_from_json(obj)


def test_empty_weight_rejected():
    with pytest.raises(ValueError):
        poly_plus_one_weight(0, 2)
