import numpy as np
import pytest

from scalehilbert.weights import (
    EXP_OVERFLOW_LOG,
    Weight,
    constant_weight,
    poly_plus_one_weight,
    sigma_weight,
    validate_weight,
    weight_from_json,
    weight_power,
)


def test_sigma_values():
    w = sigma_weight(5)
    assert [w.value(nu) for nu in range(1, 6)] == pytest.approx([2, 5, 10, 17, 26], rel=1e-14)


def test_constant_weight_is_one():
    w = constant_weight(4)
    assert np.array_equal(w.log_values, np.zeros(4))
    assert w.value(3) == 1.0


def test_poly_plus_one_degree_zero():
    w = poly_plus_one_weight(6, 0)
    assert w.values() == pytest.approx(np.full(6, 2.0), rel=1e-15)


def test_eval_is_one_based():
    w = sigma_weight(3)
    assert w.value(1) == pytest.approx(2.0)
    assert w.log_value(3) == pytest.approx(np.log(10.0))
    for bad in (0, 4, -1):
        with pytest.raises(IndexError):
            w.value(bad)
        with pytest.raises(IndexError):
            w.log_value(bad)


def test_log_values_read_only():
    w = sigma_weight(3)
    with pytest.raises(ValueError):
        w.log_values[0] = 0.0


@pytest.mark.parametrize("k1,k2", [(0, 3), (1, 1), (2, 3), (3, 2), (5, 7)])
def test_power_composes_exactly(k1, k2):
    w = sigma_weight(40)
    composed = weight_power(weight_power(w, k1), k2)
    direct = weight_power(w, k1 * k2)
    assert np.array_equal(composed.log_values, direct.log_values)


def test_power_values():
    w = sigma_weight(4)
    w3 = weight_power(w, 3)
    assert w3.values() == pytest.approx(w.values() ** 3, rel=1e-13)
    assert np.array_equal(weight_power(w, 1).log_values, w.log_values)
    assert np.array_equal(weight_power(w, 0).log_values, np.zeros(4))


def test_power_preserves_monotonicity():
    w = sigma_weight(64)
    for k in (2, 5, 40):
        assert validate_weight(weight_power(w, k)).ok


def test_power_rejects_bad_exponent():
    w = sigma_weight(3)
    with pytest.raises(ValueError):
        weight_power(w, -1)
    with pytest.raises(ValueError):
        weight_power(w, 1.5)


def test_eval_at_overflow_boundary():
    # below ~700 the linear value is finite, above it saturates to inf,
    # while the log accessor stays exact
    w = Weight(np.array([EXP_OVERFLOW_LOG - 1.0, EXP_OVERFLOW_LOG + 10.0]))
    assert np.isfinite(w.value(1))
    assert w.value(2) == np.inf
    assert w.log_value(2) == EXP_OVERFLOW_LOG + 10.0


def test_high_powers_stay_in_log_domain():
    w = weight_power(sigma_weight(4096), 50)
    assert np.isfinite(w.log_values).all()
    assert validate_weight(w).ok


def test_validate_flags_non_monotone():
    report = validate_weight(Weight(np.log([1.0, 3.0, 2.0, 4.0])))
    assert not report.ok
    v = report.violations[0]
    assert v.kind == "not_monotone"
    assert v.index == 3


def test_validate_flags_non_finite():
    report = validate_weight(Weight(np.array([0.0, np.inf, 1.0])))
    assert not report.ok
    assert report.violations[0].kind == "non_finite"
    assert report.violations[0].index == 2


def test_validate_ok():
    assert validate_weight(sigma_weight(100)).ok


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
        constant_weight(0)
    with pytest.raises(ValueError):
        poly_plus_one_weight(0, 2)
