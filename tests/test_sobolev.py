import math

import numpy as np
import pytest

from scalehilbert.sobolev_circle import (
    FourierBasisSpec,
    build_sobolev_space,
    fourier_gram_closed_form,
    fourier_gram_quadrature,
    fourier_gram_quadrature_table,
    ratio_trace,
    sigma_equivalence_constants,
)
from scalehilbert.spaces import gram_matrix, validate_space


class TestBasisSpec:
    def test_mode_layout(self):
        spec = FourierBasisSpec(7)
        assert spec.mode(1) == (0, "constant")
        assert spec.mode(2) == (1, "sine")
        assert spec.mode(3) == (1, "cosine")
        assert spec.mode(6) == (3, "sine")
        assert spec.mode(7) == (3, "cosine")

    def test_modes_listing(self):
        assert FourierBasisSpec(3).modes() == [(0, "constant"), (1, "sine"), (1, "cosine")]

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            FourierBasisSpec(0)
        spec = FourierBasisSpec(4)
        for nu in (0, 5, -2):
            with pytest.raises(ValueError):
                spec.mode(nu)


class TestClosedForm:
    def test_constant_function_has_unit_norm_at_every_grade(self):
        for k in (0, 1, 5):
            assert fourier_gram_closed_form(1, 1, k) == 1.0

    def test_first_sine_grade_one(self):
        expected = 1.0 + 4.0 * math.pi**2
        assert fourier_gram_closed_form(2, 2, 1) == pytest.approx(expected, rel=1e-15)
        assert fourier_gram_closed_form(2, 2, 1) == pytest.approx(40.47841760435743, rel=1e-15)

    def test_geometric_sum_structure(self):
        r = (2.0 * math.pi * 2) ** 2
        assert fourier_gram_closed_form(4, 4, 2) == pytest.approx(1 + r + r**2, rel=1e-14)
        assert fourier_gram_closed_form(5, 5, 2) == pytest.approx(1 + r + r**2, rel=1e-14)

    def test_off_diagonal_is_exactly_zero(self):
        assert fourier_gram_closed_form(2, 3, 1) == 0.0
        assert fourier_gram_closed_form(1, 7, 4) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fourier_gram_closed_form(0, 1, 1)
        with pytest.raises(ValueError):
            fourier_gram_closed_form(1, 0, 1)
        with pytest.raises(ValueError):
            fourier_gram_closed_form(1, 1, -1)


class TestQuadratureOracle:
    def test_matches_closed_form_on_diagonal(self):
        for nu, k in [(1, 0), (1, 3), (2, 1), (4, 2), (9, 3)]:
            cf = fourier_gram_closed_form(nu, nu, k)
            quad = fourier_gram_quadrature(nu, nu, k, 256)
            assert quad == pytest.approx(cf, rel=1e-11)

    def test_off_diagonal_vanishes_to_roundoff(self):
        scale = fourier_gram_closed_form(4, 4, 2)
        for pair in [(2, 3), (2, 4), (1, 4), (3, 5)]:
            assert abs(fourier_gram_quadrature(*pair, 2, 256)) <= 1e-10 * scale

    def test_minimal_node_count(self):
        assert fourier_gram_quadrature(1, 1, 0, 2) == pytest.approx(1.0, rel=1e-15)

    def test_insufficient_nodes_rejected(self):
        # frequency 5 at grade 3 needs 4 * 5 * 4 = 80 nodes
        with pytest.raises(ValueError, match="insufficient node count"):
            fourier_gram_quadrature(10, 10, 3, 79)
        assert fourier_gram_quadrature(10, 10, 3, 80) == pytest.approx(
            fourier_gram_closed_form(10, 10, 3), rel=1e-11
        )

    def test_table_matches_scalar_and_is_symmetric(self):
        nu_max, k = 9, 2
        table = fourier_gram_quadrature_table(nu_max, k)
        assert table.shape == (nu_max, nu_max)
        assert np.array_equal(table, table.T)
        for nu in range(1, nu_max + 1):
            assert table[nu - 1, nu - 1] == pytest.approx(
                fourier_gram_closed_form(nu, nu, k), rel=1e-11
            )

    def test_table_off_diagonal_correlations_are_roundoff(self):
        for k in range(4):
            table = fourier_gram_quadrature_table(12, k)
            d = np.sqrt(np.diag(table))
            corr = table / np.outer(d, d)
            off = corr - np.diag(np.diag(corr))
            assert np.abs(off).max() < 1e-10

    def test_grade_zero_table_is_identity(self):
        table = fourier_gram_quadrature_table(8, 0, q=64)
        assert table == pytest.approx(np.eye(8), abs=1e-12)

    def test_table_rejects_undersampling(self):
        with pytest.raises(ValueError, match="insufficient node count"):
            fourier_gram_quadrature_table(10, 3, q=16)


class TestFractalRatio:
    def test_ratio_at_first_index(self):
        # the lower equivalence bound 2**-k is attained at nu = 1
        for k in range(5):
            assert ratio_trace(1, k)[0] == pytest.approx(2.0**-k, rel=1e-13)

    def test_ratio_tends_to_pi_power(self):
        assert ratio_trace(10**4, 1)[-1] == pytest.approx(math.pi**2, rel=1e-6)
        assert ratio_trace(10**4, 2)[-1] == pytest.approx(math.pi**4, rel=1e-6)

    def test_trace_matches_scalar(self):
        trace = ratio_trace(32, 3)
        assert trace.shape == (32,)
        for nu in (1, 2, 7, 32):
            scalar = fourier_gram_closed_form(nu, nu, 3) / (nu**2 + 1) ** 3
            assert trace[nu - 1] == pytest.approx(scalar, rel=1e-13)

    def test_trace_respects_equivalence_bounds(self):
        for k in range(4):
            trace = ratio_trace(400, k)
            assert trace.min() >= 2.0**-k * (1 - 1e-12)
            assert trace.max() <= (1 + 4 * math.pi**2) ** k * (1 + 1e-12)
            assert np.argmin(trace) == 0

    def test_even_index_ratios_increase(self):
        # along even indices the frequency is nu/2, so the ratio climbs
        # monotonically toward its limit (odd indices lag by one frequency)
        for k in (1, 2, 3):
            even = ratio_trace(200, k)[1::2]
            assert np.all(np.diff(even) > 0)

    def test_large_grade_stays_finite(self):
        trace = ratio_trace(64, 200)
        assert np.isfinite(trace).all()
        assert trace.min() > 0


class TestEquivalenceConstants:
    def test_grade_zero_is_trivial(self):
        assert sigma_equivalence_constants(16, 0) == (1.0, 1.0)

    def test_constants_match_ratio_extremes(self):
        nu_max, k = 64, 2
        c_lo, c_hi = sigma_equivalence_constants(nu_max, k)
        trace = ratio_trace(nu_max, k)
        assert c_lo == pytest.approx(trace.min(), rel=1e-13)
        assert c_hi == pytest.approx(trace.max(), rel=1e-13)
        assert c_lo == pytest.approx(0.25, rel=1e-13)

    def test_constants_within_universal_bounds(self):
        for k in (1, 2, 3):
            c_lo, c_hi = sigma_equivalence_constants(512, k)
            assert c_lo >= 2.0**-k * (1 - 1e-12)
            assert c_hi <= (1 + 4 * math.pi**2) ** k * (1 + 1e-12)


class TestSobolevSpace:
    def test_smallest_space_is_flat(self):
        s = build_sobolev_space(1, 3)
        for k in range(4):
            assert np.array_equal(s.grade(k).weight.log_values, np.zeros(1))

    def test_grades_carry_closed_form_diagonal(self):
        s = build_sobolev_space(8, 2)
        for k in range(3):
            expected = np.array([fourier_gram_closed_form(nu, nu, k) for nu in range(1, 9)])
            assert np.diag(gram_matrix(s, k)) == pytest.approx(expected, rel=1e-13)

    def test_grade_zero_is_canonical(self):
        assert validate_space(build_sobolev_space(6, 3)) == []

    def test_quadrature_cross_check(self):
        s = build_sobolev_space(7, 2)
        for k in range(3):
            table = fourier_gram_quadrature_table(7, k)
            assert np.diag(gram_matrix(s, k)) == pytest.approx(np.diag(table), rel=1e-11)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_sobolev_space(0, 2)
        with pytest.raises(ValueError):
            build_sobolev_space(4, -1)
