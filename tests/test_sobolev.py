import math
import sys
import tracemalloc

import numpy as np
import pytest

from scalehilbert.sobolev_circle import (
    _NODE_BLOCK,
    FourierBasisSpec,
    _derivative_values,
    _log_closed_form_diag,
    _trapezoid_table,
    build_sobolev_space,
    fourier_gram_closed_form,
    fourier_gram_quadrature,
    fourier_gram_quadrature_table,
    oracle_deltas,
    ratio_trace,
    sigma_equivalence_constants,
)
from scalehilbert.spaces import gram_matrix
from scalehilbert.weights import validate_weight


class TestBasisSpec:
    def test_mode_layout(self):
        spec = FourierBasisSpec(7)
        assert spec.mode(1) == (0, "constant")
        assert spec.mode(2) == (1, "sine")
        assert spec.mode(3) == (1, "cosine")
        assert spec.mode(6) == (3, "sine")
        assert spec.mode(7) == (3, "cosine")

    def test_modes_listing(self):
        spec = FourierBasisSpec(3)
        assert [spec.mode(nu) for nu in (1, 2, 3)] == [(0, "constant"), (1, "sine"), (1, "cosine")]

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

    def test_log_diagonal_is_exactly_zero_for_the_constant(self):
        # criterion 2's lower endpoint 2^-k is attained exactly at nu = 1
        for k in range(201):
            assert _log_closed_form_diag(1, k) == 0.0
            assert _log_closed_form_diag(np.arange(1, 4), k)[0] == 0.0

    def test_log_diagonal_matches_log_of_the_float_sum(self):
        nu = np.arange(1, 4097)
        for k in range(6):
            reference = np.log([fourier_gram_closed_form(n, n, k) for n in nu])
            assert np.all(np.abs(_log_closed_form_diag(nu, k) - reference) <= 4 * np.finfo(float).eps * reference)

    @pytest.mark.parametrize("nu, ks", [(64, (66, 67)), (1024, (43, 44)), (3, (193, 194))])
    def test_overflow_gate_agrees_with_the_float_sum(self, nu, ks):
        # each pair straddles the last grade whose weight is finite
        gate = []
        for k in ks:
            try:
                finite = math.isfinite(fourier_gram_closed_form(nu, nu, k))
            except OverflowError:
                finite = False
            below = _log_closed_form_diag(nu, k) < math.log(sys.float_info.max)
            assert below == finite
            gate.append(below)
        assert gate == [True, False]

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


def scaled_table_delta(table, reference, k):
    """Largest entrywise |table - reference|, scaled as the oracle scales
    it: by max(1, sqrt(d_nu d_nu')) with d the closed-form diagonal."""
    d = np.array([fourier_gram_closed_form(nu, nu, k) for nu in range(1, table.shape[0] + 1)])
    return float((np.abs(table - reference) / np.maximum(1.0, np.sqrt(np.outer(d, d)))).max())


def pointwise_table(nu_max, k, q):
    """The trapezoid table from pointwise derivative samples, at any q."""
    spec = FourierBasisSpec(nu_max)
    t = np.arange(q, dtype=float) / q
    table = np.zeros((nu_max, nu_max))
    for j in range(k + 1):
        d = np.array([_derivative_values(*spec.mode(nu), j, t) for nu in range(1, nu_max + 1)])
        table += d @ d.T / q
    return table


class TestStreamedTable:
    """The node-block table against the scalar pointwise reference."""

    @pytest.mark.parametrize("nu_max", [1, 2, 9, 12])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("nodes", ["default", "not_multiple_of_4", "ragged_blocks", "ragged_blocks_even"])
    def test_table_equals_scalar_entrywise(self, nu_max, k, nodes):
        default_q = max(64, 4 * (nu_max // 2) * (k + 1))
        q = {
            "default": None,
            "not_multiple_of_4": max(2, 4 * (nu_max // 2) * (k + 1)) + 1,
            "ragged_blocks": 2 * _NODE_BLOCK + 37,
            "ragged_blocks_even": 2 * _NODE_BLOCK + 38,
        }[nodes]
        table = fourier_gram_quadrature_table(nu_max, k, q)
        q_used = default_q if q is None else q
        scalar = np.array(
            [[fourier_gram_quadrature(a, b, k, q_used) for b in range(1, nu_max + 1)] for a in range(1, nu_max + 1)]
        )
        assert scaled_table_delta(table, scalar, k) <= 1e-13

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 8])
    def test_identity_is_exact_for_aliased_node_counts(self, q):
        # below the alias-free node count, products of two sines or two
        # cosines of different frequencies no longer sum to 0, so odd grades
        # see whether G_1 really swaps sine and cosine (above it G_0 and G_1
        # agree to roundoff); sine-cosine products sum to 0 at every q, as
        # the node set is symmetric under t -> -t, so no table shows the
        # sign of the cosine's derivative direction
        for nu_max in (9, 12):
            for k in range(4):
                table = _trapezoid_table(nu_max, k, q)
                assert np.array_equal(table, table.T)
                assert scaled_table_delta(table, pointwise_table(nu_max, k, q), k) <= 1e-13

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 8, 37, 2 * _NODE_BLOCK + 37, 2 * _NODE_BLOCK + 38])
    def test_sine_cosine_block_is_exactly_zero(self, q):
        # the node set {i/q} is symmetric under t -> -t, where a sine is odd
        # and the constant and cosines are even: the trapezoid sum of their
        # product cancels over the node pairs (i, q - i), and the node Gram
        # sums over those pairs, so the entries are exactly 0, not roundoff
        for k in range(4):
            table = _trapezoid_table(12, k, q)
            assert np.all(table[1::2, 0::2] == 0.0)
            assert np.all(table[0::2, 1::2] == 0.0)

    def test_rejects_negative_grade(self):
        with pytest.raises(ValueError, match="grade"):
            fourier_gram_quadrature_table(4, -1)
        with pytest.raises(ValueError, match="k_max"):
            next(oracle_deltas(4, -1))

    def test_memory_stays_below_the_full_sample_matrix(self):
        # the seed's derivative matrix alone was nu_max x q doubles, 64 MiB
        # at (1024, 3), with two copies alive; streaming keeps the peak to a
        # few nu_max x nu_max arrays
        tracemalloc.start()
        try:
            fourier_gram_quadrature_table(1024, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2**20


class TestOracleStream:
    """Every grade of the oracle from one node Gram at grade k_max's q."""

    @pytest.mark.parametrize("nu_max", [1, 2, 9, 12])
    @pytest.mark.parametrize("k_max", [0, 3])
    def test_streamed_grades_equal_the_table_at_the_shared_q(self, nu_max, k_max):
        q_shared = max(64, 4 * (nu_max // 2) * (k_max + 1))
        streamed = [(diag, quad.copy(), delta) for diag, quad, delta in oracle_deltas(nu_max, k_max)]
        assert len(streamed) == k_max + 1
        for k, (diag, quad, delta) in enumerate(streamed):
            assert np.array_equal(quad, _trapezoid_table(nu_max, k, q_shared))
            assert np.array_equal(diag, [fourier_gram_closed_form(nu, nu, k) for nu in range(1, nu_max + 1)])
            assert delta == pytest.approx(scaled_table_delta(quad, np.diag(diag), k), rel=1e-12)
            assert delta <= 1e-13
        # the top grade is the table at its own default node count
        assert np.array_equal(streamed[-1][1], fourier_gram_quadrature_table(nu_max, k_max))

    def test_whole_stream_stays_below_the_full_sample_matrix(self):
        tracemalloc.start()
        try:
            deltas = [delta for _, _, delta in oracle_deltas(1024, 3)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(deltas) == 4
        assert peak < 80 * 2**20


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
        for nu_max, k in ((1, 3), (64, 2), (1024, 3), (64, 7)):
            trace = ratio_trace(nu_max, k)
            assert sigma_equivalence_constants(nu_max, k) == (trace.min(), trace.max())
        assert sigma_equivalence_constants(64, 2)[0] == 0.25

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
        s = build_sobolev_space(6, 3)
        assert np.array_equal(s.grade(0).weight.log_values, np.zeros(6))
        assert all(validate_weight(g.weight).ok for g in s.grades)

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
