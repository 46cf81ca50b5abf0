"""Coefficient families and their sum rules."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from optomech import coefficients as coef


class TestClosedForms:
    def test_g_spot_values(self):
        # 2*(-1)^3*1*2/(2^2-1^2) = -4/3
        assert coef.g_coeff(1, 2) == pytest.approx(-4.0 / 3.0, abs=0)
        assert coef.g_coeff(1, 1) == 0.0
        assert coef.h_coeff(1, 1) == 0.0

    def test_h_and_d_spot_values(self):
        assert coef.h_coeff(1, 2) == pytest.approx(-64.0 / 9.0, abs=0)
        assert coef.h_coeff(2, 1) == pytest.approx(-16.0 / 9.0, abs=0)
        assert coef.d_coeff(1, 2) == pytest.approx(-40.0 / 9.0, rel=1e-15)
        assert coef.d_coeff(1, 2) == pytest.approx(
            (coef.h_coeff(1, 2) + coef.h_coeff(2, 1)) / 2.0, rel=1e-15
        )

    def test_r1_value(self):
        # pi^2/3 + 1/4; deliberately not the rounded 3.8
        assert coef.r_coeff(1) == pytest.approx(3.539868133696453, rel=1e-15)

    def test_build_table_rejects_zero(self):
        with pytest.raises(ValueError):
            coef.build_table(0)

    @given(st.integers(1, 200), st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry_and_diagonals(self, k, j):
        assert coef.g_coeff(k, j) == -coef.g_coeff(j, k)
        if k == j:
            assert coef.h_coeff(k, j) == 0.0
        else:
            assert coef.d_coeff(k, j) == coef.d_coeff(j, k)


class TestTable:
    def test_invariants(self):
        t = coef.build_table(16)
        assert np.array_equal(t.g, -t.g.T)
        assert np.array_equal(np.diag(t.g), np.zeros(16))
        assert np.array_equal(np.diag(t.h), np.zeros(16))
        assert np.array_equal(t.d, t.d.T)
        assert np.array_equal(np.diag(t.d), t.r)
        assert np.all(t.r > 0) and np.all(np.diff(t.r) > 0)

    def test_table_is_frozen(self):
        t = coef.build_table(4)
        with pytest.raises(ValueError):
            t.g[0, 0] = 1.0

    def test_d_closed_form_vs_symmetrized_h_within_2ulp(self):
        t = coef.build_table(64)
        for k in range(1, 65):
            for j in range(1, 65):
                if k == j:
                    continue
                closed = float(coef.d_exact(k, j))
                built = t.d[k - 1, j - 1]
                assert abs(closed - built) <= 2 * np.spacing(abs(built))

    def test_scalar_lookups_equal_table_entries(self):
        t = coef.build_table(64)
        for k in range(1, 65):
            assert coef.r_coeff(k) == t.r[k - 1]
            for j in range(1, 65):
                assert coef.g_coeff(k, j) == t.g[k - 1, j - 1]
                assert coef.h_coeff(k, j) == t.h[k - 1, j - 1]
                assert coef.d_coeff(k, j) == t.d[k - 1, j - 1]

    def test_scalar_indices_give_floats_and_index_arrays_give_arrays(self):
        assert type(coef.g_coeff(1, 2)) is float and type(coef.d_coeff(3, 3)) is float
        assert type(coef.r_coeff(1)) is float
        k = np.arange(1, 5)
        np.testing.assert_array_equal(coef.d_coeff(k[:, None], k), coef.build_table(4).d)

    def test_d_equals_sym_h_exact_rational_sample(self):
        for k, j in [(1, 2), (3, 7), (20, 33), (63, 64)]:
            assert coef.d_exact(k, j) == (coef.h_exact(k, j) + coef.h_exact(j, k)) / 2

    def test_h_antisymmetric_part_is_two_g_exact(self):
        # h_{kj} - h_{jk} = 4 g_{kj}, the identity behind d = h - 2g off-diagonal
        for k, j in [(1, 2), (2, 5), (10, 11)]:
            assert coef.h_exact(k, j) - coef.h_exact(j, k) == 4 * coef.g_exact(k, j)

    def test_d_exact_rejects_diagonal(self):
        with pytest.raises(ValueError):
            coef.d_exact(3, 3)


class TestDiagonalSumRule:
    def test_large_truncation_no_tail(self):
        res = coef.verify_g_squared_sum(1, 10**6, tail_correct=False)
        assert res < 1e-4
        assert res == pytest.approx(4e-6, rel=0.05)  # ~ 4 k^2 / jmax scale

    def test_tail_correction_reaches_tolerance_early(self):
        assert coef.verify_g_squared_sum(1, 10**3, tail_correct=True) < 1e-4

    def test_two_mode_partial_sum(self):
        # only j=2 contributes: |16/9 - r_1|
        res = coef.verify_g_squared_sum(1, 2, tail_correct=False)
        assert res == pytest.approx(abs(16.0 / 9.0 - coef.r_coeff(1)), rel=1e-12)
        assert res == pytest.approx(1.762, abs=1e-3)

    def test_residual_monotone_in_truncation(self):
        k = 3
        residuals = [
            coef.verify_g_squared_sum(k, jmax, tail_correct=False)
            for jmax in range(2 * k, 2 * k + 40)
        ]
        assert all(a > b for a, b in zip(residuals, residuals[1:]))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            coef.verify_g_squared_sum(0, 10)
        with pytest.raises(ValueError):
            coef.verify_g_squared_sum(3, 3)


class TestGramSumRule:
    def test_pair_with_tail(self):
        gram = coef.gram_matrix(2, 10**4)
        val = gram[0, 1] + 4.0 * 1 * 2 * (-1.0) ** 3 / 10**4
        assert abs(val - (-40.0 / 9.0)) < 1e-3

    def test_diagonal_reduces_to_sum_rule(self):
        gram = coef.gram_matrix(2, 500)
        diag_residual = abs(gram[0, 0] - coef.r_coeff(1))
        assert diag_residual == pytest.approx(
            coef.verify_g_squared_sum(1, 500, tail_correct=False), rel=1e-12
        )

    def test_slow_convergence_partial_terms(self):
        # inner terms l = 3, 4, 5 of the (1, 2) product sum: slow 1/L approach
        partial = sum(coef.g_coeff(1, l) * coef.g_coeff(2, l) for l in (3, 4, 5))
        assert partial == pytest.approx(-2.908, abs=1e-3)
        assert abs(partial - (-40.0 / 9.0)) > 1.0

    def test_max_residual_with_tail(self):
        assert coef.verify_gram_identity(8, 10**4, tail_correct=True) < 1e-3

    def test_tail_correction_within_10x_next_order(self):
        kmax, L = 8, 10**4
        resid = coef.gram_residual(kmax, L)
        k = np.arange(1, kmax + 1, dtype=float)[:, None]
        j = np.arange(1, kmax + 1, dtype=float)[None, :]
        next_order = 2.0 * k * j / L**2
        assert float((resid / next_order).max()) <= 10.0

    def test_residual_matrix_against_gram_and_table(self):
        kmax, L = 3, 200
        gram, d = coef.gram_matrix(kmax, L), coef.build_table(kmax).d
        np.testing.assert_array_equal(coef.gram_residual(kmax, L, tail_correct=False),
                                      np.abs(gram - d))
        assert coef.verify_gram_identity(kmax, L) == coef.gram_residual(kmax, L).max()
        # the tail correction shrinks every entry of the residual
        assert np.all(coef.gram_residual(kmax, L) < np.abs(gram - d))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            coef.verify_gram_identity(1, 100)
        with pytest.raises(ValueError):
            coef.verify_gram_identity(8, 8)
