"""Headline predictions, parameter maps, and the ODE asymptotics lemma."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from wsaw4.lattice_green import constant_a
from wsaw4.rg_flow import GAMMA
from wsaw4.susceptibility import (
    BUBBLE_LOG_COEFF,
    amplitude,
    change_variables,
    invert_g,
    m2_of_eps,
    ode_asymptotics,
    predict_nu_c,
    predict_susceptibility,
)


class TestNuC:
    def test_zero_coupling(self):
        assert predict_nu_c(0.0, "leading") == 0.0
        assert predict_nu_c(0.0, "flow") == 0.0

    def test_leading_is_minus_a_g(self):
        g = 0.03
        assert predict_nu_c(g, "leading") == -constant_a() * g

    def test_bracket(self):
        # the exact critical value satisfies nu_c in [-a g, 0]; the
        # quadratic-truncation flow value lands O(g^2) below the lower
        # edge (its second-order coefficient is negative), so the bracket
        # carries the truncation allowance
        for g in (0.04, 0.02, 0.01):
            v = predict_nu_c(g, "flow")
            assert -constant_a() * g - 0.05 * g * g <= v <= 0.0
            assert -constant_a() * g <= predict_nu_c(g, "leading") <= 0.0

    def test_flow_minus_leading_is_second_order(self):
        # |flow - leading| <= c g^2 with a modest uniform c (the quadrature
        # floor of the coefficient tables dominates at the smallest g)
        for g in (0.04, 0.02, 0.01, 0.005):
            diff = abs(predict_nu_c(g, "flow")
                       - predict_nu_c(g, "leading"))
            assert diff <= 0.05 * g * g + 1e-6

    def test_range_guard(self):
        with pytest.raises(ValueError):
            predict_nu_c(0.5)


class TestSusceptibilityFormulas:
    def test_scaling_law_exact(self):
        g, eps = 0.03, 1e-5
        lhs = predict_susceptibility(g, eps / 10) / predict_susceptibility(g, eps)
        rhs = 10.0 * (math.log(10.0 / eps) / math.log(1.0 / eps)) ** 0.25
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_coupling_quarter_power(self):
        g, eps = 0.004, 1e-6
        ratio = predict_susceptibility(16 * g, eps) / predict_susceptibility(g, eps)
        assert ratio == pytest.approx(2.0, rel=1e-14)

    def test_regime_guard(self):
        with pytest.raises(ValueError):
            predict_susceptibility(0.02, 0.5)
        with pytest.raises(ValueError):
            m2_of_eps(0.02, 1.0)

    def test_m2_needs_positive_amplitude(self):
        # A_0 = 0: this divided by zero
        with pytest.raises(ValueError, match="g must be > 0"):
            m2_of_eps(0.0, 1e-6)
        assert predict_nu_c(0.0, "flow") == 0.0

    def test_pair_is_exact_inverse(self):
        g = 0.02
        for eps in (1e-8, 1e-6, 1e-4):
            chi = predict_susceptibility(g, eps)
            m2 = m2_of_eps(g, eps)
            assert m2 * chi == pytest.approx(1.0, rel=1e-14)

    def test_inverse_killing_rate_consistency(self):
        # 1/m2(eps) reproduces chi within 15% (exact at z0 = 0)
        g, eps = 0.02, 1e-6
        assert 1.0 / m2_of_eps(g, eps) == pytest.approx(
            predict_susceptibility(g, eps), rel=0.15)

    def test_monotonicity(self):
        g = 0.02
        eps = np.geomspace(1e-9, 1e-2, 15)
        chi = [predict_susceptibility(g, e) for e in eps]
        m2 = [m2_of_eps(g, e) for e in eps]
        assert all(a > b for a, b in zip(chi, chi[1:]))
        assert all(a < b for a, b in zip(m2, m2[1:]))

    def test_frozen_killing_rate_value(self):
        # frozen from this build; a 40-digit mpmath evaluation of the same
        # closed form agrees to every float64 digit
        assert m2_of_eps(0.02, 1e-4) == pytest.approx(0.0003217407103562742,
                                                      rel=1e-14)

    def test_amplitude_limits(self):
        gs = np.geomspace(1e-6, 0.05, 12)
        amps = np.array([amplitude(g) for g in gs])
        assert np.all(np.diff(amps) > 0) and amps[0] < 1e-1
        assert np.allclose(amps / (BUBBLE_LOG_COEFF * gs) ** 0.25, 1.0)

    def test_prediction_bundle(self):
        assert amplitude(0.02) > 0
        assert GAMMA == 0.25
        assert predict_susceptibility(0.02, 1e-6) * m2_of_eps(0.02, 1e-6) \
            == pytest.approx(1.0)
        nu_c = predict_nu_c(0.02, "flow")
        assert -constant_a() * 0.02 - 0.05 * 0.02**2 <= nu_c <= 0.0


class TestChangeVariables:
    def test_identity_at_zero(self):
        g, nu = change_variables(0.04, 0.03, 0.0, 0.0)
        assert g == 0.03 and nu == 0.04

    def test_hand_value(self):
        g, _ = change_variables(0.0, 0.02, -0.05, 0.0)
        assert g == pytest.approx(0.02 / 0.9025, rel=1e-14)

    @given(st.floats(1e-4, 0.08), st.floats(-0.2, 0.2), st.floats(0.0, 0.1),
           st.floats(-0.05, 0.05))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, g0, z0, m2, nu0):
        g, nu = change_variables(m2, g0, z0, nu0)
        recovered = invert_g(m2, g, lambda m, u: z0)
        assert abs(recovered - g0) < 1e-11
        # the defining relations g0 = g (1+z0)^2, nu0 = (1+z0) nu - m2
        assert abs(g0 - g * (1.0 + z0) ** 2) < 1e-12
        assert abs(nu0 - ((1.0 + z0) * nu - m2)) < 1e-12

    def test_image_guard(self):
        with pytest.raises(ValueError):
            invert_g(0.0, 0.9, lambda m, u: 0.0)

    def test_nonfinite_g_rejected(self):
        # a NaN g failed every bisection comparison and returned 4.5e-13
        for g in (math.nan, math.inf):
            with pytest.raises(ValueError, match="g must be >= 0 and finite"):
                invert_g(0.0, g, lambda m, u: 0.0)


class TestOdeLemma:
    def test_gamma_zero_exact(self):
        rows = ode_asymptotics(0.0, 1e-8)
        for t, u, asym, ratio, resid in rows:
            assert u == pytest.approx(t, rel=1e-13)
            assert ratio == pytest.approx(1.0, rel=1e-13)

    def test_quarter_power_ratio(self):
        rows = ode_asymptotics(0.25, 1e-8)
        ratios = [r[3] for r in rows]  # increasing t along the table
        assert abs(ratios[0] - 1.0) < 0.2
        # monotone approach: smaller t sits closer to 1
        gaps = [abs(r - 1.0) for r in ratios]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))
        # explicitly: closer at 1e-8 than at 1e-4
        r8 = ode_asymptotics(0.25, 1e-8, points=2)[0][3]
        r4 = ode_asymptotics(0.25, 1e-4, points=2)[0][3]
        assert abs(r8 - 1.0) < abs(r4 - 1.0)

    def test_implicit_relation_residual(self):
        rows = ode_asymptotics(0.25, 1e-8)
        for t, _, _, _, resid in rows:
            assert resid < 1e-10 * t

    def test_root_vs_mpmath_down_to_tiny_t(self):
        # Gamma(1 + gamma, -log u) = t re-evaluated by 30-digit mpmath; the
        # bisection runs in x = -log u, so t near 1e-300 stays in range
        with mp.workdps(30):
            for t, u, _, _, resid in ode_asymptotics(0.25, 1e-300, points=4):
                lhs = mp.gammainc(mpf(1.25), -mp.log(mpf(u)))
                assert abs(lhs / mpf(t) - 1) < 1e-13
                assert resid < 1e-10 * t

    def test_solution_satisfies_ode(self):
        # finite-difference check of u' = (-log u)^{-gamma}
        rows = ode_asymptotics(0.25, 1e-6, points=25)
        ts = np.array([r[0] for r in rows])
        us = np.array([r[1] for r in rows])
        mid_u = 0.5 * (us[1:] + us[:-1])
        du = np.diff(us) / np.diff(ts)
        rhs = (-np.log(mid_u)) ** -0.25
        assert np.max(np.abs(du / rhs - 1.0)) < 0.02

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            ode_asymptotics(1.0, 1e-8)
        with pytest.raises(ValueError):
            ode_asymptotics(0.25, 0.5)

    @pytest.mark.parametrize("points", [0, -3])
    def test_no_points_rejected(self, points):
        # an empty table left the CLI's summary to fail on rows[0]
        with pytest.raises(ValueError, match="points"):
            ode_asymptotics(0.25, 1e-8, points=points)
