"""Quadratic flow, boundary-value problem, and derivative-track checks.

Oracles: a 50-digit mpmath re-run of the recursions on the same coefficient
tables (frozen where the tables are synthetic and exact), the bubble
diagram through the independent Schwinger route, and closed-form limits for
degenerate coefficient tables.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from mpmath import mp, mpf

from wsaw4.cov_decomp import (
    CoefficientSequences,
    build_decomposition,
    coefficient_sequences,
    scale_indices,
)
from wsaw4.lattice_green import bubble_diagram_with_error, constant_a
from wsaw4.rg_flow import (
    GAMMA,
    g_infinity,
    g_tilde_sequence,
    iterate_g,
    nu_prime_limit,
    solve_boundary_value,
    step_forward,
)

# frozen from a 60-digit mpmath iteration of g <- g - g^2 from g = 0.1
G90_BETA_ONE = 0.009768020320518691485188908


def synthetic_coeffs(n, *, L=2, m2=0.1, beta=0.0, theta=0.0, eta=0.0,
                     xi=0.0, pi=0.0):
    ones = np.ones(n)
    return CoefficientSequences(
        L=L, m2=m2, beta=beta * ones, eta=eta * ones, theta=theta * ones,
        xi=xi * ones, pi=pi * ones)


class TestStepForward:
    def test_zero_coefficients_fixed_point(self):
        co = synthetic_coeffs(4)
        g, z, mu = step_forward(co, 0, 0.07, 0.01, 0.3)
        assert (g, z) == (0.07, 0.01)
        assert mu == 4.0 * 0.3  # L^2 mu

    def test_scale_beyond_table(self):
        co = synthetic_coeffs(2)
        with pytest.raises(IndexError, match="scale 2 outside"):
            step_forward(co, 2, 0.05, 0.0, 0.0)

    @pytest.mark.parametrize("j", [-1, [0, -2]], ids=["scalar", "array"])
    def test_negative_scale_rejected(self, j):
        # a negative index used to wrap to the end of the table
        co = synthetic_coeffs(4, beta=1.0)
        with pytest.raises(IndexError, match=f"scale {np.min(j)} outside"):
            step_forward(co, j, 0.05, 0.0, 0.0)

    def test_arrays_step_entry_by_entry(self, coeffs_at):
        co = coeffs_at(1e-3, J=48)
        traj = solve_boundary_value(0.05, co)
        j = np.array([0, 7, 47, 3])
        g, z, mu = step_forward(co, j, traj.g[j], traj.z[j], traj.mu[j])
        for i, ji in enumerate(j):
            one = step_forward(co, int(ji), float(traj.g[ji]),
                               float(traj.z[ji]), float(traj.mu[ji]))
            assert (g[i], z[i], mu[i]) == one

    @pytest.mark.parametrize("m2,L,J,g0,residual", [
        (1e-3, 2, 48, 0.05, 1.5178830414797062e-18),
        (0.0, 2, 48, 0.02, 9.75781955236954e-19),
        (1e-2, 3, 20, 0.1, 8.239936510889834e-18),
    ])
    def test_step_residual_frozen(self, m2, L, J, g0, residual):
        # the values of the one-scale loop, bit for bit
        dec = build_decomposition(4, L=L, m2=m2, J=J)
        traj = solve_boundary_value(g0, coefficient_sequences(dec))
        assert traj.step_residual() == residual

    def test_iteration_vs_arbitrary_precision_oracle(self):
        g = iterate_g(0.1, np.ones(90))
        assert abs(g[90] - G90_BETA_ONE) < 5e-18

    def test_monotone_decrease(self, coeffs0):
        g = iterate_g(0.05, coeffs0.beta[:40])
        assert np.all(np.diff(g) < 0)
        assert np.all(g > 0)

    def test_global_flow_envelope(self):
        # g_j (1 + g0 j)/g0 stays in a fixed bracket out to scale 200;
        # measured sweep range is [1.0, 6.42] (the ratio drifts toward
        # 1/beta_limit = pi^2/log 2 ~ 14.3 only at far larger j)
        dec = build_decomposition(4, L=2, m2=0.0, J=200)
        co = coefficient_sequences(dec)
        g0 = 0.05
        g = iterate_g(g0, co.beta)
        j = np.arange(201, dtype=float)
        ratio = g * (1.0 + g0 * j) / g0
        assert ratio.min() > 0.2 and ratio.max() < 8.0


class TestBoundaryValue:
    def test_homogeneous_problem_is_zero(self):
        co = synthetic_coeffs(12, beta=0.5)
        traj = solve_boundary_value(0.05, co)
        assert np.all(traj.z == 0.0)
        assert np.all(traj.mu == 0.0)

    def test_boundary_residuals(self, coeffs_at):
        traj = solve_boundary_value(0.05, coeffs_at(1e-3, J=48))
        assert abs(traj.z[-1]) < 1e-12
        assert abs(traj.mu[-1]) < 1e-12

    def test_truncation_stability(self, coeffs_at):
        # the truncation scale is the table's length: J = 24 against J = 48
        mu24 = solve_boundary_value(0.05, coeffs_at(1e-3, J=24)).mu[0]
        mu48 = solve_boundary_value(0.05, coeffs_at(1e-3, J=48)).mu[0]
        assert abs(mu24 - mu48) < 1e-10

    def test_replay_bit_exact(self, coeffs_at):
        co = coeffs_at(1e-3, J=48)
        traj = solve_boundary_value(0.05, co)
        again = solve_boundary_value(traj.g[0], traj.coeffs)
        assert np.array_equal(traj.g, again.g)
        assert np.array_equal(traj.z, again.z)
        assert np.array_equal(traj.mu, again.mu)

    def test_step_residual_at_roundoff(self, coeffs_at):
        traj = solve_boundary_value(0.05, coeffs_at(1e-3, J=48))
        assert traj.step_residual() < 1e-12

    def test_critical_data_leading_order(self, coeffs0):
        # mu0_c(g0)/g0 extrapolates linearly to -2 C_0(0)
        g0s = np.array([0.04, 0.02, 0.01, 0.005])
        ratios = np.array([solve_boundary_value(g0, coeffs0).mu[0] / g0
                           for g0 in g0s])
        A = np.vstack([np.ones_like(g0s), g0s]).T
        (intercept, _), *_ = np.linalg.lstsq(A, ratios, rcond=None)
        assert abs(intercept + constant_a()) < 0.03 * constant_a()

    def test_zero_coupling_gives_zero_trajectory(self, coeffs0):
        traj = solve_boundary_value(0.0, coeffs0)
        assert np.all(traj.g == 0.0) and np.all(traj.mu == 0.0)

    def test_contraction_guard(self):
        co = synthetic_coeffs(8, beta=1.0)
        with pytest.raises(ValueError):
            solve_boundary_value(5.0, co)

    def test_negative_coupling_rejected(self):
        # beta_1 g_1 = 2 * 0.819 >= 1 would make g_2 < 0; the old guard,
        # 1 - GAMMA beta g <= 0, needs beta g >= 4 and stays silent here
        co = replace(synthetic_coeffs(4), beta=np.array([0.1, 2.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="g0 too large.* at scale 1,"):
            solve_boundary_value(0.9, co)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # g overflows past the bad scale
            with pytest.raises(ValueError, match="at scale 0,"):
                solve_boundary_value(1e200, co)

    def test_largest_accepted_coupling_stays_positive(self):
        co = synthetic_coeffs(8, beta=1.0)
        traj = solve_boundary_value(np.nextafter(1.0, 0.0), co)
        assert np.all(traj.g > 0)

    @pytest.mark.parametrize("g0", [np.nan, np.inf, -0.01])
    def test_g0_must_be_finite_and_nonnegative(self, g0):
        with pytest.raises(ValueError, match="g0 must be >= 0 and finite"):
            solve_boundary_value(g0, synthetic_coeffs(4))

    def test_critical_trajectory_envelope_and_instability(self, coeffs_at):
        co = coeffs_at(1e-3, J=48)
        traj = solve_boundary_value(0.05, co)
        chi = scale_indices(co.m2, co.L, 2.0, co.beta).chi
        envelope = 10.0 * chi * traj.g[:-1]
        assert np.all(np.abs(traj.mu[:-1]) <= envelope)
        # perturbing mu_0 exposes the expanding direction
        for sign in (+1.0, -1.0):
            g, z, mu = 0.05, traj.z[0], traj.mu[0] + sign * 1e-3
            violated = False
            for j in range(30):
                g, z, mu = step_forward(co, j, g, z, mu)
                if abs(mu) > 10.0 * chi[j + 1] * traj.g[j + 1]:
                    violated = True
                    break
            assert violated


@pytest.mark.parametrize("flow", [
    solve_boundary_value, g_infinity,
    lambda g0, co: g_tilde_sequence(1e-3, g0, co),
], ids=["solve_boundary_value", "g_infinity", "g_tilde_sequence"])
@pytest.mark.parametrize("g0,named", [
    (np.nan, "g0 must be >= 0 and finite"),
    (np.inf, "g0 must be >= 0 and finite"),
    (-0.01, "g0 must be >= 0 and finite"),
    (50.0, "g0 too large.* at scale 0,"),
], ids=["nan", "inf", "negative", "too-large"])
def test_every_g_flow_checks_its_coupling(flow, g0, named):
    # g_infinity returned -3.8e27 at g0 = 50 and -0.01005 at g0 = -0.01 on
    # the (L=2, m2=1e-3, J=24) table, and NaN and inf "did not converge"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # g overflows past the bad scale
        with pytest.raises(ValueError, match=named):
            flow(g0, synthetic_coeffs(8, m2=0.0, beta=1.0))


@pytest.mark.parametrize("flow", [
    lambda co: iterate_g(0.05, co.beta),
    lambda co: solve_boundary_value(0.05, co).g,
    lambda co: g_tilde_sequence(1e-3, 0.05, co),
], ids=["iterate_g", "solve_boundary_value", "g_tilde_sequence"])
@pytest.mark.parametrize("n", [0, 1, 4])
def test_every_g_flow_runs_its_whole_table(flow, n):
    # the truncation scale is the table's length, decided once
    g = [0.05]
    for _ in range(n):
        g.append(g[-1] - 0.5 * g[-1] * g[-1])
    assert np.array_equal(flow(synthetic_coeffs(n, m2=0.0, beta=0.5)), g)


class TestGInfinity:
    def test_zero_beta(self):
        co = synthetic_coeffs(10)
        assert g_infinity(0.037, co) == 0.037

    def test_limit_law_finite_coupling_form(self, coeffs_at):
        # (1/g_inf - 1/g0) / Bsf -> 1 as the mass decreases: the
        # finite-coupling form of g_inf ~ 1/Bsf
        prev_gap = None
        for m2 in (1e-2, 1e-3, 1e-4):
            co = coeffs_at(m2, J=32)
            gi = g_infinity(0.05, co)
            bub, _ = bubble_diagram_with_error(4, m2)
            ratio = (1.0 / gi - 1.0 / 0.05) / bub
            assert 0.7 < ratio < 1.3
            gap = abs(ratio - 1.0)
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap

    def test_inverse_coupling_identity(self, coeffs_at):
        for m2 in (1e-2, 1e-3, 1e-4):
            co = coeffs_at(m2, J=32)
            gi = g_infinity(0.05, co)
            resid = abs(1.0 / gi - 1.0 / 0.05 - co.beta.sum())
            assert resid <= 5.0 * abs(np.log(gi))

    def test_nonconvergence_reported(self, coeffs0):
        # the massless beta sequence is not summable: the whole table runs out
        with pytest.raises(RuntimeError, match="within 48 scales"):
            g_infinity(0.05, coeffs0)


class TestDerivativeFlow:
    def test_pure_rescaling(self):
        # beta = 0: Pi_j = L^{2j} exactly, so the limit is 1
        co = synthetic_coeffs(16)
        traj = solve_boundary_value(0.03, co)
        assert np.array_equal(traj.Pi, 4.0 ** np.arange(17))
        assert nu_prime_limit(traj) == 1.0

    def test_product_form(self, coeffs_at):
        # prod(1 - gamma beta g) (g0/g_J)^gamma = 1 + O(g0)
        g0 = 0.05
        co = coeffs_at(1e-3, J=48)
        traj = solve_boundary_value(g0, co)
        prod = traj.Pi[48] * 4.0**-48.0
        check = prod * (g0 / traj.g[48]) ** GAMMA
        assert abs(check - 1.0) <= 5.0 * g0

    def test_frozen_regression_value(self, coeffs_at):
        # frozen from this build at (g0=0.05, m2=1e-3, L=2, J=48, grid=32);
        # a 50-digit mpmath re-run of the recursion on the same tables
        # agrees with the float64 path to every printed digit
        co = coeffs_at(1e-3, J=48)
        traj = solve_boundary_value(0.05, co)
        assert nu_prime_limit(traj) == pytest.approx(0.9933129644085481,
                                                     rel=1e-6)
        assert traj.mu[0] == pytest.approx(-0.015529685917702301, rel=1e-6)

    def test_mpmath_recursion_oracle(self, coeffs_at):
        # re-run the mu' recursion in 50-digit arithmetic on the same tables
        mp.dps = 50
        co = coeffs_at(1e-3, J=48)
        g, mup = mpf("0.05"), mpf(1)
        gam, L2 = mpf(1) / 4, mpf(4)
        for j in range(48):
            b = mpf(float(co.beta[j]))
            mup = L2 * mup * (1 - gam * b * g)
            g = g - b * g * g
        oracle = float(mup / L2**48)
        traj = solve_boundary_value(0.05, co)
        assert nu_prime_limit(traj) == pytest.approx(oracle, rel=1e-13)


class TestNuPrimeLaws:
    def test_finite_coupling_product_law(self, coeffs_at):
        # nu_prime_limit * (1 + g0 Bsf)^{1/4} = 1 + O(g0): the finite-
        # coupling version of the (g_inf Bsf)^{1/4} asymptote
        g0 = 0.02
        for m2 in (1e-3, 1e-4):
            co = coeffs_at(m2, J=32)
            traj = solve_boundary_value(g0, co)
            npl = nu_prime_limit(traj)
            bub, _ = bubble_diagram_with_error(4, m2)
            prod = npl * (1.0 + g0 * bub) ** GAMMA
            assert 0.8 < prod < 1.2
            assert abs(prod - 1.0) < 5.0 * g0

    def test_exponent_quarter_finite_coupling(self, coeffs_at):
        # slope of log nu_prime against log(1 + g0 Bsf) is -1/4
        g0 = 0.05
        xs, ys = [], []
        for m2 in (1e-1, 1e-2, 1e-3, 1e-4):
            co = coeffs_at(m2, J=32)
            traj = solve_boundary_value(g0, co)
            xs.append(np.log(1.0 + g0 * bubble_diagram_with_error(4, m2)[0]))
            ys.append(np.log(nu_prime_limit(traj)))
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope == pytest.approx(-GAMMA, abs=0.05)


class TestGTilde:
    def test_frozen_above_mass_scale(self, coeffs_at):
        gt = g_tilde_sequence(4.0, 0.05, coeffs_at(0.0, J=10))
        assert gt.shape == (11,)
        assert np.all(gt == 0.05)  # j_m = 0 freezes at g_0

    def test_monotone_nonincreasing(self, coeffs_at):
        gt = g_tilde_sequence(1e-3, 0.05, coeffs_at(0.0, J=40))
        assert gt.shape == (41,)
        assert np.all(np.diff(gt) <= 0)

    def test_close_to_massive_flow(self, coeffs_at):
        g_m = iterate_g(0.05, coeffs_at(1e-3, J=32).beta)
        gt = g_tilde_sequence(1e-3, 0.05, coeffs_at(0.0, J=32))
        cs = np.abs(gt - g_m) / g_m**2
        assert cs.max() < 2.0  # |g~ - g| <= c g^2 with modest c
