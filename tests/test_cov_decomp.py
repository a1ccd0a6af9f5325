"""Scale decomposition and coefficient-sequence checks.

Oracles: the bubble diagram through the one-dimensional Schwinger route
(for the beta-sum identity), an independent single-multiplier quadrature
(for slice diagonals), and the closed-form limit log L / pi^2 of beta_j.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsaw4.cov_decomp import (
    build_decomposition,
    coefficient_sequences,
    range_tail_fraction,
    scale_indices,
    slice_kernel_on_torus,
    smooth_step,
)
from wsaw4.lattice_green import (
    bubble_diagram_with_error,
    constant_a,
    graded_bz_sum,
    symbol,
)

LOG2_OVER_PI2 = np.log(2.0) / np.pi**2


class TestPartition:
    def test_smooth_step_range(self):
        r = np.linspace(-2, 3, 101)
        h = smooth_step(r)
        assert np.all(h[r <= 0] == 1.0)
        assert np.all(h[r >= 1] == 0.0)
        assert np.all(np.diff(h) <= 1e-12)

    @staticmethod
    def multiplier_total(dec, s):
        return sum(dec.multiplier(j, s) for j in range(1, dec.J + 2))

    def test_telescoping_at_sampled_modes(self, dec0_J48):
        rng = np.random.default_rng(1)
        k = rng.uniform(-np.pi, np.pi, size=(4, 4000))
        s = symbol(k)
        total = self.multiplier_total(dec0_J48, s)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_telescoping_deep_modes(self, dec0_J48):
        # modes down at the truncation scale, where cutoffs are partial
        for kmag in 2.0 ** -np.arange(1, 45, 3.0):
            s = symbol([np.array([kmag]), 0.0, 0.0, 0.0])
            total = self.multiplier_total(dec0_J48, s)
            assert abs(total - 1.0) < 1e-12

    def test_remainder_is_one_minus_f_J(self, dec0_J48):
        s = np.geomspace(1e-32, 16.0, 400)
        f_J = smooth_step(-np.log(s) / (2.0 * np.log(2.0)) - 47.0)
        assert np.array_equal(dec0_J48.multiplier(49, s), 1.0 - f_J)

    @pytest.mark.parametrize("j", [0, 50, -1, 2.5])
    def test_slice_index_range(self, dec0_J48, j):
        with pytest.raises(ValueError, match="not in 1..49"):
            dec0_J48.multiplier(j, 1.0)
        with pytest.raises(ValueError, match="not in 1..49"):
            slice_kernel_on_torus(dec0_J48, j, 4)

    def test_multiplier_shape_follows_s(self, dec0_J48):
        # a cutoff constant over every s is a float inside; the multiplier
        # still has the shape of s, empty included
        for s in (np.array([]), 1.0, np.full((2, 3), 1e-30)):
            for j in (1, 30, 49):
                assert np.shape(dec0_J48.multiplier(j, s)) == np.shape(s)

    def test_multipliers_nonnegative(self, dec0_J48):
        s = np.geomspace(1e-25, 16.0, 400)
        for j in range(1, dec0_J48.J + 2):
            u = dec0_J48.multiplier(j, s)
            assert np.all(u >= 0.0) and np.all(u <= 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_decomposition(4, L=1, m2=0.1, J=4)
        for m2 in (np.nan, np.inf):
            with pytest.raises(ValueError, match="m2"):
                build_decomposition(4, L=2, m2=m2, J=4)

    @pytest.mark.parametrize("L,J,named", [
        (2, 8.0, "J must be an integer"), (2, True, "J must be an integer"),
        (2.2, 4, "L must be an integer"), (2.0, 4, "L must be an integer"),
        (True, 4, "L must be an integer"), (2, 0, "J must be an integer >= 1"),
    ], ids=["float-J", "bool-J", "fractional-L", "float-L", "bool-L", "J-0"])
    def test_scale_base_and_depth_must_be_integers(self, L, J, named):
        # J = 8.0 ended in a bare TypeError and J = True ran as 1; L = 2.2
        # built a decomposition whose torus kernels had period 4 L = 8.8
        with pytest.raises(ValueError, match=named):
            build_decomposition(4, L=L, m2=0.1, J=J)

    def test_numpy_integer_scale_base_and_depth_accepted(self):
        a = build_decomposition(4, L=np.int64(2), m2=0.1, J=np.int32(4))
        b = build_decomposition(4, L=2, m2=0.1, J=4)
        assert np.array_equal(a.w2_partial, b.w2_partial)
        assert np.array_equal(a.diagonals, b.diagonals, equal_nan=True)


class TestBetaSequence:
    def test_positive_on_active_scales(self, dec0_J48, decomp_at):
        beta0 = coefficient_sequences(dec0_J48).beta
        assert np.all(beta0 > 0)  # massless: every scale is active
        beta_m = coefficient_sequences(decomp_at(1e-3, J=24)).beta
        assert np.all(beta_m >= 0)
        assert np.all(beta_m[:5] > 0)

    def test_partial_sums_exact(self, decomp_at):
        dec = decomp_at(1e-3, J=24)
        beta = coefficient_sequences(dec).beta
        for k in (1, 7, 13, 24):
            lhs = beta[:k].sum()
            rhs = 8.0 * (dec.w2_partial[k] - dec.w2_partial[0])
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_sum_matches_bubble(self, decomp_at):
        dec = decomp_at(1e-3, J=24)
        total = coefficient_sequences(dec).beta.sum()
        bub = bubble_diagram_with_error(4, 1e-3)[0]
        assert abs(total - bub) / bub < 0.01

    def test_limit_log2_over_pi2(self, dec0_J48):
        beta = coefficient_sequences(dec0_J48).beta
        assert abs(beta[12] - LOG2_OVER_PI2) / LOG2_OVER_PI2 < 0.05

    def test_rapid_decay_beyond_mass_scale(self):
        dec = build_decomposition(4, L=2, m2=0.04, J=12)
        beta = coefficient_sequences(dec).beta
        idx = scale_indices(0.04, 2, 2.0, beta)
        j = int(idx.j_m) + 4
        assert beta[j] <= 2.0**-4 * beta.max()

    def test_monotone_tail_envelope(self, decomp_at):
        dec = decomp_at(1e-2, J=16)
        beta = coefficient_sequences(dec).beta
        jm = int(scale_indices(1e-2, 2, 2.0, beta).j_m)
        for j in range(jm + 2, len(beta)):
            assert beta[j] <= 2.0 ** -(j - jm - 1) * beta.max()

    def test_nearby_mass_regression(self, decomp_at):
        # decompositions at nearby masses give close beta sequences
        b1 = coefficient_sequences(decomp_at(1e-3, J=24)).beta
        b2 = coefficient_sequences(decomp_at(2e-3, J=24)).beta
        assert np.abs(b1 - b2).sum() < 0.2


class TestDiagonalsAndEta:
    def test_diagonal_scaling_estimate(self, dec0_J48):
        # C_{j;0,0} <= c L^{-2(j-1)} with a stable fitted c
        diag = dec0_J48.diagonals[1:]
        js = np.arange(1, len(diag) + 1)
        ratios = diag * 4.0 ** (js - 1)
        c_a = ratios[2:10].max()
        c_b = ratios[5:13].max()
        assert abs(c_a - c_b) < 0.05 * c_a
        assert np.all(ratios[2:] <= 1.05 * c_a)

    def test_mass_suppression_beyond_mass_scale(self):
        dec = build_decomposition(4, L=2, m2=0.01, J=10)
        diag = dec.diagonals[1:]
        jm = 4  # smallest j with 4^j * 0.01 >= 1
        c = (diag[:jm] * 4.0 ** np.arange(1, jm + 1)).max()
        for j in range(jm + 1, 7):
            bound = c * 4.0**-j * (1.0 + 0.01 * 4.0 ** (j - 1)) ** -2
            assert diag[j - 1] <= bound

    def test_eta_nonnegative(self, dec0_J48):
        assert np.all(coefficient_sequences(dec0_J48).eta >= 0.0)

    def test_eta_sum_reproduces_constant_a(self, dec0_J48):
        eta = coefficient_sequences(dec0_J48).eta
        ls = np.arange(len(eta), dtype=float)
        total = (4.0 ** -(ls + 1.0) * eta).sum()
        assert abs(total - constant_a()) / constant_a() < 0.01

    def test_eta3_vs_direct_multiplier_quadrature(self, dec0_J48):
        # recompute C_{4;0,0} by direct quadrature of the single multiplier
        def reducer(ks, mult, inner):
            s = symbol(ks)
            vals = dec0_J48.multiplier(4, s) / s
            return vals[~inner] @ mult[~inner], vals[inner] @ mult[inner]

        val = graded_bz_sum(4, reducer, n=32, rtol=1e-13,
                            min_halfwidth=0.25 * 2.0**-12)
        eta3 = coefficient_sequences(dec0_J48).eta[3]
        assert abs(eta3 - 2.0 * 4.0**4 * float(val)) < 1e-8


class TestKernelsAndTails:
    def test_tail_fractions_measured_and_reported(self):
        dec = build_decomposition(4, L=2, m2=0.0, J=4)
        # smooth-partition kernels genuinely spread beyond L^j/2: the
        # measured mass fraction is O(1) and must be reported, not hidden
        tails = [range_tail_fraction(dec, j) for j in range(1, dec.J + 1)]
        for tf in tails:
            assert 0.0 <= tf < 1.0
        # regression band for the asymptotic slices
        assert tails[2] == pytest.approx(0.987, abs=0.02)

    def test_tail_fraction_shrinks_with_wider_range(self):
        dec = build_decomposition(4, L=2, m2=0.0, J=4)
        inside_half = 1.0 - range_tail_fraction(dec, 3)
        # measuring against twice the nominal range captures much more mass
        k = np.abs(slice_kernel_on_torus(dec, 3, 32))
        coords = np.arange(32)
        dist = np.minimum(coords, 32 - coords)
        mesh = np.meshgrid(*([dist] * 4), indexing="ij")
        r2 = sum(m.astype(float) ** 2 for m in mesh)
        inside_double = k[r2 < (2 * 4.0) ** 2].sum() / k.sum()
        assert inside_double > 10 * inside_half


class TestScaleIndices:
    def test_mass_scale_examples(self):
        beta = np.ones(8)
        assert scale_indices(1.0, 2, 2.0, beta).j_m == 0
        assert scale_indices(0.2, 2, 2.0, beta).j_m == 2

    def test_mass_scale_infinite_at_zero_mass(self):
        idx = scale_indices(0.0, 2, 2.0, np.ones(4))
        assert np.isinf(idx.j_m)

    def test_chi_profile(self):
        beta = np.array([1.0, 1.0, 0.5, 0.25, 0.125, 0.0625])
        idx = scale_indices(0.5, 2, 2.0, beta)
        j = np.arange(len(beta), dtype=float)
        assert np.allclose(idx.chi, 2.0 ** -np.maximum(j - idx.j_Omega, 0))
        assert np.all(np.abs(beta) <= beta.max()
                      * 2.0 ** -(j - idx.j_Omega) + 1e-12)

    @given(st.integers(0, 6), st.floats(1.5, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_j_omega_is_minimal(self, shift, omega):
        beta = np.concatenate([np.ones(shift + 1), 2.0 ** -np.arange(1, 9)])
        idx = scale_indices(0.1, 2, omega, beta)
        j = np.arange(len(beta), dtype=float)
        bmax = beta.max()
        # feasibility at j_Omega
        assert np.all(np.abs(beta) <= bmax * omega ** -(j - idx.j_Omega) + 1e-9)
        if idx.j_Omega > 0:  # minimality: one smaller fails
            assert np.any(np.abs(beta) > bmax
                          * omega ** -(j - (idx.j_Omega - 1)) + 1e-12)

    def test_mass_and_omega_scales_equivalent(self, decomp_at):
        # measured sweep: gaps (2, 4, 3, 3); the compactly supported
        # partition makes beta vanish above the mass scale, pushing
        # j_Omega below j_m by up to 4 at Omega = 2
        worst = 0
        for m2 in (1e-1, 1e-2, 1e-3, 1e-4):
            beta = coefficient_sequences(decomp_at(m2, J=24)).beta
            idx = scale_indices(m2, 2, 2.0, beta)
            worst = max(worst, abs(idx.j_m - idx.j_Omega))
        assert worst <= 4


class TestCoefficientSequences:
    def test_defaults_zero_tables(self, coeffs0):
        assert np.all(coeffs0.theta == 0.0)
        assert np.all(coeffs0.xi == 0.0)
        assert np.all(coeffs0.pi == 0.0)

    def test_zero_tables_not_shared(self, coeffs0):
        # three arrays: writing one table must not write the others
        assert not np.shares_memory(coeffs0.theta, coeffs0.xi)
        assert not np.shares_memory(coeffs0.theta, coeffs0.pi)
        assert not np.shares_memory(coeffs0.xi, coeffs0.pi)
