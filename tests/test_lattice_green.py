"""Green function and bubble diagram checks.

Independent oracles used here:
  * the continuous-time heat-kernel representation
    C(x) = int_0^inf e^{-m2 t} e^{-2dt} prod_j I_{x_j}(2t) dt,
    written directly against scipy.special (one-dimensional, no Brillouin
    quadrature involved);
  * a discrete-time return-probability series summed by dynamic programming
    with a fitted 1/n^2 + 1/n^3 tail;
  * grid refinement (half vs full resolution must agree to 4 significant
    digits).
"""

import itertools

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ive, polygamma

from wsaw4.lattice_green import (
    LatticeSpec,
    _orbit_table,
    _window_green_raw,
    bubble_diagram,
    bubble_diagram_with_error,
    constant_a,
    graded_bz_sum,
    green_function,
    green_function_with_error,
    symbol,
    torus_green_table,
)

# frozen before the build from the heat-kernel oracle below at tolerance 1e-12
C00_D4_ORACLE = 0.154933390231052
# frozen d=5 massless bubble (Schwinger route, abs error 2e-10)
B0_D5 = 0.15479531523058815


def bessel_green_oracle(d, m2, x=None):
    """Heat-kernel route: 1-dim quadrature, independent of the BZ grid.

    e^{-2dt} prod_j I_{x_j}(2t) factorizes as prod_j [e^{-2t} I_{x_j}(2t)],
    each factor the scaled Bessel function ive.
    """
    x = np.zeros(d, dtype=int) if x is None else np.asarray(x, dtype=int)

    def kernel(t):
        val = np.exp(-m2 * t)
        for xi in x:
            val = val * ive(abs(int(xi)), 2.0 * t)
        return val

    v1, _ = integrate.quad(kernel, 0.0, 1.0, limit=200)
    v2, _ = integrate.quad(lambda u: np.exp(u) * kernel(np.exp(u)), 0.0, 14.0,
                           limit=400)
    return v1 + v2


def full_grid_graded_sum(d, f, n, levels):
    """Reference: the graded midpoint rule over every point of each level.

    Level l sums f over the shell of the n^d midpoint grid of
    [-pi/2^l, pi/2^l]^d outside the concentric half-box; the last level
    adds its half-box too.
    """
    total = 0.0
    for level in range(levels):
        a = np.pi / 2.0**level
        w = 2.0 * a / n
        centers = -a + (np.arange(n) + 0.5) * w
        ks = [m.ravel() for m in np.meshgrid(*([centers] * d), indexing="ij")]
        inner = np.all([np.abs(k) < 0.5 * a for k in ks], axis=0)
        vals = f(ks)
        total += vals[~inner].sum() * (w / (2.0 * np.pi)) ** d
        if level == levels - 1:
            total += vals[inner].sum() * (w / (2.0 * np.pi)) ** d
    return total


class TestOrbitQuadrature:
    @pytest.mark.parametrize("d", [1, 3, 4, 5])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_multiplicities_count_the_grid(self, d, n):
        half, mult, inner = _orbit_table(d, n)
        assert half.shape == (d, mult.size)
        assert np.all(np.diff(half, axis=0) >= 0)  # i_1 <= ... <= i_d
        assert mult.sum() == n**d
        assert mult[inner].sum() == (n // 2) ** d

    @pytest.mark.parametrize("n", [8, 16])
    def test_symbol_integrand_matches_full_grid(self, n):
        def f(ks):
            return 1.0 / (symbol(ks) + 0.3) + np.cos(symbol(ks))

        ref = full_grid_graded_sum(4, f, n, 3)
        val, _ = graded_bz_sum(4, f, n=n, max_levels=3, rtol=0.0)
        assert abs(val - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("x", [(1, 0, 0, 0), (2, 1, 0, 0), (-1, 3, 0, 2)])
    def test_green_integrand_matches_full_grid(self, n, x):
        m2 = 0.2

        def f(ks):
            prod = 1.0
            for xi, k in zip(x, ks):
                prod = prod * np.cos(xi * k)
            return prod / (symbol(ks) + m2)

        ref = full_grid_graded_sum(4, f, n, 3)
        val = _window_green_raw(4, m2, x, n, 3)
        assert abs(val - ref) <= 1e-13 * abs(ref)


class TestGreenWindow:
    def test_mass_dominated_limit(self, spec4):
        v = green_function(spec4, 1e6)
        assert abs(1e6 * v - 1.0) < 1e-3

    def test_mass_limit_rate(self, spec4):
        # |m2 C(0) - 1| <= c/m2 with c ~ 2d, checked on a grid of masses
        for m2 in (4.0, 16.0, 64.0, 256.0):
            v = green_function(spec4, m2)
            assert abs(m2 * v - 1.0) <= 9.0 / m2

    def test_massless_value_grid_refinement(self, spec4):
        coarse = green_function(spec4, 0.0, grid=16)
        fine = green_function(spec4, 0.0, grid=32)
        # 4 significant digits between successive resolutions
        assert abs(coarse - fine) < 1e-4 * abs(fine)
        assert abs(fine - C00_D4_ORACLE) < 1e-4 * C00_D4_ORACLE

    def test_massless_value_vs_bessel_oracle(self, spec4):
        oracle = bessel_green_oracle(4, 0.0)
        val, err = green_function_with_error(spec4, 0.0)
        assert abs(val - oracle) < max(5 * err, 1e-6)

    def test_offsite_value_vs_bessel_oracle(self, spec4):
        oracle = bessel_green_oracle(4, 0.5, [1, 0, 0, 0])
        val = green_function(spec4, 0.5, [1, 0, 0, 0])
        assert abs(val - oracle) < 1e-6

    def test_reflection_symmetry_exact(self, spec4):
        a = green_function(spec4, 0.7, [2, 1, 0, 0])
        b = green_function(spec4, 0.7, [-2, -1, 0, 0])
        assert a == b

    def test_signed_permutation_symmetry(self, spec4):
        x = (1, 2, 0, 0)
        base = green_function(spec4, 0.9, x)
        for perm in itertools.islice(itertools.permutations(x), 5):
            for signs in ((1, 1, 1, 1), (-1, 1, -1, 1)):
                y = [s * c for s, c in zip(signs, perm)]
                assert green_function(spec4, 0.9, y) == base

    def test_wrong_length_displacement_rejected(self, spec4):
        with pytest.raises(ValueError, match="coordinates"):
            green_function(spec4, 0.5, [0, 0, 0, 0, 3])
        with pytest.raises(ValueError, match="coordinates"):
            green_function(spec4, 0.5, [1, 0, 0])

    def test_richardson_grid_multiple_of_8(self, spec4):
        # at grid 4 the half-resolution pass would equal the full one and
        # report a zero error; grid 12 has no valid half-resolution grid
        for grid in (4, 12):
            with pytest.raises(ValueError, match="grid"):
                green_function_with_error(spec4, 0.5, grid=grid)
        val, err = green_function_with_error(spec4, 0.5, grid=16)
        ref = green_function(spec4, 0.5, grid=32)
        assert 0.0 < abs(val - ref) < 5.0 * err

    def test_monotone_in_mass(self, spec4):
        vals = [green_function(spec4, m2) for m2 in (0.0, 0.1, 1.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_massless_rejected_low_dim(self):
        with pytest.raises(ValueError):
            green_function(LatticeSpec.window(2), 0.0)


class TestGreenTorusAndGraph:
    def test_torus_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            green_function(LatticeSpec.torus(2, 8), 0.0)

    def test_torus_wrong_length_displacement_rejected(self):
        spec = LatticeSpec.torus(2, 6)
        with pytest.raises(ValueError, match="coordinates"):
            green_function(spec, 0.3, [1, 2, 3])
        with pytest.raises(ValueError, match="coordinates"):
            green_function(spec, 0.3, [1])

    def test_torus_parseval_identity(self):
        spec = LatticeSpec.torus(2, 6)
        m2 = 0.3
        table = torus_green_table(spec, m2)
        lhs = sum(v * v for v in table.value_at.values())
        modes = 2.0 * np.pi * np.arange(6) / 6
        mesh = np.meshgrid(modes, modes, indexing="ij")
        rhs = np.sum((symbol(mesh) + m2) ** -2.0) / 6**2
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_torus_matches_graph_laplacian(self):
        # a 1d torus of period 5 is the 5-cycle graph
        spec_t = LatticeSpec.torus(1, 5)
        lap = np.zeros((5, 5))
        for x in range(5):
            for s in (1, -1):
                lap[x, x] += 1.0
                lap[x, (x + s) % 5] -= 1.0
        spec_g = LatticeSpec.graph(lap)
        for x in range(5):
            vt = green_function(spec_t, 0.4, [x])
            vg = green_function(spec_g, 0.4, (0, x))
            assert vt == pytest.approx(vg, rel=1e-12)

    PATH3 = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])

    def test_graph_vertex_forms(self):
        spec = LatticeSpec.graph(self.PATH3)
        v02 = green_function(spec, 0.5, (0, 2))
        assert green_function(spec, 0.5, 2) == v02
        assert green_function(spec, 0.5, [2]) == v02
        assert green_function(spec, 0.5, np.array([0, 2])) == v02

    @pytest.mark.parametrize("x, match", [
        ((0, -1), "not in 0..2"),         # not an index from the end
        ((0, 1.7), "not in 0..2"),        # not truncated to (0, 1)
        ((0, 3), "not in 0..2"),          # ValueError, not IndexError
        ((0, 1, 2), "vertex or a pair"),  # the third entry is not dropped
    ])
    def test_graph_bad_vertex_rejected(self, x, match):
        with pytest.raises(ValueError, match=match):
            green_function(LatticeSpec.graph(self.PATH3), 0.5, x)

    def test_graph_zero_mode_rejected(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(ValueError):
            green_function(LatticeSpec.graph(lap), 0.0)

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec.graph(np.array([[1.0, 0.5], [-0.5, 1.0]]))
        with pytest.raises(ValueError):
            LatticeSpec.graph(np.array([[1.0, -0.5], [-0.5, 1.0]]))


class TestBubble:
    def test_mass_dominated(self):
        v = bubble_diagram(4, 1e6)
        assert abs(v * 1e6**2 / 8.0 - 1.0) < 1e-3

    def test_routes_agree(self):
        for m2 in (1.0, 1e-2):
            v1, e1 = bubble_diagram_with_error(4, m2)
            v2, e2 = bubble_diagram_with_error(4, m2, method="grid")
            assert abs(v1 - v2) < 5 * (e1 + e2) + 1e-8

    def test_d5_massless_finite_and_stable(self):
        v, err = bubble_diagram_with_error(5, 0.0)
        assert abs(v - B0_D5) < 1e-9
        vg, eg = bubble_diagram_with_error(5, 0.0, method="grid", grid=16)
        assert abs(vg - v) < 1e-4 * v  # stable to ~4 digits under refinement

    def test_log_offset_constant_at_tiny_masses(self):
        # Bsf - log(1/m2)/(2 pi^2) tends to a lattice constant; below
        # m2 ~ 1e-158 the Schwinger tail runs where P_t underflows float64
        def offset(m2):
            return bubble_diagram(4, m2) + np.log(m2) / (2.0 * np.pi**2)

        c = offset(1e-12)
        for m2 in (1e-20, 1e-100, 1e-158, 1e-162, 1e-198, 1e-250, 1e-300,
                   1e-307):
            assert abs(offset(m2) - c) < 1e-9

    def test_richardson_grid_multiple_of_8(self):
        for grid in (4, 12):
            with pytest.raises(ValueError, match="grid"):
                bubble_diagram_with_error(4, 0.5, method="grid", grid=grid)
        val, err = bubble_diagram_with_error(4, 0.5, method="grid", grid=16)
        ref = bubble_diagram(4, 0.5)
        assert err > 0.0 and abs(val - ref) < 5.0 * err

    def test_divergent_rejected(self):
        with pytest.raises(ValueError):
            bubble_diagram(4, 0.0)


class TestConstantA:
    def test_definition(self, spec4):
        assert constant_a() == 2.0 * green_function(spec4, 0.0)

    def test_positive(self):
        assert constant_a() > 0

    def test_vs_discrete_time_series_oracle(self):
        # C_0(0) = (2d)^{-1} sum_n p_n(0,0): dynamic programming up to 20
        # steps plus a local-CLT 1/n^2 + 1/n^3 tail fit
        d, nsteps = 4, 20
        R = nsteps
        p = np.zeros((2 * R + 1,) * d)
        p[(R,) * d] = 1.0
        rets = [1.0]
        for _ in range(nsteps):
            q = np.zeros_like(p)
            for ax in range(d):
                q += np.roll(p, 1, axis=ax) + np.roll(p, -1, axis=ax)
            p = q / (2 * d)
            rets.append(p[(R,) * d])
        rets = np.array(rets)
        ns = np.arange(14, nsteps + 1, 2, dtype=float)
        A = np.vstack([ns**-2.0, ns**-3.0]).T
        (a, b), *_ = np.linalg.lstsq(A, rets[14::2], rcond=None)
        mstart = nsteps // 2 + 1
        tail = a / 4 * polygamma(1, mstart) + b / 16 * abs(polygamma(2, mstart))
        oracle = (rets.sum() + tail) / (2 * d)
        assert abs(constant_a() / 2.0 - oracle) < 5e-4 * oracle
