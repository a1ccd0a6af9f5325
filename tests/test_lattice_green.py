"""Green function and bubble diagram checks.

Independent oracles used here:
  * the continuous-time heat-kernel representation
    C(x) = int_0^inf e^{-m2 t} e^{-2dt} prod_j I_{x_j}(2t) dt,
    written directly against scipy.special (one-dimensional, no Brillouin
    quadrature involved);
  * a discrete-time return-probability series summed by dynamic programming
    with a fitted 1/n^2 + 1/n^3 tail;
  * grid refinement (half vs full resolution must agree to 4 significant
    digits);
  * mpmath's ``besseli`` for the heat kernel, and the closed-form d = 1
    bubble.
"""

import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from mpmath import besseli, exp, mp, mpf
from scipy import integrate
from scipy.special import ive, polygamma

from wsaw4 import lattice_green
from wsaw4.cov_decomp import build_decomposition
from wsaw4.lattice_green import (
    _T_SERIES,
    LatticeSpec,
    _orbit_table,
    _window_green_raw,
    bubble_diagram_with_error,
    constant_a,
    graded_bz_sum,
    green_function_with_error,
    heat_kernel_diagonal,
    symbol,
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

    def test_no_table_held_after_a_call(self, monkeypatch):
        refs = []

        def recording(d, n):
            table = _orbit_table(d, n)
            refs.extend(weakref.ref(a) for a in table)
            return table

        monkeypatch.setattr(lattice_green, "_orbit_table", recording)
        green_function_with_error(4, 0.5, grid=16)
        assert len(refs) == 6  # the fine and the coarse pass
        assert all(r() is None for r in refs)

    @pytest.mark.parametrize("n", [8, 16])
    def test_symbol_integrand_matches_full_grid(self, n):
        def f(ks):
            return 1.0 / (symbol(ks) + 0.3) + np.cos(symbol(ks))

        def reducer(ks, mult, inner):
            vals = f(ks)
            return vals[~inner] @ mult[~inner], vals[inner] @ mult[inner]

        ref = full_grid_graded_sum(4, f, n, 3)
        val = graded_bz_sum(4, reducer, n=n, min_halfwidth=np.pi / 2.0**3,
                            rtol=0.0)
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
    def test_mass_dominated_limit(self):
        v = green_function_with_error(4, 1e6)[0]
        assert abs(1e6 * v - 1.0) < 1e-3

    def test_mass_limit_rate(self):
        # |m2 C(0) - 1| <= c/m2 with c ~ 2d, checked on a grid of masses
        for m2 in (4.0, 16.0, 64.0, 256.0):
            v = green_function_with_error(4, m2)[0]
            assert abs(m2 * v - 1.0) <= 9.0 / m2

    def test_massless_value_grid_refinement(self):
        coarse = green_function_with_error(4, 0.0, grid=16)[0]
        fine = green_function_with_error(4, 0.0, grid=32)[0]
        # 4 significant digits between successive resolutions
        assert abs(coarse - fine) < 1e-4 * abs(fine)
        assert abs(fine - C00_D4_ORACLE) < 1e-4 * C00_D4_ORACLE

    def test_massless_value_vs_bessel_oracle(self):
        oracle = bessel_green_oracle(4, 0.0)
        val, err = green_function_with_error(4, 0.0)
        assert abs(val - oracle) < max(5 * err, 1e-6)

    def test_offsite_value_vs_bessel_oracle(self):
        oracle = bessel_green_oracle(4, 0.5, [1, 0, 0, 0])
        val = green_function_with_error(4, 0.5, [1, 0, 0, 0])[0]
        assert abs(val - oracle) < 1e-6

    def test_reflection_symmetry_exact(self):
        a = green_function_with_error(4, 0.7, [2, 1, 0, 0])[0]
        b = green_function_with_error(4, 0.7, [-2, -1, 0, 0])[0]
        assert a == b

    def test_signed_permutation_symmetry(self):
        x = (1, 2, 0, 0)
        base = green_function_with_error(4, 0.9, x)[0]
        for perm in itertools.islice(itertools.permutations(x), 5):
            for signs in ((1, 1, 1, 1), (-1, 1, -1, 1)):
                y = [s * c for s, c in zip(signs, perm)]
                assert green_function_with_error(4, 0.9, y)[0] == base

    def test_wrong_length_displacement_rejected(self):
        with pytest.raises(ValueError, match="coordinates"):
            green_function_with_error(4, 0.5, [0, 0, 0, 0, 3])
        with pytest.raises(ValueError, match="coordinates"):
            green_function_with_error(4, 0.5, [1, 0, 0])

    def test_richardson_grid_multiple_of_8(self):
        # at grid 4 the half-resolution pass would equal the full one and
        # report a zero error; grid 12 has no valid half-resolution grid
        for grid in (4, 12):
            with pytest.raises(ValueError, match="grid"):
                green_function_with_error(4, 0.5, grid=grid)
        val, err = green_function_with_error(4, 0.5, grid=16)
        ref = green_function_with_error(4, 0.5, grid=32)[0]
        assert 0.0 < abs(val - ref) < 5.0 * err

    def test_monotone_in_mass(self):
        vals = [green_function_with_error(4, m2)[0]
                for m2 in (0.0, 0.1, 1.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_massless_rejected_low_dim(self):
        with pytest.raises(ValueError):
            green_function_with_error(2, 0.0)

    @pytest.mark.parametrize("m2", [np.nan, np.inf])
    def test_nonfinite_mass_rejected(self, m2):
        with pytest.raises(ValueError, match="m2"):
            green_function_with_error(4, m2)

    def test_non_integral_displacement_rejected(self):
        # a non-integral or NaN coordinate names no lattice point;
        # integer-valued numpy ints and floats stay accepted
        with pytest.raises(ValueError, match="lattice point"):
            green_function_with_error(2, 0.5, (0.5, 0))
        with pytest.raises(ValueError, match="lattice point"):
            green_function_with_error(2, 0.5, (1, float("nan")))
        ref = green_function_with_error(2, 0.5, (1, 0))[0]
        assert green_function_with_error(2, 0.5, (1.0, 0.0))[0] == ref
        assert green_function_with_error(2, 0.5, np.array([1, 0]))[0] == ref

    def test_orbit_table_capped_before_any_work(self):
        # d = 8 at grid 64 needs 61.5M points a level: it ran out of memory
        # after 2 GB; the fine pass runs first, so no table is built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="d = 8 at grid 64"):
                green_function_with_error(8, 0.1, grid=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestGreenTorusAndGraph:
    # the sizes of LatticeSpec, the walk geometry
    @pytest.mark.parametrize("make,named", [
        (lambda: LatticeSpec.torus(1, 2.5), "period"),
        (lambda: LatticeSpec.torus(2, 2.5), "period"),
        (lambda: LatticeSpec.torus(2, True), "period"),
        (lambda: LatticeSpec.torus(2, np.float64(3.0)), "period"),
        (lambda: LatticeSpec.torus(2.0, 3), "d"),
        (lambda: LatticeSpec.window(2.5), "d"),
        (lambda: LatticeSpec.window(True), "d"),
    ], ids=["torus-1-2.5", "torus-2-2.5", "torus-bool", "torus-np-float",
            "torus-float-d", "window-2.5", "window-bool"])
    def test_sizes_must_be_integers(self, make, named):
        # a non-integral period gave C = 1.1097 in d = 1 and a beta entry
        # near 123 in d = 2, True ran as period 1, and window(2.5) raised a
        # TypeError deep inside
        with pytest.raises(ValueError, match=f"^{named} must be an integer"):
            make()

    def test_numpy_integer_sizes_accepted(self):
        assert LatticeSpec.torus(np.int64(2), np.int32(5)) == \
            LatticeSpec.torus(2, 5)
        assert LatticeSpec.window(np.int64(4)) == LatticeSpec.window(4)


class TestLatticeSpec:
    # Z^d is a window without a period and a torus with one
    def test_constructors_are_the_fields(self):
        assert LatticeSpec(4) == LatticeSpec.window(4)
        assert LatticeSpec(4, period=8) == LatticeSpec.torus(4, 8)

    def test_geometry_read_from_period(self):
        assert LatticeSpec(4).geometry == "window"
        assert LatticeSpec(4, period=8).geometry == "torus"
        with pytest.raises(AttributeError):
            LatticeSpec(4).geometry = "torus"

    @pytest.mark.parametrize("make", [
        lambda: LatticeSpec(4, period=0),
        lambda: LatticeSpec.torus(4, -2),
        lambda: LatticeSpec.torus(4, None),  # not the window LatticeSpec(4)
    ], ids=["zero", "negative", "none"])
    def test_bad_period_rejected(self, make):
        with pytest.raises(ValueError, match="period"):
            make()


DIMENSION_TAKERS = {
    "LatticeSpec": LatticeSpec,
    "green_function_with_error": lambda d: green_function_with_error(d, 0.5),
    "bubble_diagram_with_error":
        lambda d: bubble_diagram_with_error(d, 0.1),
    "heat_kernel_diagonal": lambda d: heat_kernel_diagonal(d, 1.0),
    "build_decomposition": lambda d: build_decomposition(d, 2, 0.5, 2),
}


class TestDimensionCheck:
    # bubble_diagram_with_error(4.0, 0.1) raised numpy's TypeError,
    # (True, 0.1) ran as d = 1 and heat_kernel_diagonal(2.5, 1.0) gave 0.0529
    @pytest.mark.parametrize("name", DIMENSION_TAKERS)
    @pytest.mark.parametrize("d, message", [
        (4.0, "d must be an integer"), (2.5, "d must be an integer"),
        (True, "d must be an integer"),
        (np.float64(4.0), "d must be an integer"),
        (0, "dimension must be >= 1"), (-1, "dimension must be >= 1"),
    ])
    def test_rejected(self, name, d, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            DIMENSION_TAKERS[name](d)

    @pytest.mark.parametrize("name", DIMENSION_TAKERS)
    def test_numpy_integer_accepted(self, name):
        got, want = (DIMENSION_TAKERS[name](d) for d in (np.int64(1), 1))
        if name == "build_decomposition":
            got, want = got.w2_partial, want.w2_partial
        np.testing.assert_array_equal(got, want)


class TestBubble:
    def test_mass_dominated(self):
        v = bubble_diagram_with_error(4, 1e6)[0]
        assert abs(v * 1e6**2 / 8.0 - 1.0) < 1e-3

    def test_d5_massless_finite_and_stable(self):
        v, err = bubble_diagram_with_error(5, 0.0)
        assert abs(v - B0_D5) < 1e-9

    # 25-digit oracles: mpmath.quad of 8 int_0^inf t e^{-m2 t} (e^{-2t}
    # I_0(2t))^4 dt at mp.dps = 25, with breakpoints at every decade of t
    @pytest.mark.parametrize("m2, exact", [
        (1e-2, 0.424443705793834628),
        (1e-6, 0.892007177076084559),
        (1e-12, 1.5919093313114857114),
    ])
    def test_high_precision_oracle(self, m2, exact):
        v, err = bubble_diagram_with_error(4, m2)
        assert abs(v - exact) <= 4e-15 * exact
        assert 0.0 < err and abs(v - exact) <= err

    def test_log_offset_constant_at_tiny_masses(self):
        # Bsf - log(1/m2)/(2 pi^2) tends to a lattice constant; below
        # m2 ~ 1e-158 the Schwinger tail runs where P_t underflows float64
        def offset(m2):
            bub, _ = bubble_diagram_with_error(4, m2)
            return bub + np.log(m2) / (2.0 * np.pi**2)

        c = offset(1e-12)
        for m2 in (1e-20, 1e-100, 1e-158, 1e-162, 1e-198, 1e-250, 1e-300,
                   1e-307):
            assert abs(offset(m2) - c) < 1e-9

    def test_d1_closed_form(self):
        # in d = 1, B = -dC(0)/dm2 with C(0) = (m2 (m2 + 4))^{-1/2}; the
        # integrand's mass t^{3/2} e^{-m2 t} sits past the series cut
        for m2 in (1e-4, 1e-20, 1e-40, 1e-120, 1e-200):
            m = mpf(m2)
            exact = 8 * (m + 2) / (m * (m + 4)) ** 1.5
            v, err = bubble_diagram_with_error(1, m2)
            assert abs(v - exact) <= err

    def test_divergent_rejected(self):
        with pytest.raises(ValueError):
            bubble_diagram_with_error(4, 0.0)

    @pytest.mark.parametrize("m2", [np.nan, np.inf])
    def test_nonfinite_mass_rejected(self, m2):
        # NaN fails every comparison, so an m2 < 0 check alone lets it through
        with pytest.raises(ValueError, match="m2"):
            bubble_diagram_with_error(4, m2)

    def test_overflow_rejected(self):
        # the d = 1 bubble grows like m2^{-3/2}: past float64 it is an error,
        # not an infinite value with a NaN error estimate
        with pytest.raises(ValueError, match="overflows"):
            bubble_diagram_with_error(1, 1e-300)

    @pytest.mark.parametrize("d", [0, -1])
    def test_dimension_below_one_rejected(self, d):
        # P_t^d is 1 at d = 0 and grows with t below, which gave a value
        with pytest.raises(ValueError, match="dimension"):
            bubble_diagram_with_error(d, 1.0)


class TestHeatKernel:
    def test_vs_mpmath_across_the_series_cut(self):
        # np.i0 below _T_SERIES, the Hankel series from there on
        c = _T_SERIES
        ts = [1e-3, 0.5, 4.0, 50.0, c * (1 - 1e-9), c, c * (1 + 1e-9),
              2.0 * c, 1e4, 1e7 - 1.0, 1e7, 1e7 + 1.0, 1e9]
        with mp.workdps(30):
            for t, got in zip(ts, heat_kernel_diagonal(1, ts)):
                ref = besseli(0, 2 * mpf(t)) * exp(-2 * mpf(t))
                assert abs(got / ref - 1) <= 2e-15

    def test_negative_time_rejected(self):
        # e^{-z} I_0(z) grows without bound for z < 0
        with pytest.raises(ValueError, match="t must be"):
            heat_kernel_diagonal(4, [1.0, -0.5])

    @pytest.mark.parametrize("t", [np.nan, [1.0, np.nan]])
    def test_nan_time_rejected(self, t):
        # a NaN t returned NaN past the t >= 0 check
        with pytest.raises(ValueError, match="t must be"):
            heat_kernel_diagonal(4, t)


class TestConstantA:
    def test_definition(self):
        # a = 2 C_0(0) = G(0)/4 with Montroll's G(0) = 1.23946712184848 in
        # d = 4; the BZ sum of C_0(0) agrees within its reported error
        assert abs(constant_a() - 0.30986678046212) < 1e-12
        c00, err = green_function_with_error(4, 0.0)
        assert abs(constant_a() / 2.0 - c00) <= err

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
