"""Walk Monte Carlo: pathwise identities, estimator laws, enumeration.

Oracles: exact identities on the 1-site torus (I(T) = T^2), the closed
form 2T^2/(n+2) for the conditioned intersection time, the exact Laplace
transform 1/nu at g = 0, ``quad`` of each walk's Laplace integral
interval by interval, a brute-force product-space enumeration of
self-avoiding walks, and the Green constant from the quadrature module.
"""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from wsaw4 import walk_mc
from wsaw4.lattice_green import LatticeSpec
from wsaw4.walk_mc import (
    BLOCK_SIZE,
    _block_intersections,
    block_rng,
    conditioned_intersection,
    estimate_cT,
    estimate_mean_intersection,
    fold_and_compare,
    jensen_bound_check,
    saw_counts,
    simulate,
    susceptibility_mc,
)

SPEC4 = LatticeSpec.window(4)


def naive_saw_count(d, n):
    """Independent oracle: filter all (2d)^n step strings for self-avoidance."""
    steps = []
    for ax in range(d):
        for s in (1, -1):
            e = [0] * d
            e[ax] = s
            steps.append(tuple(e))
    count = 0
    for word in itertools.product(steps, repeat=n):
        pos = (0,) * d
        seen = {pos}
        ok = True
        for e in word:
            pos = tuple(p + q for p, q in zip(pos, e))
            if pos in seen:
                ok = False
                break
            seen.add(pos)
        count += ok
    return count


class TestSimulate:
    def test_local_times_partition_horizon(self):
        s = simulate(SPEC4, 5.0, 42)
        assert sum(s.local_times.values()) == pytest.approx(5.0, abs=1e-12)
        assert s.gaps.sum() == pytest.approx(5.0, abs=1e-12)

    def test_one_site_torus_deterministic(self):
        one = LatticeSpec.torus(4, 1)
        for seed in (0, 7, 123):
            s = simulate(one, 3.0, seed)
            assert s.I_T == pytest.approx(9.0, abs=1e-10)

    def test_cauchy_schwarz_floor(self):
        s = simulate(SPEC4, 4.0, 5)
        distinct = len(s.local_times)
        assert s.I_T >= 4.0**2 / distinct - 1e-12

    def test_torus_floor(self):
        spec = LatticeSpec.torus(2, 3)
        s = simulate(spec, 6.0, 9)
        assert s.I_T >= 6.0**2 / 3**2 - 1e-12

    def test_mean_jump_count(self):
        tot = 0
        n = 4000
        for i in range(n):
            tot += len(simulate(SPEC4, 1.0, 17, i).jump_times)
        mean = tot / n
        assert abs(mean - 8.0) <= 3.0 * math.sqrt(8.0 / n)

    def test_reproducible_per_sample_streams(self):
        a = simulate(SPEC4, 2.0, 5, 3)
        b = simulate(SPEC4, 2.0, 5, 3)
        assert np.array_equal(a.sites, b.sites)
        assert np.array_equal(a.jump_times, b.jump_times)


class TestFolding:
    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_pathwise_monotone_chain(self, seed):
        s = simulate(SPEC4, 6.0, seed)
        out = fold_and_compare(s, [4, 8, 16])
        assert out[4] >= out[8] - 1e-12
        assert out[8] >= out[16] - 1e-12
        assert out[16] >= out[None] - 1e-12

    def test_wide_period_is_injective(self):
        s = simulate(SPEC4, 3.0, 11)
        diameter = int(np.abs(s.sites).max())
        p = max(3, 2 * diameter + 2)
        out = fold_and_compare(s, [p])
        assert out[p] == pytest.approx(s.I_T, abs=1e-12)

    # negative gaps let folding cancel local time, so each check can fire
    FAKE = ("walk_mc.WalkSample(T=0.0, jump_times=np.zeros(1), "
            "sites=np.array([[0], [4]]), gaps=np.array([1.0, -1.0]), "
            "local_times={{}}, I_T={})")
    CASES = [(2.0, [4, 8], "folding monotonicity failed"),
             (5.0, [8], "folded walk lost intersections")]

    @pytest.mark.parametrize("I_T, periods, message", CASES)
    def test_checks_raise(self, I_T, periods, message):
        with pytest.raises(AssertionError, match=message):
            fold_and_compare(eval(self.FAKE.format(I_T)), periods)

    def test_checks_survive_python_O(self):
        # python -O strips assert statements; the checks must still raise
        code = "import numpy as np\nfrom wsaw4 import walk_mc\n" + "".join(
            f"try:\n    walk_mc.fold_and_compare({self.FAKE.format(I_T)}, "
            f"{periods})\nexcept AssertionError as e:\n    print(e)\n"
            for I_T, periods, _ in self.CASES)
        src = os.path.dirname(os.path.dirname(walk_mc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        r = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                           capture_output=True, text=True, check=True)
        assert r.stdout.splitlines() == [m for _, _, m in self.CASES]

    def test_small_period_rejected(self):
        s = simulate(SPEC4, 1.0, 1)
        with pytest.raises(ValueError):
            fold_and_compare(s, [2])

    def test_estimator_ordering_across_periods(self):
        # c_{N,T} <= c_{N+1,T} <= c_T within Monte Carlo error
        g, T, n = 0.2, 3.0, 20000
        e4 = estimate_cT(LatticeSpec.torus(4, 4), g, T, n, seed=8)
        e8 = estimate_cT(LatticeSpec.torus(4, 8), g, T, n, seed=8)
        ew = estimate_cT(SPEC4, g, T, n, seed=8)
        tol = 3.0 * (e4.std_error + e8.std_error + ew.std_error)
        assert e4.mean <= e8.mean + tol
        assert e8.mean <= ew.mean + tol


class TestEstimateCT:
    def test_free_case_exact(self):
        e = estimate_cT(SPEC4, 0.0, 2.0, 500, seed=1)
        assert e.mean == 1.0 and e.std_error == 0.0

    def test_one_site_exact_value(self):
        one = LatticeSpec.torus(4, 1)
        e = estimate_cT(one, 0.3, 2.0, 400, seed=2)
        assert e.mean == pytest.approx(math.exp(-0.3 * 4.0), rel=1e-12)

    def test_deterministic_across_calls(self):
        a = estimate_cT(SPEC4, 0.1, 1.5, 30000, seed=42)
        b = estimate_cT(SPEC4, 0.1, 1.5, 30000, seed=42)
        assert a == b

    def test_subadditivity(self):
        g, n = 0.1, 60000
        es = {T: estimate_cT(SPEC4, g, T, n, seed=5) for T in (1.0, 2.0, 3.0)}
        for (T, S) in [(1.0, 1.0), (1.0, 2.0)]:
            lhs = es[T + S]
            prod = es[T].mean * es[S].mean
            se = math.sqrt((es[T].std_error * es[S].mean) ** 2
                           + (es[S].std_error * es[T].mean) ** 2)
            assert lhs.mean <= prod + 3.0 * (lhs.std_error + se)

    def test_batch_matches_single_walk_machinery(self):
        # the vectorized intersection times follow the same distribution as
        # the per-walk accumulation: compare moments loosely
        n = 20000
        batch = estimate_mean_intersection(SPEC4, 2.0, n, seed=3)
        singles = [simulate(SPEC4, 2.0, 99, i).I_T for i in range(2000)]
        se = np.std(singles) / math.sqrt(len(singles)) + batch.std_error
        assert abs(batch.mean - np.mean(singles)) < 4.0 * se


class TestSusceptibilityMC:
    def test_free_laplace_transform(self):
        e = susceptibility_mc(SPEC4, 0.0, 0.5, T_max=16.0, n=2000, seed=9)
        err = e.std_error + e.truncation_bound + e.quadrature_error
        assert abs(e.mean - 2.0) <= 3.0 * err + 1e-9

    def test_interaction_suppresses(self):
        free = susceptibility_mc(SPEC4, 0.0, 0.5, T_max=16.0, n=1500, seed=4)
        inter = susceptibility_mc(SPEC4, 0.1, 0.5, T_max=16.0, n=1500, seed=4)
        assert inter.mean < free.mean

    def test_decreasing_in_nu(self):
        vals = [susceptibility_mc(SPEC4, 0.05, nu, T_max=12.0, n=1200,
                                  seed=6).mean
                for nu in (0.4, 0.6, 0.8)]
        assert vals[0] > vals[1] > vals[2]

    def test_nonpositive_nu_rejected(self):
        with pytest.raises(ValueError):
            susceptibility_mc(SPEC4, 0.1, 0.0, T_max=8.0, n=100)

    def test_negative_g_rejected(self):
        for spec in (SPEC4, LatticeSpec.torus(1, 3)):
            with pytest.raises(ValueError, match="g >= 0"):
                susceptibility_mc(spec, -0.1, 0.5, T_max=8.0, n=100)

    def test_torus_allows_nonpositive_nu_when_interacting(self):
        tri = LatticeSpec.torus(1, 3)
        e = susceptibility_mc(tri, 0.3, -0.2, T_max=8.0, n=200, seed=1)
        assert e.mean > 0 and e.truncation_bound > 0
        with pytest.raises(ValueError):
            susceptibility_mc(tri, 0.0, -0.2, T_max=8.0, n=200)

    def test_torus_tail_bound(self):
        # I(T) >= T^2/|V| bounds the tail by int_T^inf e^{-nu T - g T^2/|V|}
        g, nu, T = 0.3, 0.2, 16.0
        e = susceptibility_mc(LatticeSpec.torus(1, 3), g, nu, T_max=T, n=100)
        tail = quad(lambda t: math.exp(-nu * t - g * t * t / 3.0), T,
                    math.inf)[0]
        assert e.truncation_bound == pytest.approx(tail, rel=1e-8)
        assert e.truncation_bound < 1e-12 < math.exp(-nu * T) / nu

    def test_one_site_tail_closes_the_transform(self):
        # on one site I(T) = T^2, so the bound is the tail itself
        g, nu = 0.3, -0.2
        e = susceptibility_mc(LatticeSpec.torus(4, 1), g, nu, T_max=4.0,
                              n=100, seed=2)
        full = quad(lambda t: math.exp(-nu * t - g * t * t), 0.0, math.inf,
                    epsabs=0.0, epsrel=1e-13)[0]
        assert e.mean + e.truncation_bound == pytest.approx(full, rel=1e-12)

    def test_torus_estimates_ordered(self):
        # chi grows with the torus period toward the infinite-volume value
        kw = dict(g=0.3, nu=0.4, T_max=12.0, n=2500, seed=12)
        e4 = susceptibility_mc(LatticeSpec.torus(4, 4), **kw)
        e8 = susceptibility_mc(LatticeSpec.torus(4, 8), **kw)
        ew = susceptibility_mc(SPEC4, **kw)
        tol = 3.0 * (e4.std_error + e8.std_error + ew.std_error)
        assert e4.mean <= e8.mean + tol
        assert e8.mean <= ew.mean + tol


class TestConditionedIntersection:
    def test_no_jumps_exact(self):
        e = conditioned_intersection(1.0, 0, 100)
        assert e.mean == 1.0 and e.std_error == 0.0

    @pytest.mark.parametrize("T,n,target", [
        (1.0, 5, 2.0 / 7.0),
        (2.0, 1, 8.0 / 3.0),
        (1.0, 20, 2.0 / 22.0),
    ])
    def test_matches_closed_form(self, T, n, target):
        e = conditioned_intersection(T, n, 60000, seed=13)
        assert abs(e.mean - target) <= 3.0 * e.std_error


class TestSawCounts:
    def test_first_count_is_coordination_number(self):
        for d in (1, 2, 3, 4):
            assert saw_counts(d, 1)[0] == 2 * d

    def test_one_dimensional_rays(self):
        assert saw_counts(1, 7) == [2] * 7

    def test_vs_naive_enumeration_oracle(self):
        assert saw_counts(2, 4) == [naive_saw_count(2, n) for n in (1, 2, 3, 4)]
        assert saw_counts(3, 3) == [naive_saw_count(3, n) for n in (1, 2, 3)]
        assert saw_counts(4, 4) == [naive_saw_count(4, n) for n in (1, 2, 3, 4)]

    def test_connective_constant_bracket(self):
        counts = saw_counts(2, 10)
        mu = counts[-1] ** (1.0 / 10.0)
        assert 2.0 <= mu <= 3.0  # [d, 2d-1] at d = 2

    def test_budget_guard(self):
        # the pure-Python enumeration grows about (2d-1)-fold per step; the
        # largest allowed call at each d takes a few seconds
        for d, budget in ((2, 17), (3, 12), (4, 10)):
            with pytest.raises(ValueError, match="budget"):
                saw_counts(d, budget + 1)

    def test_d4_eight_steps(self):
        # OEIS A010575: self-avoiding walks on Z^4
        assert saw_counts(4, 8)[-1] == 5946200


class TestTooFewSamples:
    # one sample gives no standard error, and none gives no mean
    @pytest.mark.parametrize("estimator", [
        lambda n: estimate_cT(SPEC4, 0.1, 2.0, n),
        lambda n: estimate_mean_intersection(SPEC4, 2.0, n),
        lambda n: susceptibility_mc(SPEC4, 0.1, 0.5, T_max=4.0, n=n),
        lambda n: jensen_bound_check(0.2, 2.0, n),
        lambda n: conditioned_intersection(1.0, 5, n),
        lambda n: conditioned_intersection(1.0, 0, n),
    ], ids=["estimate_cT", "estimate_mean_intersection", "susceptibility_mc",
            "jensen_bound_check", "conditioned_intersection",
            "conditioned_intersection_no_jumps"])
    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_rejected(self, estimator, n):
        with pytest.raises(ValueError, match="need >= 2"):
            estimator(n)


class TestJensen:
    def test_bound_and_floor(self):
        rep = jensen_bound_check(0.2, 5.0, 40000, seed=21)
        assert rep.bound_satisfied
        assert rep.jensen_satisfied
        assert rep.mean_I <= rep.upper_bound + 3.0 * rep.se_I

    def test_free_case_trivial(self):
        rep = jensen_bound_check(0.0, 2.0, 2000, seed=1)
        assert rep.c_T_hat == 1.0 and rep.jensen_floor == 1.0

    def test_time_average_nondecreasing(self):
        e1 = estimate_mean_intersection(SPEC4, 1.0, 40000, seed=30)
        e10 = estimate_mean_intersection(SPEC4, 10.0, 40000, seed=31)
        se = e1.std_error + e10.std_error / 10.0
        assert e10.mean / 10.0 >= e1.mean / 1.0 - 3.0 * se


class TestGraphGeometry:
    # walks are simulated on Z^d or a torus only: a graph spec used to run
    # on Z^1 and return the window(1) values, since no estimator read the
    # Laplacian
    TRI = LatticeSpec.graph(np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0],
                                      [-1.0, -1.0, 2.0]]))

    @pytest.mark.parametrize("estimator", [
        lambda s: estimate_cT(s, 0.3, 2.0, 100, seed=1),
        lambda s: estimate_mean_intersection(s, 2.0, 100, seed=1),
        lambda s: susceptibility_mc(s, 0.3, 0.2, T_max=4.0, n=100, seed=1),
    ], ids=["estimate_cT", "estimate_mean_intersection", "susceptibility_mc"])
    def test_graph_spec_rejected(self, estimator):
        with pytest.raises(ValueError, match="window or torus"):
            estimator(self.TRI)


class TestRngContract:
    def test_block_streams_differ(self):
        a = block_rng(1, 0).random(4)
        b = block_rng(1, 1).random(4)
        c = block_rng(2, 0).random(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_block_streams_reproduce(self):
        assert np.array_equal(block_rng(9, 3).random(8), block_rng(9, 3).random(8))


def interval_quad_oracle(spec, g, nu, T, rng, nblock):
    """Each walk's int_0^T e^{-nu t - g I(t)} dt, one quad per interval.

    Redraws the block sampler's walks from its stream (jump counts, jump
    times, directions), rebuilds each walk's residence intervals one by one
    and, on each, I(t) from the local times ``L`` held before it:
    ``I(t) = sum_x L_x^2 - l^2 + (l + t - s)^2`` at a site with ``L = l``.
    """
    d = spec.d
    N = rng.poisson(2 * d * T, size=nblock)
    times = rng.random(int(N.sum())) * T
    dirs = rng.integers(0, 2 * d, size=int(N.sum()))
    values, k = [], 0
    for n in N:
        pos, sites = [0] * d, [(0,) * d]
        for dr in dirs[k:k + n]:
            pos[dr >> 1] += 1 - 2 * (dr & 1)
            sites.append(tuple(np.mod(pos, spec.period)) if spec.period
                         else tuple(pos))
        bounds = [0.0, *np.sort(times[k:k + n]), T]
        k += n
        L, total = {}, 0.0
        for site, s, e in zip(sites, bounds[:-1], bounds[1:]):
            l = L.get(site, 0.0)
            I_s = sum(v * v for v in L.values()) - l * l
            total += quad(lambda t: math.exp(
                -nu * t - g * (I_s + (l + t - s) ** 2)), s, e,
                epsabs=0.0, epsrel=1e-12)[0]
            L[site] = l + (e - s)
        values.append(total)
    return np.array(values)


class TestWalkLaplaceIntegral:
    """Each walk's exact ``int_0^T e^{-nu t - g I(t)} dt`` from the sampler."""

    @pytest.mark.parametrize("g,nu", [
        (0.3, 0.2), (0.3, -0.2),
        (1e-4, -0.6),   # erfcx(sqrt(g) b) alone would overflow
        (1e-6, 0.5),    # nu^2/4g = 62500: no difference of squares
    ], ids=["nu>0", "nu<0", "deep-negative-b", "small-g"])
    def test_one_site_torus_matches_quad(self, g, nu):
        # every walk stays on the single site, so I(t) = t^2 exactly
        T = 8.0
        vals = _block_intersections(LatticeSpec.torus(4, 1), T,
                                    block_rng(8, 0), BLOCK_SIZE, g=g, nu=nu)
        exact = quad(lambda t: math.exp(-nu * t - g * t * t), 0.0, T,
                     epsabs=0.0, epsrel=1e-13)[0]
        assert vals == pytest.approx(np.full(BLOCK_SIZE, exact), rel=1e-12,
                                     abs=0)

    def test_free_walk_closed_form(self):
        # at g = 0 the integrand is e^{-nu t} on every path
        e = susceptibility_mc(SPEC4, 0.0, 0.5, T_max=16.0, n=3000, seed=1)
        assert e.mean == pytest.approx(-math.expm1(-8.0) / 0.5, rel=1e-15,
                                       abs=0)
        assert e.quadrature_error == 0.0

    @pytest.mark.parametrize("spec,g,nu,T", [
        (LatticeSpec.torus(1, 3), 0.3, -0.2, 6.0),
        (LatticeSpec.torus(2, 3), 0.2, 0.1, 4.0),
        (LatticeSpec.window(2), 0.5, 0.3, 4.0),
    ], ids=["torus(1,3)", "torus(2,3)", "window(2)"])
    def test_matches_interval_quad_oracle(self, spec, g, nu, T):
        vals = _block_intersections(spec, T, block_rng(4, 1), 6, g=g, nu=nu)
        oracle = interval_quad_oracle(spec, g, nu, T, block_rng(4, 1), 6)
        assert vals == pytest.approx(oracle, rel=1e-10, abs=0)


class TestBlockDraws:
    @pytest.fixture
    def drawn(self, monkeypatch):
        calls = []

        def counting(seed, block_index):
            calls.append(block_index)
            return block_rng(seed, block_index)

        monkeypatch.setattr(walk_mc, "block_rng", counting)
        return calls

    def test_jensen_draws_each_block_once(self, drawn):
        jensen_bound_check(0.1, 1.0, 3 * BLOCK_SIZE, seed=2)
        assert drawn == [0, 1, 2]

    @pytest.mark.parametrize("n", [2, BLOCK_SIZE, BLOCK_SIZE + 10])
    def test_susceptibility_one_stream(self, drawn, n):
        e = susceptibility_mc(SPEC4, 0.1, 0.5, T_max=2.0, n=n, seed=3)
        assert drawn == list(range(math.ceil(n / BLOCK_SIZE)))
        assert e.n_samples == n


class TestFrozenValues:
    """Values of the block stream at one seed each; a change of the stream
    layout (block keys, draw order, reduction order) moves them."""

    def test_estimate_cT_window(self):
        e = estimate_cT(SPEC4, 0.1, 2.0, 10000, seed=3)
        assert e.mean == pytest.approx(0.9471993780893005, rel=1e-12)
        assert e.std_error == pytest.approx(0.00017771889161939571, rel=1e-12)

    def test_estimate_cT_torus(self):
        e = estimate_cT(LatticeSpec.torus(4, 4), 0.2, 3.0, 10000, seed=8)
        assert e.mean == pytest.approx(0.8429961178008312, rel=1e-12)
        assert e.std_error == pytest.approx(0.000414415735418198, rel=1e-12)

    def test_jensen_bound_check(self):
        rep = jensen_bound_check(0.2, 5.0, 10000, seed=21)
        assert rep.mean_I == pytest.approx(1.4620207899590316, rel=1e-12)
        assert rep.se_I == pytest.approx(0.0035484508048437484, rel=1e-12)
        assert rep.c_T_hat == pytest.approx(0.7482829368268058, rel=1e-12)
        assert rep.se_c_T == pytest.approx(0.0005052471054580579, rel=1e-12)

    def test_conditioned_intersection(self):
        e = conditioned_intersection(1.0, 5, 20000, seed=13)
        assert e.mean == pytest.approx(0.28626357021628324, rel=1e-12)
        assert e.std_error == pytest.approx(0.0005347197963014556, rel=1e-12)

    def test_estimate_mean_intersection(self):
        e = estimate_mean_intersection(SPEC4, 3.0, 10000, seed=4)
        assert e.mean == pytest.approx(0.8476227026615152, rel=1e-12)
        assert e.std_error == pytest.approx(0.0025364884830329374, rel=1e-12)

    @pytest.mark.parametrize("spec,g,nu,n,seed,mean,se", [
        (SPEC4, 0.1, 0.5, 2000, 1, 1.894930775393061, 0.0005254062606439186),
        (LatticeSpec.torus(1, 2), 0.3, -0.2, 4000, 5, 2.863031836995656,
         0.0036013474552366916),
    ], ids=["window", "torus2"])
    def test_susceptibility_mc(self, spec, g, nu, n, seed, mean, se):
        e = susceptibility_mc(spec, g, nu, T_max=16.0, n=n, seed=seed)
        assert e.mean == pytest.approx(mean, rel=1e-12)
        assert e.std_error == pytest.approx(se, rel=1e-12)

    def test_susceptibility_mc_free(self):
        # at g = 0 every walk gives (1 - e^{-nu T_max})/nu: the SE is roundoff
        e = susceptibility_mc(SPEC4, 0.0, 0.5, T_max=16.0, n=2000, seed=1)
        assert e.mean == pytest.approx(1.9993290747441952, rel=1e-12)
        assert e.std_error < 1e-15

    def test_saw_counts(self):
        # OEIS A001411 (d = 2) and A001412 (d = 3)
        assert saw_counts(2, 13) == [4, 12, 36, 100, 284, 780, 2172, 5916,
                                     16268, 44100, 120292, 324932, 881500]
        assert saw_counts(3, 9) == [6, 30, 150, 726, 3534, 16926, 81390,
                                    387966, 1853886]
