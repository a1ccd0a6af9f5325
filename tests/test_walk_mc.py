"""Walk Monte Carlo: pathwise identities, estimator laws, enumeration.

Oracles: exact identities on the 1-site torus (I(T) = T^2), the closed
form 2T^2/(n+2) for the conditioned intersection time, the exact Laplace
transform 1/nu at g = 0, ``quad`` of each walk's Laplace integral
interval by interval, a brute-force product-space enumeration of
self-avoiding walks, and the Green constant from the quadrature module.
"""

import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from wsaw4 import walk_mc
from wsaw4.lattice_green import LatticeSpec
from wsaw4.walk_mc import (
    BLOCK_SIZE,
    _block_intersections,
    _walk_stream,
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
    def test_gaps_partition_horizon(self):
        s = simulate(SPEC4, 5.0, 42)
        assert s.gaps.sum() == pytest.approx(5.0, abs=1e-12)

    def test_one_site_torus_deterministic(self):
        one = LatticeSpec.torus(4, 1)
        for seed in (0, 7, 123):
            s = simulate(one, 3.0, seed)
            assert s.I_T == pytest.approx(9.0, abs=1e-10)

    def test_cauchy_schwarz_floor(self):
        s = simulate(SPEC4, 4.0, 5)
        distinct = len(np.unique(s.sites, axis=0))
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

    def test_walk_is_its_one_walk_block(self):
        # walk by walk, simulate's I(T) is the block kernel's value of the
        # one-walk block of the same stream, up to summation order
        for spec in (LatticeSpec.window(1), LatticeSpec.window(2), SPEC4,
                     LatticeSpec.torus(4, 3), LatticeSpec.torus(2, 5)):
            for seed in range(3):
                for i in range(20):
                    T = (0.5, 2.0, 5.0)[i % 3]
                    walk = simulate(spec, T, seed, i).I_T
                    block = _block_intersections(spec, T, block_rng(seed, i),
                                                 1)[0]
                    assert walk == pytest.approx(block, rel=1e-13, abs=0.0)


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
            "I_T={})")
    CASES = [(2.0, [4, 8], "folding monotonicity failed"),
             (5.0, [8], "folded walk lost intersections")]

    @pytest.mark.parametrize("I_T, periods, message", CASES)
    def test_checks_raise(self, I_T, periods, message):
        with pytest.raises(AssertionError, match=message):
            fold_and_compare(eval(self.FAKE.format(I_T)), periods)

    def test_checks_survive_python_O(self, child_env):
        # python -O strips assert statements; the checks must still raise
        code = "import numpy as np\nfrom wsaw4 import walk_mc\n" + "".join(
            f"try:\n    walk_mc.fold_and_compare({self.FAKE.format(I_T)}, "
            f"{periods})\nexcept AssertionError as e:\n    print(e)\n"
            for I_T, periods, _ in self.CASES)
        r = subprocess.run([sys.executable, "-O", "-c", code], env=child_env,
                           capture_output=True, text=True, check=True)
        assert r.stdout.splitlines() == [m for _, _, m in self.CASES]

    def test_small_period_rejected(self):
        s = simulate(SPEC4, 1.0, 1)
        with pytest.raises(ValueError):
            fold_and_compare(s, [2])

    @pytest.mark.parametrize("periods,named", [
        ([4.5], "period must be an integer, got 4.5"),
        ([True], "period must be an integer, got True"),
        ([8, 4.0], "period must be an integer, got 4.0"),
    ], ids=["fractional", "bool", "float"])
    def test_period_must_be_an_integer(self, periods, named):
        # 4.5 folded at period 4 and came back under key 4
        with pytest.raises(ValueError, match=named):
            fold_and_compare(simulate(LatticeSpec.window(4), 2.0, 1), periods)

    def test_numpy_integer_period_accepted(self):
        s = simulate(SPEC4, 2.0, 1)
        assert fold_and_compare(s, [np.int64(4), 8]) \
            == fold_and_compare(s, [4, 8])

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

    @pytest.mark.parametrize("d,n_max,named", [
        (4, 7.0, "n_max must be an integer, got 7.0"),
        (4.0, 3, "d must be an integer in 1..4, got 4.0"),
        (True, 3, "d must be an integer in 1..4, got True"),
        (2, -1, r"n_max = -1: need >= 0"),
        (5, 3, "d must be an integer in 1..4, got 5"),
    ], ids=["float-n_max", "float-d", "bool-d", "negative-n_max", "d-5"])
    def test_invalid_inputs_named(self, d, n_max, named):
        # a float ended in a bare TypeError, d = True counted as d = 1, and
        # n_max = -1 returned []
        with pytest.raises(ValueError, match=named):
            saw_counts(d, n_max)

    def test_no_steps(self):
        assert saw_counts(2, 0) == [] and saw_counts(np.int64(3), 0) == []
        assert saw_counts(np.int64(2), np.int32(4)) == saw_counts(2, 4)

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


class TestDrawCap:
    # a horizon whose block needs more than _DRAW_BUDGET bytes ended in a
    # MemoryError (T_max = 1e9: "Unable to allocate 119. GiB") or in a
    # kill; it raises naming T before any draw
    @pytest.mark.parametrize("call,mib", [
        (lambda: estimate_cT(SPEC4, 0.1, 1e9, 2), "2.93e+06"),
        (lambda: estimate_mean_intersection(SPEC4, 1e9, 2), "2.93e+06"),
        (lambda: susceptibility_mc(SPEC4, 0.1, 0.5, T_max=1e9, n=2),
         "2.93e+06"),
        (lambda: jensen_bound_check(0.2, 1e9, 2), "2.93e+06"),
        (lambda: simulate(SPEC4, 1e9, 1), "2.93e+06"),
    ], ids=["estimate_cT", "estimate_mean_intersection", "susceptibility_mc",
            "jensen_bound_check", "simulate"])
    def test_rejected_before_any_draw(self, call, mib):
        pattern = rf"T = 1000000000\.0 needs about {re.escape(mib)} MiB"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=pattern):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("spec,T,nblock", [
        (SPEC4, 64.0, BLOCK_SIZE),
        (SPEC4, 1009.0, BLOCK_SIZE),
        (LatticeSpec.window(9), 16.0, BLOCK_SIZE),
        (SPEC4, 1e5, 1),   # TestHorizonReach's one walk, the largest use
        (SPEC4, 1.66e5, 1),
        (SPEC4, 1.73e5, BLOCK_SIZE),
    ], ids=["4096-T64", "4096-T1009", "4096-d9-T16", "one-T1e5",
            "one-T1.66e5", "4096-T1.73e5"])
    def test_within_the_budget_accepted(self, spec, T, nblock):
        # a block is drawn and valued part by part, so its size adds 32 B a
        # walk, not 16 B a jump time: 4,096 walks stopped at T = 1009 when
        # the block's draws were held whole, and now reach one walk's T
        walk_mc._check_draw(spec, T, nblock)

    @pytest.mark.parametrize("T,nblock", [(1.74e5, BLOCK_SIZE), (1.74e5, 1)])
    def test_over_the_budget_rejected(self, T, nblock):
        with pytest.raises(ValueError, match="more than the 512 MiB budget"):
            walk_mc._check_draw(SPEC4, T, nblock)

    def test_block_at_T64_runs(self):
        e = estimate_cT(SPEC4, 0.1, 64.0, BLOCK_SIZE)
        assert e.n_samples == BLOCK_SIZE and 0.0 < e.mean < 1.0


class TestInvalidInputs:
    # a negative horizon used to reach numpy's Poisson draw ("lam < 0") or,
    # in conditioned_intersection, to return a number (1.449 where |T| = 1
    # gives 0.4); an infinite or NaN one reached the draw too, or gave
    # conditioned_intersection a NaN mean; a negative g gave
    # jensen_bound_check a c_T_hat above 1, and a NaN g a NaN c_T_hat; a
    # non-finite g or nu gave susceptibility_mc a NaN mean
    @pytest.mark.parametrize("call,match", [
        (lambda: estimate_cT(SPEC4, 0.1, -1.0, 100), "T must be > 0"),
        (lambda: estimate_mean_intersection(SPEC4, -1.0, 100), "T must be > 0"),
        (lambda: susceptibility_mc(SPEC4, 0.1, 0.5, T_max=-1.0, n=100),
         "T must be > 0"),
        (lambda: jensen_bound_check(0.1, -1.0, 100), "T must be > 0"),
        (lambda: jensen_bound_check(-0.1, 1.0, 100), "g must be >= 0"),
        (lambda: conditioned_intersection(-1.0, 3, 100), "T must be > 0"),
        (lambda: estimate_cT(SPEC4, math.nan, 1.0, 100),
         "g must be >= 0 and finite"),
        (lambda: jensen_bound_check(math.nan, 1.0, 100),
         "g must be >= 0 and finite"),
        (lambda: estimate_cT(SPEC4, 0.1, math.inf, 100),
         "T must be > 0 and finite, got inf"),
        (lambda: estimate_mean_intersection(SPEC4, math.nan, 100),
         "T must be > 0 and finite, got nan"),
        (lambda: susceptibility_mc(SPEC4, 0.1, 0.5, T_max=math.inf, n=100),
         "T must be > 0 and finite, got inf"),
        (lambda: conditioned_intersection(math.inf, 3, 10),
         "T must be > 0 and finite, got inf"),
        (lambda: conditioned_intersection(math.nan, 3, 10),
         "T must be > 0 and finite, got nan"),
        (lambda: simulate(SPEC4, math.nan, 1),
         "T must be > 0 and finite, got nan"),
        (lambda: simulate(SPEC4, math.inf, 1),
         "T must be > 0 and finite, got inf"),
        (lambda: susceptibility_mc(SPEC4, 0.1, math.inf, T_max=4.0, n=100),
         "nu must be finite, got inf"),
        (lambda: susceptibility_mc(SPEC4, math.inf, 0.5, T_max=4.0, n=100),
         "g must be >= 0 and finite, got inf"),
        (lambda: susceptibility_mc(LatticeSpec.torus(2, 5), 0.1, math.nan,
                                   T_max=4.0, n=100),
         "nu must be finite, got nan"),
        (lambda: susceptibility_mc(LatticeSpec.torus(2, 5), 0.1, -math.inf,
                                   T_max=4.0, n=100),
         "nu must be finite, got -inf"),
        (lambda: susceptibility_mc(SPEC4, 0.0, math.inf, T_max=4.0, n=100),
         "nu must be finite, got inf"),
        # a float count raised a TypeError in a draw; a negative one was
        # reported as "0 samples"; a float sample index was truncated
        (lambda: estimate_cT(SPEC4, 0.1, 2.0, 1e4),
         "n must be an integer, got 10000.0"),
        (lambda: estimate_mean_intersection(SPEC4, 2.0, 1e4),
         "n must be an integer"),
        (lambda: susceptibility_mc(SPEC4, 0.1, 0.5, T_max=4.0, n=1e4),
         "n must be an integer"),
        (lambda: jensen_bound_check(0.2, 2.0, 1e4), "n must be an integer"),
        (lambda: conditioned_intersection(1.0, 5.0, 100),
         "n must be an integer, got 5.0"),
        (lambda: conditioned_intersection(1.0, 5, 100.0),
         "n_samples must be an integer, got 100.0"),
        (lambda: conditioned_intersection(1.0, -1, 100), r"n = -1: need >= 0"),
        (lambda: estimate_cT(SPEC4, 0.1, 2.0, -5), r"n = -5: need >= 2"),
        (lambda: estimate_cT(SPEC4, 0.1, 2.0, True),
         "n must be an integer, got True"),
        (lambda: simulate(SPEC4, 1.0, 1, 1.5),
         "sample_index must be an integer, got 1.5"),
        (lambda: simulate(SPEC4, 1.0, 1, -1), r"sample_index = -1: need >= 0"),
    ], ids=["estimate_cT", "estimate_mean_intersection", "susceptibility_mc",
            "jensen_bound_check", "jensen_bound_check_negative_g",
            "conditioned_intersection", "estimate_cT_nan_g",
            "jensen_bound_check_nan_g", "estimate_cT_inf_T",
            "estimate_mean_intersection_nan_T", "susceptibility_mc_inf_T_max",
            "conditioned_intersection_inf_T", "conditioned_intersection_nan_T",
            "simulate_nan_T", "simulate_inf_T", "susceptibility_mc_inf_nu",
            "susceptibility_mc_inf_g", "susceptibility_mc_torus_nan_nu",
            "susceptibility_mc_torus_minus_inf_nu",
            "susceptibility_mc_free_inf_nu", "estimate_cT_float_n",
            "estimate_mean_intersection_float_n", "susceptibility_mc_float_n",
            "jensen_bound_check_float_n", "conditioned_intersection_float_n",
            "conditioned_intersection_float_n_samples",
            "conditioned_intersection_negative_n", "estimate_cT_negative_n",
            "estimate_cT_bool_n", "simulate_float_index",
            "simulate_negative_index"])
    def test_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    @pytest.mark.parametrize("call", [
        lambda: estimate_cT(SPEC4, 0.1, 2.0, 1e4),
        lambda: susceptibility_mc(SPEC4, 0.1, 0.5, T_max=4.0, n=2.5),
        lambda: jensen_bound_check(0.2, 2.0, -5),
        lambda: conditioned_intersection(1.0, 5, 1e3),
        lambda: simulate(SPEC4, 1.0, 1, 1.5),
    ], ids=["estimate_cT", "susceptibility_mc", "jensen_bound_check",
            "conditioned_intersection", "simulate"])
    def test_counts_rejected_before_any_draw(self, monkeypatch, call):
        def no_draw(seed, block_index):
            raise AssertionError("a stream was made")

        monkeypatch.setattr(walk_mc, "block_rng", no_draw)
        with pytest.raises(ValueError, match="must be an integer|need >= "):
            call()

    @pytest.mark.parametrize("call", [
        lambda seed: simulate(SPEC4, 1.0, seed).I_T,
        lambda seed: estimate_cT(SPEC4, 0.1, 2.0, 100, seed=seed),
        lambda seed: estimate_mean_intersection(SPEC4, 2.0, 100, seed=seed),
        lambda seed: susceptibility_mc(SPEC4, 0.1, 0.5, 4.0, 100, seed=seed),
        lambda seed: jensen_bound_check(0.2, 2.0, 100, seed=seed),
        lambda seed: conditioned_intersection(1.0, 3, 10, seed=seed),
        lambda seed: conditioned_intersection(1.0, 0, 10, seed=seed),
        lambda seed: conditioned_intersection(2.5, np.int64(0), 2, seed=seed),
    ], ids=["simulate", "estimate_cT", "estimate_mean_intersection",
            "susceptibility_mc", "jensen_bound_check",
            "conditioned_intersection", "conditioned_intersection_n0",
            "conditioned_intersection_numpy_n0"])
    def test_seed_must_be_an_integer(self, monkeypatch, call):
        # block_rng's mask raised a bare TypeError on a float seed, and the
        # n = 0 shortcut, which makes no stream, took any seed
        drawn = []
        monkeypatch.setattr(walk_mc, "_draw", lambda *a, **k: drawn.append(1))
        for seed in (1.5, 2.0, True, "3"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                call(seed)
        assert drawn == []
        monkeypatch.undo()
        assert call(np.int64(7)) == call(7)

    def test_numpy_integer_counts_accepted(self):
        n, i = np.int64(100), np.int32(3)
        assert estimate_cT(SPEC4, 0.1, 2.0, n, seed=2) \
            == estimate_cT(SPEC4, 0.1, 2.0, 100, seed=2)
        assert conditioned_intersection(1.0, np.int64(5), n, seed=2) \
            == conditioned_intersection(1.0, 5, 100, seed=2)
        assert simulate(SPEC4, 1.0, 4, i).I_T == simulate(SPEC4, 1.0, 4, 3).I_T


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


def whole_block_draw(spec, T, rng, nblock):
    """The stream layout of a block, drawn whole from one generator: all
    jump counts, then all jump times, then all steps, each in one call."""
    N = rng.poisson(2 * spec.d * T, size=nblock)
    times = rng.random(int(N.sum())) * T
    return N, times, rng.integers(0, 2 * spec.d, size=times.size)


def part_draws(spec, T, rng, nblock, steps=True):
    """Concatenate ``_draw``'s parts, checking that they tile the block."""
    draws = walk_mc._draw(spec, T, rng, nblock, steps)
    N, parts, end = next(draws), [], 0
    for a, b, *x in draws:
        assert a == end and b > a
        end = b
        parts.append([np.array(v) for v in x])   # a part's times are reused
    assert end == nblock
    return (N, *map(np.concatenate, zip(*parts)))


class TestBlockDrawOrder:
    """The stream layout of a block (what keeps the manifest schema): its
    jump counts, then all jump times, then all steps, value for value as a
    whole-block draw gives them, however the block is cut into parts."""

    PARTS = (1, 100, 10**9)   # 1: one walk a part; 10**9: one part

    def check_layout(self, monkeypatch, spec, T, nblock, steps=True):
        ref = whole_block_draw(spec, T, block_rng(6, 2), nblock)
        for part in self.PARTS:
            monkeypatch.setattr(walk_mc, "_PART_VISITS", part)
            got = part_draws(spec, T, block_rng(6, 2), nblock, steps)
            assert len(got) == 2 + steps
            for x, y in zip(got, ref):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), part

    @pytest.mark.parametrize("spec,kw", [
        (SPEC4, {}),
        (SPEC4, dict(g=0.1, nu=0.5)),
        (SPEC4, dict(g=0.0, nu=0.5)),
        (LatticeSpec.torus(2, 5), {}),
        (LatticeSpec.torus(1, 3), dict(g=0.3, nu=-0.2)),
    ], ids=["I", "laplace", "laplace-g0", "torus-I", "torus-laplace"])
    @pytest.mark.parametrize("nblock", [1, 600])
    def test_draws(self, monkeypatch, spec, kw, nblock):
        # the g = 0 Laplace integral draws no steps; every block values as
        # its whole-block draw does in one part
        T, steps = 3.0, kw.get("g", 1.0) != 0
        self.check_layout(monkeypatch, spec, T, nblock, steps)
        N, times, dirs = whole_block_draw(spec, T, block_rng(6, 2), nblock)
        whole = walk_mc._walk_values(spec, T, kw.get("g", 0.0), kw.get("nu"),
                                     N, times, dirs if steps else None)
        for part in self.PARTS:
            monkeypatch.setattr(walk_mc, "_PART_VISITS", part)
            vals = _block_intersections(spec, T, block_rng(6, 2), nblock, **kw)
            assert vals.tobytes() == whole.tobytes(), part

    @pytest.mark.parametrize("d", range(1, 10))
    @pytest.mark.parametrize("geometry", ["window", "torus"])
    @pytest.mark.parametrize("nblock", [1, 600, BLOCK_SIZE])
    def test_layout_every_dimension(self, monkeypatch, d, geometry, nblock):
        # 2d is not a power of two at d = 3, 5, 6, 7 and 9, where a bounded
        # step draw may reject a word: the steps are still read in order
        spec = LatticeSpec.window(d) if geometry == "window" \
            else LatticeSpec.torus(d, 3)
        self.check_layout(monkeypatch, spec, 0.5, nblock)

    @pytest.mark.parametrize("spec", [SPEC4, LatticeSpec.torus(2, 5),
                                      LatticeSpec.window(3)],
                             ids=["window", "torus", "window3"])
    def test_simulate_draws_one_walk_block(self, spec):
        T = 3.0
        N, times, dirs = whole_block_draw(spec, T, block_rng(6, 2), 1)
        s = simulate(spec, T, 6, 2)
        assert s.jump_times.tobytes() == np.sort(times).tobytes()
        steps = np.diff(s.sites, axis=0)   # the k-th jump takes dirs[k]
        if spec.geometry == "torus":   # a step across the seam wraps
            steps = (steps + 1) % spec.period - 1
        expected = np.zeros_like(steps)
        expected[np.arange(N[0]), dirs >> 1] = 1 - 2 * (dirs & 1)
        assert steps.tolist() == expected.tolist()


class TestPartSize:
    """A walk's value depends on its own draws only, so the number of visits
    valued per kernel call changes no bit."""

    @pytest.mark.parametrize("spec,T,kw", [
        (SPEC4, 4.0, {}),
        (SPEC4, 16.0, dict(g=0.1, nu=0.5)),
        (SPEC4, 16.0, dict(g=0.0, nu=0.5)),
        (LatticeSpec.torus(4, 6), 4.0, {}),
        (LatticeSpec.torus(1, 3), 6.0, dict(g=0.3, nu=-0.2)),
    ], ids=["window-I", "laplace", "laplace-g0", "torus(4,6)", "torus(1,3)"])
    def test_bits_independent_of_part_size(self, monkeypatch, spec, T, kw):
        ref = _block_intersections(spec, T, block_rng(5, 1), 600, **kw)
        for part in (1, 7, 100, 10**9):   # 1: one walk a part; 10**9: one part
            monkeypatch.setattr(walk_mc, "_PART_VISITS", part)
            vals = _block_intersections(spec, T, block_rng(5, 1), 600, **kw)
            assert vals.tobytes() == ref.tobytes(), part

    def test_bits_independent_of_part_size_long_horizon(self, monkeypatch):
        # T = 1500: the step-count digit base overflows the key, so each
        # part takes its base from its coordinate range
        ref = _block_intersections(SPEC4, 1500.0, block_rng(2, 0), 10)
        for part in (1, 3):
            monkeypatch.setattr(walk_mc, "_PART_VISITS", part)
            vals = _block_intersections(SPEC4, 1500.0, block_rng(2, 0), 10)
            assert vals.tobytes() == ref.tobytes(), part

    @pytest.mark.parametrize("T,kw", [
        (1.0, {}), (16.0, dict(g=0.1, nu=0.5)), (16.0, dict(g=0.0, nu=0.5)),
    ], ids=["T1", "laplace-T16", "laplace-g0-T16"])
    @pytest.mark.parametrize("part", [1, 100, walk_mc._PART_VISITS])
    def test_parts_bounded_by_visits(self, monkeypatch, part, T, kw):
        # every walk of a part but its first ends inside one window of
        # _PART_VISITS visits: a part holds at most that many visits plus
        # one walk, and no more parts are cut than the windows there are
        calls, kernel = [], walk_mc._walk_values

        def recording(spec, T, g, nu, N, *draws, **buffers):
            calls.append(N.copy())
            return kernel(spec, T, g, nu, N, *draws, **buffers)

        monkeypatch.setattr(walk_mc, "_PART_VISITS", part)
        monkeypatch.setattr(walk_mc, "_walk_values", recording)
        vals = _block_intersections(SPEC4, T, block_rng(5, 1), 2000, **kw)
        N = np.concatenate(calls)
        assert vals.size == N.size == 2000
        assert all((Np[1:] + 1).sum() < part for Np in calls)
        assert len(calls) <= (N + 1).sum() // part + 1

    def test_peak_memory_bounded(self):
        # 16.7 MiB with 512 walks a part at T_max = 16; 6.4 MiB by visits.
        # The first call imports scipy.special, which is not the kernel's
        susceptibility_mc(SPEC4, 0.1, 0.5, T_max=16.0, n=2, seed=1)
        tracemalloc.start()
        try:
            susceptibility_mc(SPEC4, 0.1, 0.5, T_max=16.0, n=2000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_straight_walks_keep_their_sites(self):
        # a window coordinate can reach the longest walk's step count, which
        # the digit base must bound: +e_1 twice, then -e_1 twice, each walk
        # on three sites of its own
        vals = walk_mc._walk_values(LatticeSpec.window(1), 1.0, 0.0, None,
                                    np.array([2, 2]),
                                    np.array([0.25, 0.5, 0.25, 0.5]),
                                    np.array([0, 0, 1, 1]))
        assert vals.tolist() == [0.375, 0.375]

    def test_key_overflow_raises(self):
        # even one walk's sites on a torus of period 2**40 do not fit: a
        # user error naming d, T and the period
        with pytest.raises(ValueError, match="site key would overflow int64 "
                           r"at d = 2, T = 3.0, period = 1099511627776"):
            _block_intersections(LatticeSpec.torus(2, 2**40), 3.0,
                                 block_rng(1, 0), 1)


class TestHorizonReach:
    """Long horizons, where the packed site key is widest; values frozen
    bit for bit."""

    def test_estimate_cT_long_horizon(self):
        e = estimate_cT(SPEC4, 0.1, 100.0, n=2, seed=3)
        assert (e.mean, e.std_error) == (0.04249317568571182,
                                         0.00436845138003665)

    def test_mean_intersection_one_dimension(self):
        e = estimate_mean_intersection(LatticeSpec.window(1), 2000.0, n=2,
                                       seed=3)
        assert (e.mean, e.std_error) == (71677.57050359066,
                                         25123.075238239173)

    @pytest.mark.parametrize("spec,T,nblock,expected", [
        (SPEC4, 4000.0, 1, [1243.7503226173023]),
        (SPEC4, 1e5, 1, [31018.324628695333]),
        (LatticeSpec.torus(1, 2**55), 100.0, 4,
         [659.36096729012, 666.5026202096644, 702.8698746881807,
          746.7171193512687]),
    ], ids=["window-4000", "window-1e5", "torus-2**55"])
    def test_block_values(self, spec, T, nblock, expected):
        # the last two site keys leave no room for the visit index, so
        # their visits are grouped by a stable sort
        vals = _block_intersections(spec, T, block_rng(1, 0), nblock)
        assert vals.tolist() == expected

    def test_susceptibility_long_horizon(self):
        e = susceptibility_mc(SPEC4, 0.1, 0.5, T_max=64.0, n=2, seed=3)
        assert (e.mean, e.std_error) == (1.9123511044724986,
                                         0.0008228067112565629)


def local_time_oracle(spec, T, rng, nblock):
    """Each walk's I(T) = sum_x L_x^2, its local times summed in a dict.

    Redraws the block sampler's walks from its stream (jump counts, jump
    times, directions), as :func:`interval_quad_oracle` does, and adds each
    residence interval to the local time of its site, one by one.
    """
    d = spec.d
    N = rng.poisson(2 * d * T, size=nblock)
    times = rng.random(int(N.sum())) * T
    dirs = rng.integers(0, 2 * d, size=int(N.sum()))
    values, k = [], 0
    for n in N:
        pos, site, L = [0] * d, (0,) * d, {}
        bounds = [0.0, *np.sort(times[k:k + n]), T]
        for j, (s, e) in enumerate(zip(bounds[:-1], bounds[1:])):
            if j:
                dr = dirs[k + j - 1]
                pos[dr >> 1] += 1 - 2 * (dr & 1)
                site = tuple(p % spec.period for p in pos) if spec.period \
                    else tuple(pos)
            L[site] = L.get(site, 0.0) + (e - s)
        k += n
        values.append(sum(v * v for v in L.values()))
    return np.array(values), N


class TestLocalTimeOracle:
    """The block sampler's I(T) against a dict of local times, walk by walk:
    windows and tori, the cumsum and the coordinate site codes, the stable
    sort, and blocks with zero-jump walks."""

    @pytest.mark.parametrize("spec", [
        LatticeSpec.window(1), LatticeSpec.window(2), LatticeSpec.window(3),
        SPEC4, LatticeSpec.window(5), LatticeSpec.window(9),
        LatticeSpec.torus(1, 3), LatticeSpec.torus(2, 4),
        LatticeSpec.torus(3, 6), LatticeSpec.torus(4, 3),
    ], ids=lambda s: f"{s.geometry}(d={s.d}, period={s.period})")
    @pytest.mark.parametrize("T", [0.05, 3.0])
    def test_block_matches_dict(self, spec, T):
        vals = _block_intersections(spec, T, block_rng(12, 3), 200)
        oracle, N = local_time_oracle(spec, T, block_rng(12, 3), 200)
        if T < 0.1:   # walks that never jump, valued T^2 with no jump array
            assert (N == 0).sum() > 50
        assert vals == pytest.approx(oracle, rel=1e-13, abs=0)

    @pytest.mark.parametrize("spec,T,nblock", [
        (SPEC4, 300.0, 3),                        # coordinate-range base
        (LatticeSpec.torus(2, 2**28), 10.0, 4),   # no room: stable sort
        (LatticeSpec.window(2), 1e-3, 5),         # no walk jumps at all
    ], ids=["window-long", "torus-wide", "no-jumps"])
    def test_wide_keys_match_dict(self, spec, T, nblock):
        vals = _block_intersections(spec, T, block_rng(12, 4), nblock)
        oracle, _ = local_time_oracle(spec, T, block_rng(12, 4), nblock)
        assert vals == pytest.approx(oracle, rel=1e-13, abs=0)


class TestKernelBits:
    """sha256 of ``_block_intersections(...).tobytes()``, recorded before the
    kernel ran on jump-indexed arrays: every path keeps its bits."""

    CASES = {
        "window4-T2": (SPEC4, 2.0, BLOCK_SIZE, {}),
        "window4-T16": (SPEC4, 16.0, BLOCK_SIZE, {}),
        "torus(4,6)": (LatticeSpec.torus(4, 6), 4.0, 600, {}),
        "laplace": (SPEC4, 16.0, 600, dict(g=0.1, nu=0.5)),
        "laplace-g0": (SPEC4, 16.0, 600, dict(g=0.0, nu=0.5)),
        "torus(1,3)-nu<0": (LatticeSpec.torus(1, 3), 6.0, 600,
                            dict(g=0.3, nu=-0.2)),
        "window9-T16": (LatticeSpec.window(9), 16.0, 600, {}),
        "stable-sort": (LatticeSpec.torus(2, 2**28), 10.0, 4, {}),
    }
    SHA256 = {
        "window4-T2": "8bebc35b40511953ca4eccdc93cd3deaca8be769a789bd98a2209d16904f7984",
        "window4-T16": "f656cfe09fb8ce208ce781f6398c1ca0596f92519ed88217fc179b3602976669",
        "torus(4,6)": "bb5fff85660a047d271f690819d7008ae9c5647fdafb86b299d0826324f4f871",
        "laplace": "4ba77feba32bf1dc7a20f8fef2c3ef4160ecba04abbeeb58d69e66d63f3cb282",
        "laplace-g0": "aceb4beecc07b1b59ced527306b694ea9c4958214eee3cbf85a9159f4564440b",
        "torus(1,3)-nu<0": "c3d892f0fb51e5a2ad35a70e43b78ec5cd69dbf8e86f6592d6a86de4c02f2e3a",
        "window9-T16": "03c58f610a3267ae042a491f9effe06f62dd880f8e36d397561534dc9fc62e31",
        "stable-sort": "24aadbff060017b115adaa17de4f436e849525bd2397c69a4c586cfd1e77f4c2",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bits(self, case):
        spec, T, nblock, kw = self.CASES[case]
        vals = _block_intersections(spec, T, block_rng(31, 1), nblock, **kw)
        assert hashlib.sha256(vals.tobytes()).hexdigest() == self.SHA256[case]

    def test_stable_sort_case_sorts_stably(self, monkeypatch):
        kinds, argsort = [], np.argsort

        def recording(a, kind=None):
            kinds.append(kind)
            return argsort(a, kind=kind)

        monkeypatch.setattr(np, "argsort", recording)
        spec, T, nblock, kw = self.CASES["stable-sort"]
        _block_intersections(spec, T, block_rng(31, 1), nblock, **kw)
        assert kinds == ["stable"]


class TestDrawBudgetMeasured:
    """The tracemalloc peak of a block stays below the bytes _check_draw
    estimates for it, so a kernel that holds more per visit fails here
    before _VISIT_BYTES goes stale (0.33-0.93 of the estimate when set)."""

    @pytest.mark.parametrize("spec,T,nblock,kw", [
        (SPEC4, 64.0, BLOCK_SIZE, {}),
        (LatticeSpec.window(9), 16.0, BLOCK_SIZE, {}),
        (SPEC4, 16.0, 2000, dict(g=0.1, nu=0.5)),
        (SPEC4, 1e5, 1, {}),
    ], ids=["4096-T64", "4096-d9-T16", "laplace-2000-T16", "one-T1e5"])
    def test_peak_below_estimate(self, spec, T, nblock, kw):
        # a first small block imports scipy.special, which is not the kernel's
        _block_intersections(spec, 1.0, block_rng(1, 0), 2, **kw)
        tracemalloc.start()
        try:
            _block_intersections(spec, T, block_rng(1, 0), nblock, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < walk_mc._check_draw(spec, T, nblock)


class TestDrawBudgetReach:
    """Blocks past the T = 1009 that held a block's draws whole, and the
    tracemalloc peaks of two estimator passes, guarded at about 1.4 times
    their measured 2.9 and 2.2 MiB (7.4 and 6.5 MiB with whole draws)."""

    def test_estimate_cT_4096_walks_past_T1009(self):
        tracemalloc.start()
        try:
            e = estimate_cT(SPEC4, 0.1, 1500.0, BLOCK_SIZE, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert e.n_samples == BLOCK_SIZE and 0.0 < e.mean < 1e-15
        assert peak < walk_mc._check_draw(SPEC4, 1500.0, BLOCK_SIZE)

    @pytest.mark.parametrize("call,mib", [
        (lambda: jensen_bound_check(0.2, 5.0, 100_000, seed=1), 4.0),
        (lambda: susceptibility_mc(SPEC4, 0.1, 0.5, 16.0, 2000), 3.0),
    ], ids=["jensen", "readme-chi"])
    def test_estimator_peak_guarded(self, call, mib):
        # a first small pass imports scipy.special, which is not the kernel's
        susceptibility_mc(SPEC4, 0.1, 0.5, 1.0, 2)
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20


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


class TestWorkerCount:
    """Blocks valued on 1, 2 or 3 threads give the same bits: each block
    keeps its own stream, and the results merge in block order."""

    N = 2 * BLOCK_SIZE + 1000  # three blocks, the last partial
    TORUS = LatticeSpec.torus(4, 4)

    CASES = {
        "cT-window": lambda n: estimate_cT(SPEC4, 0.1, 1.0, n, seed=3),
        "cT-torus": lambda n: estimate_cT(TestWorkerCount.TORUS, 0.2, 1.0, n,
                                          seed=8),
        "mean-I-window": lambda n: estimate_mean_intersection(SPEC4, 1.0, n,
                                                              seed=4),
        "mean-I-torus": lambda n: estimate_mean_intersection(
            TestWorkerCount.TORUS, 1.0, n, seed=4),
        "jensen": lambda n: jensen_bound_check(0.2, 1.0, n, seed=21),
        "chi-window": lambda n: susceptibility_mc(SPEC4, 0.1, 0.5, 4.0, n,
                                                  seed=1),
        "chi-window-g0": lambda n: susceptibility_mc(SPEC4, 0.0, 0.5, 4.0, n,
                                                     seed=1),
        "chi-torus": lambda n: susceptibility_mc(LatticeSpec.torus(1, 3), 0.3,
                                                 -0.2, 4.0, n, seed=5),
        "chi-torus-g0": lambda n: susceptibility_mc(TestWorkerCount.TORUS, 0.0,
                                                    0.5, 4.0, n, seed=5),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bits_independent_of_worker_count(self, monkeypatch, case):
        out = []
        for k in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, k=k: set(range(k)))
            out.append(self.CASES[case](self.N))
        assert out[0] == out[1] == out[2]

    def test_no_affinity_mask(self, monkeypatch):
        # platforms without sched_getaffinity count cores with cpu_count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = self.CASES["cT-window"](self.N)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert walk_mc._cores() == 3
        assert self.CASES["cT-window"](self.N) == serial
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert walk_mc._cores() == 1


class TestBlockPool:
    """The thread pool of the walk stream: errors surface, an early stop
    cancels what is pending, no thread outlives a call, and every stream is
    made on the calling thread."""

    @pytest.fixture(autouse=True)
    def threads_joined(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        baseline = threading.active_count()
        yield
        assert threading.active_count() == baseline

    @pytest.fixture
    def kernel_threads(self, monkeypatch):
        idents, kernel = [], walk_mc._block_intersections

        def recording(spec, T, rng, nblock, **kw):
            idents.append(threading.get_ident())
            return kernel(spec, T, rng, nblock, **kw)

        monkeypatch.setattr(walk_mc, "_block_intersections", recording)
        return idents

    def test_site_key_overflow_surfaces(self):
        with pytest.raises(ValueError, match="site key would overflow"):
            estimate_mean_intersection(LatticeSpec.torus(2, 2**40), 3.0,
                                       3 * BLOCK_SIZE, seed=1)

    def test_error_in_last_block_surfaces(self, monkeypatch):
        kernel = walk_mc._block_intersections

        def failing(spec, T, rng, nblock, **kw):
            if nblock < BLOCK_SIZE:
                raise RuntimeError("last block failed")
            return kernel(spec, T, rng, nblock, **kw)

        monkeypatch.setattr(walk_mc, "_block_intersections", failing)
        with pytest.raises(RuntimeError, match="last block failed"):
            estimate_cT(SPEC4, 0.1, 1.0, 4 * BLOCK_SIZE + 5, seed=2)

    def test_early_close_cancels_pending(self, kernel_threads):
        stream = _walk_stream(SPEC4, 1.0, 20 * BLOCK_SIZE, seed=3)
        first = next(stream)
        stream.close()
        assert first.shape == (BLOCK_SIZE,)
        assert len(kernel_threads) <= 3  # workers + 1 blocks in flight

    def test_streams_made_on_calling_thread(self, monkeypatch, kernel_threads):
        rng_threads = []

        def recording(seed, block_index):
            rng_threads.append(threading.get_ident())
            return block_rng(seed, block_index)

        monkeypatch.setattr(walk_mc, "block_rng", recording)
        e = susceptibility_mc(SPEC4, 0.1, 0.5, 2.0, 5 * BLOCK_SIZE, seed=4)
        assert e.n_samples == 5 * BLOCK_SIZE
        assert rng_threads == [threading.get_ident()] * 5
        assert threading.get_ident() not in kernel_threads  # a pool ran them

    def test_one_block_starts_no_thread(self, kernel_threads):
        estimate_cT(SPEC4, 0.1, 1.0, BLOCK_SIZE, seed=5)
        assert kernel_threads == [threading.get_ident()]
