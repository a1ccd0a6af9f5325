"""Walk Monte Carlo: pathwise identities, estimator laws, enumeration.

Oracles: exact identities on the 1-site torus (I(T) = T^2), the closed
form 2T^2/(n+2) for the conditioned intersection time, the exact Laplace
transform 1/nu at g = 0, a brute-force product-space enumeration of
self-avoiding walks, and the Green constant from the quadrature module.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    def test_connective_constant_bracket(self):
        counts = saw_counts(2, 10)
        mu = counts[-1] ** (1.0 / 10.0)
        assert 2.0 <= mu <= 3.0  # [d, 2d-1] at d = 2

    def test_budget_guard(self):
        # the pure-Python enumeration grows about (2d-1)-fold per step; the
        # largest allowed call at each d takes a few seconds
        for d, budget in ((2, 13), (3, 9), (4, 7)):
            with pytest.raises(ValueError, match="budget"):
                saw_counts(d, budget + 1)


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


class TestBlockStream:
    HORIZONS = [1.0, 2.5, 4.0]

    def test_last_horizon_is_the_single_horizon_call(self):
        for spec in (SPEC4, LatticeSpec.torus(4, 4)):
            for b in (0, 1):
                multi = _block_intersections(spec, self.HORIZONS,
                                             block_rng(5, b), 300)
                single = _block_intersections(spec, [4.0], block_rng(5, b), 300)
                assert multi.shape == (3, 300)
                assert np.array_equal(multi[-1], single[0])

    def test_nondecreasing_in_horizon(self):
        I = _block_intersections(SPEC4, self.HORIZONS, block_rng(6, 0), 500)
        assert np.all(np.diff(I, axis=0) >= 0.0)

    def test_zero_horizon_gives_zero(self):
        I = _block_intersections(SPEC4, [0.0, 2.0], block_rng(7, 0), 200)
        assert np.all(I[0] == 0.0) and np.all(I[1] > 0.0)

    def test_one_site_torus_every_horizon(self):
        # every walk stays on the single site, so I(t) = t^2 exactly
        ts = [0.0, 0.5, 1.5, 3.0]
        I = _block_intersections(LatticeSpec.torus(4, 1), ts, block_rng(8, 0), 50)
        for row, t in zip(I, ts):
            assert row == pytest.approx(np.full(50, t * t), rel=1e-12, abs=0)

    def test_earlier_horizon_has_the_law_of_a_shorter_walk(self):
        # the clock restricted to [0, t] is the clock on [0, t]
        n = 3 * BLOCK_SIZE
        I = np.concatenate([_block_intersections(SPEC4, [1.0, 4.0],
                                                 block_rng(9, b), BLOCK_SIZE)[0]
                            for b in range(3)])
        direct = estimate_mean_intersection(SPEC4, 1.0, n, seed=10)
        se = math.hypot(I.std() / math.sqrt(n), direct.std_error)
        assert abs(I.mean() - direct.mean) < 4.0 * se


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

    @pytest.mark.parametrize("n", [1, BLOCK_SIZE, BLOCK_SIZE + 10])
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
