"""Grassmann algebra, Berezin integration, and supersymmetry identities.

Oracles: closed-form Gaussian integrals, exact matrix inverses (free-field
two-point), the one-dimensional walk-side quadrature
int_0^inf exp(-g T^2 - nu T) dT, exact Wick contractions, np.linalg.det
for the determinant route's principal-minor expansion, and the mutual
agreement of the symbolic-fermion and determinant routes.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfcx

from wsaw4 import grassmann
from wsaw4.grassmann import (
    FermionBasis,
    FieldPolynomial,
    GrassmannForm,
    berezin_integral,
    convolution_identity_check,
    exp_even_form,
    gaussian_convolve_poly,
    integrate_fluctuation,
    phi_poly,
    phibar_poly,
    psi,
    psibar,
    self_normalisation_value,
    super_expectation,
    tau_delta_form,
    tau_form,
    tau_squared_form,
    theta_map,
    two_point_integral,
    wedge_product,
)

PATH2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
TRIANGLE = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
TORUS2 = np.array([[2.0, -2.0], [-2.0, 2.0]])  # 2-periodic folding: doubled edge


def poly_terms(form):
    return {k: dict(c.terms) for k, c in form.coeffs.items()
            if isinstance(c, FieldPolynomial)}


class TestAlgebra:
    def test_psi_squares_to_zero(self):
        b = FermionBasis(2)
        assert not wedge_product(psi(b, 0), psi(b, 0)).coeffs
        assert not wedge_product(psibar(b, 1), psibar(b, 1)).coeffs

    def test_anticommutation(self):
        b = FermionBasis(2)
        pts = np.array([[0.1 + 0.2j, -0.4j]])
        ab = wedge_product(psi(b, 0), psibar(b, 1))
        ba = wedge_product(psibar(b, 1), psi(b, 0))
        va = ab.coeffs[(1, 2)].evaluate(pts, np.conj(pts))
        vb = ba.coeffs[(1, 2)].evaluate(pts, np.conj(pts))
        assert va == -vb

    def test_reordering_is_idempotent(self):
        # wedging three generators in two different orders differs by the
        # permutation parity, twice-swapped returns identically
        b = FermionBasis(3)
        f1 = wedge_product(wedge_product(psi(b, 2), psi(b, 0)), psibar(b, 1))
        f2 = wedge_product(wedge_product(psi(b, 0), psi(b, 2)), psibar(b, 1))
        pts = np.zeros((1, 3), dtype=complex)
        v1 = f1.coeffs[(5, 2)].evaluate(pts, pts)
        v2 = f2.coeffs[(5, 2)].evaluate(pts, pts)
        assert v1 == -v2

    def test_tau_squared_expansion(self):
        b = FermionBasis(1)
        terms = poly_terms(tau_squared_form(b, 0))
        assert terms[(0, 0)] == {((2,), (2,)): (1 + 0j)}  # |phi|^4
        assert terms[(1, 1)] == {((1,), (1,)): (2 + 0j)}  # 2|phi|^2

    def test_even_product_stays_even(self):
        b = FermionBasis(2)
        F = tau_form(b, 0)
        G = tau_form(b, 1)
        assert wedge_product(F, G).parity() == "even"

    def test_function_of_forms_terminates(self):
        b = FermionBasis(1)
        # exp(-tau) = e^{-|phi|^2} (1 - psi psibar) on one site: the series
        # is 1 - psi psibar, and the omitted scalar factor is e^{F0} with
        # F0 = -|phi|^2
        F = tau_form(b, 0) * -1.0
        assert poly_terms(exp_even_form(F)) == {
            (0, 0): {((0,), (0,)): (1 + 0j)},
            (1, 1): {((0,), (0,)): (-1 + 0j)}}
        assert F.degree0().terms == {((1,), (1,)): (-1 + 0j)}

    def test_exp_times_exp_inverse(self):
        b = FermionBasis(2)
        N = tau_form(b, 0) + tau_form(b, 1) * 0.5
        e_plus = exp_even_form(N)
        e_minus = exp_even_form(N * -1.0)
        prod = wedge_product(e_plus, e_minus)
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        pb = np.conj(pts)
        assert np.allclose(prod.coeffs[(0, 0)].evaluate(pts, pb), 1.0,
                           atol=1e-12)
        for key, c in prod.coeffs.items():
            if key != (0, 0):
                assert np.max(np.abs(c.evaluate(pts, pb))) < 1e-12

    def test_odd_exp_rejected(self):
        b = FermionBasis(1)
        with pytest.raises(ValueError):
            exp_even_form(psi(b, 0))


def random_form(rng, M, parity, terms=6):
    """Sum of random monomials of fermion degree ``parity`` mod 2 with
    random complex coefficients of boson degree <= 2 per field."""
    out = {}
    while len(out) < terms:
        a, b = (int(m) for m in rng.integers(1 << M, size=2))
        if (a.bit_count() + b.bit_count()) % 2 == parity:
            exps = tuple(tuple(int(e) for e in rng.integers(0, 3, M))
                         for _ in range(2))
            c = complex(*rng.normal(size=2))
            out[(a, b)] = FieldPolynomial(M, {exps: c})
    return GrassmannForm(FermionBasis(M), out)


def max_gap(F, G):
    """Largest coefficient of the polynomial coefficients of F - G."""
    return max((abs(v) for c in (F - G).coeffs.values()
                for v in c.terms.values()), default=0.0)


class TestRules:
    """The fermion derivative and the theta shift, by their properties."""

    @pytest.mark.parametrize("bar", [False, True])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_fermion_derivative_leibniz(self, bar, parity):
        # d_x (F G) = d_x F G + (-1)^{deg F} F d_x G
        rng = np.random.default_rng(31 + 2 * parity + bar)
        for _ in range(5):
            F = random_form(rng, 3, parity)
            G = random_form(rng, 3, int(rng.integers(2)))
            for x in range(3):
                dF, dG, dFG = (grassmann._dfermion(H, x, bar)
                               for H in (F, G, wedge_product(F, G)))
                rhs = wedge_product(dF, G) \
                    + wedge_product(F, dG) * (-1.0) ** parity
                assert max_gap(dFG, rhs) <= 1e-12

    def test_fermion_derivative_of_generators(self):
        # d/dpsi_x psi_y = delta_xy, and psibar likewise; the other kind
        # is a constant
        b = FermionBasis(2)
        one = GrassmannForm.from_scalar(b, 1.0)
        for x, y in itertools.product(range(2), repeat=2):
            for gen, bar in ((psi, False), (psibar, True)):
                d = grassmann._dfermion(gen(b, y), x, bar)
                assert max_gap(d, one * float(x == y)) == 0.0
                assert not grassmann._dfermion(gen(b, y), x, not bar).coeffs

    def test_shift_is_substitution(self):
        # theta F at (phi, xi): the monomials in the original fermions
        # alone, or in the fluctuation fermions alone, carry F's
        # coefficient at phi + xi
        rng = np.random.default_rng(17)
        M = 2
        for parity in (0, 1):
            F = random_form(rng, M, parity)
            T = theta_map(F)
            phi, xi = (rng.normal(size=(4, M)) + 1j * rng.normal(size=(4, M))
                       for _ in range(2))
            both = np.concatenate([phi, xi], axis=1)
            for (a, b), c in F.coeffs.items():
                ref = c.evaluate(phi + xi, np.conj(phi + xi))
                for key in ((a, b), (a << M, b << M)):
                    got = T.coeffs[key].evaluate(both, np.conj(both))
                    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(
                        np.abs(ref))

    def test_shift_is_multiplicative(self):
        # theta (F G) = theta F theta G: the mixed monomials' signs agree
        rng = np.random.default_rng(23)
        for pf, pg in itertools.product((0, 1), repeat=2):
            F, G = random_form(rng, 2, pf, 4), random_form(rng, 2, pg, 4)
            lhs = theta_map(wedge_product(F, G))
            rhs = wedge_product(theta_map(F), theta_map(G))
            assert max_gap(lhs, rhs) <= 1e-12


class TestBerezin:
    def test_gaussian_normalisation(self):
        # int e^{-a|phi|^2} psibar psi = 1/a per site
        b = FermionBasis(2)
        vol = wedge_product(wedge_product(psibar(b, 0), psi(b, 0)),
                            wedge_product(psibar(b, 1), psi(b, 1)))
        a0, a1 = 1.3, 0.6
        W = tau_form(b, 0).degree0() * a0 + tau_form(b, 1).degree0() * a1
        val = berezin_integral(vol, exponent=W, radial_nodes=64,
                               angle_nodes=8, r_max=10.0)
        assert val.real == pytest.approx(1.0 / (a0 * a1), rel=1e-10)
        assert abs(val.imag) < 1e-12

    def test_volume_order_immaterial(self):
        # each psibar_x psi_x factor is even: any site order integrates alike
        b = FermionBasis(3)
        W = sum(tau_form(b, x).degree0() for x in range(3))  # sum |phi_x|^2
        vals = []
        for order in itertools.permutations(range(3)):
            vol = GrassmannForm.from_scalar(b, 1.0)
            for x in order:
                vol = wedge_product(vol, wedge_product(psibar(b, x), psi(b, x)))
            vals.append(berezin_integral(vol, exponent=W, radial_nodes=40,
                                         angle_nodes=8, r_max=8.0))
        assert np.allclose(vals, vals[0], rtol=1e-12)

    @pytest.mark.parametrize("M", range(1, 9))
    def test_volume_sign_is_inversion_parity(self, M):
        # psi_x -> x, psibar_x -> M + x: the volume order (psibar_0 psi_0)
        # (psibar_1 psi_1)... as a permutation of canonical positions
        order = [g for x in range(M) for g in (M + x, x)]
        inversions = sum(a > b for a, b in itertools.combinations(order, 2))
        assert grassmann._volume_reorder_sign(M) == (-1) ** inversions

    def test_lower_degree_integrates_to_zero(self):
        b = FermionBasis(2)
        F = wedge_product(psibar(b, 0), psi(b, 0))  # degree 2 of 4
        W = FieldPolynomial.constant(2, 0.0)  # unit weight
        assert berezin_integral(F, exponent=W, r_max=4.0) == 0

    def test_non_invariant_top_not_phase_reduced(self):
        # |phi_0|^2 phi_0 changes with the global phase, so its integral is 0;
        # fixing site 0's phase would give -1.329
        b = FermionBasis(2)
        top = FieldPolynomial(2, {((2, 0), (1, 0)): 1.0})
        F = GrassmannForm(b, {(b.full_mask, b.full_mask): top})
        W = tau_form(b, 0).degree0() + tau_form(b, 1).degree0()
        assert abs(berezin_integral(F, exponent=W, r_max=7.0)) <= 1e-12


def loop_evaluate(P, phi, phibar):
    """Term-by-term, site-by-site evaluation: the oracle for the tables."""
    out = np.zeros(phi.shape[0], dtype=complex)
    for (a, b), c in P.terms.items():
        term = np.full(phi.shape[0], c, dtype=complex)
        for x in range(P.M):
            term = term * phi[:, x] ** a[x] * phibar[:, x] ** b[x]
        out += term
    return out


def random_polynomial(rng, M, n_terms=8, max_degree=6):
    terms = {}
    for _ in range(n_terms):
        deg = rng.integers(0, max_degree + 1)
        e = np.zeros(2 * M, dtype=int)
        np.add.at(e, rng.integers(0, 2 * M, size=deg), 1)
        key = (tuple(int(v) for v in e[:M]), tuple(int(v) for v in e[M:]))
        terms[key] = complex(rng.normal(), rng.normal())
    return FieldPolynomial(M, terms)


def u1_part(P):
    """The U(1)-invariant terms of P: as many phi as phibar factors."""
    return FieldPolynomial(P.M, {(a, b): c for (a, b), c in P.terms.items()
                                 if sum(a) == sum(b)})


def hermitian_part(P):
    """(P + conj(P))/2: the coefficient of (a, b) pairs with (b, a)."""
    terms = {}
    for (a, b), c in P.terms.items():
        terms[(a, b)] = terms.get((a, b), 0) + 0.5 * c
        terms[(b, a)] = terms.get((b, a), 0) + 0.5 * np.conj(c)
    return FieldPolynomial(P.M, terms)


def grid_points(monkeypatch):
    """A list that receives the point count of every grid the integrators
    build."""
    points, axes_of = [], grassmann._boson_axes

    def recording(*args):
        axes = axes_of(*args)
        points.append(math.prod(len(v) for v, _ in axes))
        return axes

    monkeypatch.setattr(grassmann, "_boson_axes", recording)
    return points


def boson_grid(M, *, radial_nodes, angle_nodes, r_max, reduce_u1):
    """The full tensor polar grid over C^M as ``(phi, weights)``: phi has
    shape (npts, M) and the weights integrate du dv per site.  With
    reduce_u1 site 0's phase is fixed (weight 2 pi), the grid that
    berezin_integral takes for an invariant integrand; the oracle always
    has the full grid, where the integrator sums half of it when W has real
    coefficients."""
    axes = grassmann._boson_axes(M, radial_nodes, angle_nodes, r_max,
                                 reduce_u1)
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    phi = np.stack([g.ravel() for g in grids], axis=-1)
    return phi, math.prod(wg.ravel() for wg in wgrids)


class TestTableEvaluator:
    GRID = dict(radial_nodes=5, angle_nodes=4, r_max=1.5)

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("reduce_u1", [False, True])
    def test_grid_values_match_loop(self, M, reduce_u1):
        rng = np.random.default_rng(10 * M + reduce_u1)
        P = random_polynomial(rng, M)
        axes = grassmann._boson_axes(M, self.GRID["radial_nodes"],
                                     self.GRID["angle_nodes"],
                                     self.GRID["r_max"], reduce_u1)
        groups = grassmann._axis_groups(axes)

        def grid_values(poly):
            c, tables = grassmann._term_tables(poly, groups)
            return c @ grassmann._outer(tables)

        vals = grid_values(P)
        phi, _ = boson_grid(M, reduce_u1=reduce_u1, **self.GRID)
        ref = loop_evaluate(P, phi, np.conj(phi))
        assert np.max(np.abs(vals - ref)) <= 1e-13 * np.max(np.abs(ref))
        zero = grid_values(FieldPolynomial(M))
        assert zero.shape == vals.shape and not zero.any()

    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_flat_points_match_loop(self, M):
        # one group; phibar is not tied to phi
        rng = np.random.default_rng(M)
        P = random_polynomial(rng, M)
        phi, phibar = (rng.normal(size=(2, 7, M))
                       + 1j * rng.normal(size=(2, 7, M)))
        ref = loop_evaluate(P, phi, phibar)
        vals = P.evaluate(phi, phibar)
        assert np.max(np.abs(vals - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert P.evaluate(phi[:1].reshape(1, 1, M),
                          phibar[:1].reshape(1, 1, M)).shape == (1, 1)

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("invariant", [False, True])
    def test_integral_matches_loop(self, M, invariant, monkeypatch):
        # top coefficient times exp(-W), W real, summed over the grid that
        # the integrand picks: site 0's phase is fixed iff both are invariant
        rng = np.random.default_rng(100 + 10 * M + invariant)
        P = random_polynomial(rng, M, n_terms=40 if invariant else 8)
        W = hermitian_part(random_polynomial(rng, M, max_degree=4))
        if invariant:
            P, W = u1_part(P), u1_part(W)
            assert P.terms and W.terms
        assert (grassmann._u1_invariant(P)
                and grassmann._u1_invariant(W)) == invariant
        b = FermionBasis(M)
        F = GrassmannForm(b, {(b.full_mask, b.full_mask): P})
        points = grid_points(monkeypatch)
        val = berezin_integral(F, exponent=W, **self.GRID)
        (n,) = points
        phi, w = boson_grid(M, reduce_u1=invariant, **self.GRID)
        if not grassmann._real_coefficients(W):  # the full grid, never folded
            assert n == len(phi)
        pb = np.conj(phi)
        terms = w * loop_evaluate(P, phi, pb) \
            * np.exp(-loop_evaluate(W, phi, pb).real)
        ref = grassmann._volume_reorder_sign(M) * math.pi**-M * terms.sum()
        scale = math.pi**-M * np.abs(terms).sum()
        assert abs(val - ref) <= 1e-13 * scale

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("invariant", [False, True])
    @pytest.mark.parametrize("angle_nodes", [4, 5])
    def test_folded_integral_matches_loop(self, M, invariant, angle_nodes,
                                          monkeypatch):
        # W with real coefficients: the sum over one point of each conjugate
        # pair, doubled in its real part, against the full grid's loop, for
        # a complex top coefficient; at 5 angles the theta = pi node is its
        # own partner, and on one invariant site no axis has angles
        rng = np.random.default_rng(200 + 10 * M + invariant + angle_nodes)
        P = random_polynomial(rng, M, n_terms=40 if invariant else 8)
        W = random_polynomial(rng, M, max_degree=4)
        W = hermitian_part(FieldPolynomial(M, {k: c.real
                                               for k, c in W.terms.items()}))
        if invariant:
            P, W = u1_part(P), u1_part(W)
            assert P.terms and W.terms
        assert grassmann._real_coefficients(W)
        grid = dict(self.GRID, angle_nodes=angle_nodes)
        b = FermionBasis(M)
        F = GrassmannForm(b, {(b.full_mask, b.full_mask): P})
        points = grid_points(monkeypatch)
        val = berezin_integral(F, exponent=W, **grid)
        (n,) = points
        phi, w = boson_grid(M, reduce_u1=invariant, **grid)
        if M > invariant:  # the first angular axis keeps (n + 1) // 2 angles
            assert n == len(phi) // angle_nodes * ((angle_nodes + 1) // 2)
        else:
            assert n == len(phi)
        pb = np.conj(phi)
        terms = w * loop_evaluate(P, phi, pb) \
            * np.exp(-loop_evaluate(W, phi, pb).real)
        ref = grassmann._volume_reorder_sign(M) * math.pi**-M * terms.sum()
        scale = math.pi**-M * np.abs(terms).sum()
        assert abs(val - ref) <= 1e-13 * scale

    def test_non_hermitian_exponent_rejected(self):
        b = FermionBasis(2)
        vol = GrassmannForm(b, {(3, 3): FieldPolynomial.constant(2, 1.0)})
        # c phi_0 phibar_1 without its partner conj(c) phi_1 phibar_0
        W = FieldPolynomial(2, {((1, 0), (0, 1)): 0.3 + 0.1j})
        with pytest.raises(ValueError, match="not real-valued"):
            berezin_integral(vol, exponent=W, r_max=4.0)
        # with the partner it is accepted
        W = W + FieldPolynomial(2, {((0, 1), (1, 0)): 0.3 - 0.1j})
        berezin_integral(vol, exponent=W + tau_form(b, 0).degree0()
                         + tau_form(b, 1).degree0(), radial_nodes=8,
                         angle_nodes=4, r_max=4.0)


class TestChunkSize:
    """The Berezin sum does not depend on how the grid is chunked."""

    CASES = {
        "triangle self-normalisation": lambda: self_normalisation_value(
            TRIANGLE, [0.4, 0.1, 0.3], [0.8, 0.6, 1.0], [-0.2, 0.3, 0.1],
            radial_nodes=32, angle_nodes=16),
        "path2 grassmann": lambda: two_point_integral(
            PATH2, 0.2, 0.1, 0, 1, "grassmann"),
        "path2 determinant": lambda: two_point_integral(
            PATH2, 0.2, 0.1, 0, 1, "determinant"),
        "one site": lambda: two_point_integral(
            np.zeros((1, 1)), 0.3, -0.2, 0, 0),
        # the fluctuation integral's per-term chunk sums, at one point
        "fluctuation": lambda: integrate_fluctuation(
            theta_map(wedge_product(tau_form(FermionBasis(2), 0),
                                    tau_form(FermionBasis(2), 1))),
            TestThetaAndConvolution.C1, np.array([[0.3 + 0.2j, -0.4 + 0.1j]]),
            radial_nodes=36, angle_nodes=18)[(1, 1)][0],
    }

    def test_default_triangle_chunks(self, monkeypatch):
        # the folded triangle 32/16 has 32 radial rows of 256 x 512 points:
        # a row fits the tile, so each tile is two whole rows (16 tiles)
        shapes = []
        weight = grassmann._weight

        def recording(*args):
            E = weight(*args)
            shapes.append(E.shape)
            return E

        monkeypatch.setattr(grassmann, "_weight", recording)
        self.CASES["triangle self-normalisation"]()
        assert shapes == [(2 * 256, 512)] * 16
        assert 2 * 256 * 512 == grassmann._TILE_POINTS

    @pytest.mark.parametrize("budget", [1, 4096, 10**12])  # one row; rows; all
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_value_independent_of_chunk_size(self, monkeypatch, case, budget):
        ref = self.CASES[case]()
        monkeypatch.setattr(grassmann, "_TILE_POINTS", budget)
        assert abs(self.CASES[case]() - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("budget", [1, 4096, 2**18, 10**12])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_tiles_bounded_and_cover_grid_once(self, monkeypatch, case,
                                               budget):
        # every exp(-W) tile holds at most max(budget, n_last) points, and
        # the tiles' weights are the whole grid's, each point once
        tiles, lasts = [], []
        weight, axes_of = grassmann._weight, grassmann._boson_axes

        def recording_weight(*args):
            E = weight(*args)
            tiles.append(E.ravel().copy())
            return E

        def recording_axes(*args):
            axes = axes_of(*args)
            lasts.append(len(axes[-1][0]))
            return axes

        monkeypatch.setattr(grassmann, "_weight", recording_weight)
        monkeypatch.setattr(grassmann, "_boson_axes", recording_axes)
        monkeypatch.setattr(grassmann, "_TILE_POINTS", 10**12)
        self.CASES[case]()
        (whole,) = tiles  # one tile: the whole grid
        tiles.clear()
        monkeypatch.setattr(grassmann, "_TILE_POINTS", budget)
        self.CASES[case]()
        assert max(t.size for t in tiles) <= max(budget, lasts[-1])
        np.testing.assert_allclose(np.sort(np.concatenate(tiles)),
                                   np.sort(whole), rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("integral, bound", [
        # 16 tiles of 2 rows; 17.9 MiB as 3 chunks of up to 1,966,080 points
        (CASES["triangle self-normalisation"], 6),
        # one first-axis row is 3,276,800 points, over the old 2,000,000
        # budget: 28.5 MiB as 64 one-row chunks
        (lambda: two_point_integral(TRIANGLE, 0.3, 0.2, 0, 1, "grassmann",
                                    radial_nodes=64, angle_nodes=40), 8),
    ], ids=["triangle-32-16", "triangle-64-40"])
    def test_memory_bounded_by_tile(self, integral, bound):
        integral()  # the import and first-call caches are not the grid's
        tracemalloc.start()
        try:
            integral()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20


def expectation(C, F):
    """super_expectation(C, F), checked to 1e-10 on up to 3 sites against
    the direct Berezin quadrature of exp(-S_A) F, A = C^{-1}: an independent
    route through the fermion action and the Berezin volume sign."""
    val = super_expectation(C, F)
    if F.basis.M <= 3:
        _, A = grassmann._covariance(C)
        G = wedge_product(
            exp_even_form(grassmann._fermi_action(F.basis, -A)), F)
        quad = berezin_integral(G, grassmann._quadratic_form(A),
                                r_max=grassmann._gaussian_rmax(A))
        assert abs(val - quad) < 1e-10
    return val


class TestSuperExpectation:
    C2 = np.array([[1.0, 0.3], [0.3, 0.8]])
    CH = np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 0.8]])  # complex Hermitian
    C3 = np.array([[1.0, 0.3, 0.1], [0.3, 0.8, 0.2], [0.1, 0.2, 0.9]])
    C4 = 0.8 * np.eye(4) + 0.1

    def test_normalised_to_one(self):
        for C in (self.C2, self.CH):
            val = expectation(C, GrassmannForm.from_scalar(FermionBasis(2), 1.0))
            assert abs(val - 1.0) < 1e-14

    def test_boson_covariance(self):
        b = FermionBasis(2)
        for C in (self.C2, self.CH):
            for a, bb in itertools.product(range(2), range(2)):
                F = wedge_product(phibar_poly(b, a), phi_poly(b, bb))
                assert abs(expectation(C, F) - C[a, bb]) < 1e-14

    def test_fermion_covariance_and_sign(self):
        b = FermionBasis(2)
        F = wedge_product(psibar(b, 0), psi(b, 1))
        G = wedge_product(psi(b, 1), psibar(b, 0))
        for C in (self.C2, self.CH):
            assert abs(expectation(C, F) - C[0, 1]) < 1e-14
            assert abs(expectation(C, G) + C[0, 1]) < 1e-14

    def test_one_site_variance(self):
        b = FermionBasis(1)
        F = wedge_product(phibar_poly(b, 0), phi_poly(b, 0))
        assert abs(expectation(np.array([[0.7]]), F) - 0.7) < 1e-14

    def test_four_point(self):
        # C_00 C_11 + |C_01|^2
        b = FermionBasis(2)
        F = wedge_product(wedge_product(phibar_poly(b, 0), phi_poly(b, 1)),
                          wedge_product(phibar_poly(b, 1), phi_poly(b, 0)))
        assert abs(expectation(self.CH, F) - 0.93) < 1e-14

    def test_three_sites(self):
        b = FermionBasis(3)
        F = wedge_product(phibar_poly(b, 0), phi_poly(b, 2))
        assert abs(expectation(self.C3, F) - 0.1) < 1e-14

    def test_tau_products_vanish(self):
        # supersymmetry: E_C of a product of taus is 0
        b2, b3 = FermionBasis(2), FermionBasis(3)
        F2 = wedge_product(tau_form(b2, 0), tau_form(b2, 1))
        F3 = wedge_product(wedge_product(tau_form(b3, 0), tau_form(b3, 1)),
                           tau_form(b3, 2))
        assert abs(expectation(self.CH, F2)) < 1e-14
        assert abs(expectation(self.C3, F3)) < 1e-14

    def test_boson_covariance_four_sites(self):
        b = FermionBasis(4)
        F = wedge_product(phibar_poly(b, 0), phi_poly(b, 2))
        assert abs(expectation(self.C4, F) - 0.1) < 1e-14

    def test_tau_product_four_sites(self):
        b = FermionBasis(4)
        F = wedge_product(wedge_product(tau_form(b, 0), tau_form(b, 1)),
                          tau_form(b, 3))
        assert abs(expectation(self.C4, F)) < 1e-14

    def test_odd_form_vanishes(self):
        b = FermionBasis(2)
        F = psi(b, 0) + wedge_product(wedge_product(phibar_poly(b, 0),
                                                    psi(b, 1)),
                                      wedge_product(psi(b, 0), psibar(b, 1)))
        assert F.parity() == "odd"
        assert expectation(self.CH, F) == 0

    @pytest.mark.parametrize("k", range(1, 16))
    def test_one_site_moments(self, k):
        # E |phi_0|^{2k} = k! C^k: degree 2k takes k heat-kernel steps,
        # however many sites the basis has
        F = GrassmannForm(FermionBasis(1),
                          {(0, 0): FieldPolynomial(1, {((k,), (k,)): 1.0})})
        ref = math.factorial(k) * 0.7**k
        assert abs(super_expectation(np.array([[0.7]]), F) - ref) < 1e-14 * ref

    @pytest.mark.parametrize("C, match", [
        (np.eye(3), "does not match"),
        (np.array([[1.0, 0.5], [0.2, 1.0]]), "Hermitian"),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), "positive-definite"),
    ], ids=["wrong_size", "not_hermitian", "not_positive_definite"])
    def test_invalid_covariance(self, C, match):
        b = FermionBasis(2)
        with pytest.raises(ValueError, match=match):
            super_expectation(C, wedge_product(phibar_poly(b, 0),
                                               phi_poly(b, 1)))

    def test_covariance_validation(self):
        with pytest.raises(ValueError):
            grassmann._covariance(np.array([[1.0, 0.5], [0.2, 1.0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            # its inverse would give a weight exponent that is not real
            grassmann._covariance(np.array([[1.0, 0.3], [0.3 + 2e-6, 0.8]]))
        with pytest.raises(ValueError):
            grassmann._covariance(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestThetaAndConvolution:
    C1 = np.array([[0.5, 0.1], [0.1, 0.4]])
    C2 = np.array([[0.4, -0.05], [-0.05, 0.3]])

    def test_theta_of_constant(self):
        b = FermionBasis(1)
        th = theta_map(GrassmannForm.from_scalar(b, 1.0))
        assert poly_terms(th) == {(0, 0): {((0, 0), (0, 0)): (1 + 0j)}}

    def test_theta_of_phi(self):
        b = FermionBasis(1)
        th = theta_map(phi_poly(b, 0))
        assert poly_terms(th)[(0, 0)] == {((1, 0), (0, 0)): (1 + 0j),
                                          ((0, 1), (0, 0)): (1 + 0j)}

    def test_degree0_matches_gaussian_convolution(self):
        # E_C theta f = mu_C * f for a 0-form: compare the fluctuation
        # quadrature against the exact Gaussian moment of the polynomial
        b = FermionBasis(2)
        f = wedge_product(phibar_poly(b, 0), phi_poly(b, 1))  # degree-0 form
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        out = integrate_fluctuation(theta_map(f), self.C1, pts,
                                    radial_nodes=36, angle_nodes=18)
        exact = np.conj(pts[:, 0]) * pts[:, 1] + self.C1[0, 1]
        assert np.max(np.abs(out[(0, 0)] - exact)) < 1e-8

    @pytest.mark.parametrize("k", range(1, 9))
    def test_fluctuation_moments_one_site(self, k):
        # E |xi|^{2k} = k! C^k at zero external field and the default
        # nodes: the radius must grow with the degree, or the tail of
        # r^{2k+1} e^{-r^2/C} is cut (5e-12 at k = 6 with a fixed radius)
        F = GrassmannForm(FermionBasis(1),
                          {(0, 0): FieldPolynomial(1, {((k,), (k,)): 1.0})})
        out = integrate_fluctuation(theta_map(F), np.array([[0.7]]),
                                    np.zeros((1, 1)))
        ref = math.factorial(k) * 0.7**k
        assert abs(out[(0, 0)][0] - ref) < 1e-12 * ref

    def test_heat_kernel_leaves_tau_invariant(self):
        b = FermionBasis(2)
        conv = gaussian_convolve_poly(tau_form(b, 0), self.C1)
        assert poly_terms(conv) == poly_terms(tau_form(b, 0))

    def test_heat_kernel_covariance_shape_checked(self):
        # a 1x1 covariance would leave site 1's fields unconvolved
        b = FermionBasis(2)
        F = wedge_product(phibar_poly(b, 1), phi_poly(b, 1))
        with pytest.raises(ValueError, match="does not match"):
            gaussian_convolve_poly(F, np.array([[0.5]]))

    def test_heat_kernel_vs_quadrature(self):
        b = FermionBasis(2)
        F = wedge_product(tau_form(b, 0), tau_form(b, 1))
        conv = gaussian_convolve_poly(F, self.C1)
        rng = np.random.default_rng(4)
        pts = 0.7 * (rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
        quad = integrate_fluctuation(theta_map(F), self.C1, pts,
                                     radial_nodes=36, angle_nodes=18)
        for key, vals in quad.items():
            ref = conv.coeffs.get(key)
            refv = 0.0 if ref is None else ref.evaluate(pts, np.conj(pts))
            assert np.max(np.abs(vals - refv)) < 1e-8

    def test_convolution_identity_trivial(self):
        b = FermionBasis(1)
        res = convolution_identity_check(np.array([[0.5]]), np.array([[0.3]]),
                                         GrassmannForm.from_scalar(b, 1.0))
        assert res < 1e-8

    def test_convolution_identity_two_point(self):
        b = FermionBasis(2)
        F = wedge_product(phibar_poly(b, 0), phi_poly(b, 1))
        res = convolution_identity_check(self.C1, self.C2, F,
                                         radial_nodes=36, angle_nodes=18)
        assert res < 1e-6

    def test_convolution_identity_tau(self):
        b = FermionBasis(2)
        res = convolution_identity_check(self.C1, self.C2, tau_form(b, 0),
                                         radial_nodes=36, angle_nodes=18)
        assert res < 1e-6

    def test_memory_within_chunk_budget(self):
        # the fluctuation integral runs through the tile loop: its peak
        # (4.6 MiB) stays under four float64 tiles (a table over the whole
        # 648^2-point fluctuation grid per monomial peaked at 247 MiB)
        b = FermionBasis(2)
        F = wedge_product(tau_form(b, 0), tau_form(b, 1))
        tracemalloc.start()
        try:
            res = convolution_identity_check(self.C1, self.C2, F,
                                             radial_nodes=36, angle_nodes=18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res < 1e-6
        assert peak < 4 * 8 * grassmann._TILE_POINTS

    @pytest.mark.parametrize("form", [
        lambda b: wedge_product(phibar_poly(b, 0), phi_poly(b, 1)),
        lambda b: tau_form(b, 0),
        lambda b: wedge_product(tau_form(b, 0), tau_form(b, 1)),
    ], ids=["phibar0_phi1", "tau0", "tau0_tau1"])
    def test_one_weight_per_chunk(self, monkeypatch, form):
        # exp(-W) is formed once per chunk for all monomials together; once
        # per chunk and monomial, it took 7, 14 and 42 weights here on the
        # unfolded grid.  C1 is real, so the first fluctuation axis is
        # folded to 36 x 9 points
        calls = []
        weight = grassmann._weight

        def counting(*args):
            calls.append(1)
            return weight(*args)

        monkeypatch.setattr(grassmann, "_weight", counting)
        points = 36 * 18  # one fluctuation site's polar grid
        monkeypatch.setattr(grassmann, "_TILE_POINTS", 100 * points)
        pts = np.array([[0.3 + 0.2j, -0.4 + 0.1j]])
        integrate_fluctuation(theta_map(form(FermionBasis(2))), self.C1, pts,
                              radial_nodes=36, angle_nodes=18)
        assert len(calls) == math.ceil(36 * 9 / 100)

    @pytest.mark.parametrize("C", [C1, TestSuperExpectation.CH],
                             ids=["real", "complex_hermitian"])
    def test_folded_fluctuation_matches_unfolded(self, monkeypatch, C):
        # a real C gives W = (xi, A xibar) real coefficients and a folded
        # grid; a complex-Hermitian C keeps the full grid
        F2 = theta_map(wedge_product(tau_form(FermionBasis(2), 0),
                                     phi_poly(FermionBasis(2), 1)))
        pts = np.array([[0.3 + 0.2j, -0.4 + 0.1j], [0.5 - 0.3j, 0.2j]])
        grid = dict(radial_nodes=12, angle_nodes=7)
        assert grassmann._real_coefficients(grassmann._quadratic_form(
            grassmann._covariance(C)[1])) == (C is self.C1)
        val = integrate_fluctuation(F2, C, pts, **grid)
        monkeypatch.setattr(grassmann, "_real_coefficients", lambda W: False)
        ref = integrate_fluctuation(F2, C, pts, **grid)
        assert val.keys() == ref.keys()
        scale = max(np.max(np.abs(v)) for v in ref.values())
        for key, v in ref.items():
            assert np.max(np.abs(val[key] - v)) <= 1e-13 * scale

    def test_no_full_monomial_integrates_to_nothing(self):
        # psi on a fluctuation site leaves the fluctuation block one psibar
        # short in every monomial, so the fermionic integral kills them all
        assert integrate_fluctuation(psi(FermionBasis(4), 2), self.C1,
                                     np.array([[0.3 + 0.2j, -0.4 + 0.1j]]),
                                     radial_nodes=36, angle_nodes=18) == {}

    def test_fully_nested_quadrature_oracle_one_site(self):
        # both stages by quadrature on one site: E_{C'+C1} theta F vs the
        # two-stage route, F = tau
        b = FermionBasis(1)
        F = tau_form(b, 0)
        c1, c2 = np.array([[0.5]]), np.array([[0.3]])
        pts = np.array([[0.4 + 0.2j]])
        lhs = integrate_fluctuation(theta_map(F), c1 + c2, pts,
                                    radial_nodes=48, angle_nodes=16)
        # stage 1 by quadrature at a grid of intermediate points is realised
        # by integrating the doubled form twice
        mid = integrate_fluctuation(theta_map(F), c1, pts,
                                    radial_nodes=48, angle_nodes=16)
        # rebuild a polynomial-coefficient form from stage-1 values: for tau
        # the result is tau + C1 (degree-2), so fit exactly
        inner = gaussian_convolve_poly(F, c1)
        rhs = integrate_fluctuation(theta_map(inner), c2, pts,
                                    radial_nodes=48, angle_nodes=16)
        for key in lhs:
            l = lhs[key]
            m = mid.get(key)
            r = rhs.get(key, 0.0)
            assert np.max(np.abs(l - r)) < 1e-8
            assert m is not None  # stage-1 quadrature agrees with Wick below
        inner_vals = inner.coeffs[(0, 0)].evaluate(pts, np.conj(pts))
        assert np.max(np.abs(mid[(0, 0)] - inner_vals)) < 1e-9


class TestTauDelta:
    def test_summation_by_parts_exact(self):
        # on a torus graph, the symmetrised kinetic form equals the
        # unsymmetrised Dirichlet form exactly, monomial by monomial
        n = 4
        lap = np.zeros((n, n))
        for x in range(n):
            for s in (1, -1):
                lap[x, x] += 1.0
                lap[x, (x + s) % n] -= 1.0
        b = FermionBasis(n)
        sym = tau_delta_form(b, lap)
        M = n
        unsym = GrassmannForm(b, {})
        boson = FieldPolynomial.constant(M, 0.0)
        coeffs = {}
        for x in range(M):
            for y in range(M):
                if lap[x, y] == 0.0:
                    continue
                boson = boson + (FieldPolynomial.variable(M, x)
                                 * FieldPolynomial.variable(M, y, bar=True)
                                 * lap[x, y])
                coeffs[(1 << x, 1 << y)] = FieldPolynomial.constant(M, lap[x, y])
        coeffs[(0, 0)] = boson
        unsym = GrassmannForm(b, coeffs)
        assert poly_terms(sym) == poly_terms(unsym)


class TestSelfNormalisation:
    @pytest.mark.parametrize("lap,p,q,r", [
        (np.zeros((1, 1)), [0.0], [0.7], [0.2]),
        (np.zeros((1, 1)), [0.0], [1.1], [-0.4]),
        (PATH2, [0.6, 0.1], [0.9, 0.5], [0.3, -0.2]),
        (TORUS2, [0.4, 0.4], [0.8, 0.8], [0.1, 0.1]),
    ])
    def test_equals_one(self, lap, p, q, r):
        val = self_normalisation_value(lap, p, q, r)
        assert abs(val - 1.0) < 1e-8

    def test_three_site(self):
        val = self_normalisation_value(TRIANGLE, [0.4, 0.1, 0.3],
                                       [0.8, 0.6, 1.0], [-0.2, 0.3, 0.1],
                                       radial_nodes=32, angle_nodes=16)
        assert abs(val - 1.0) < 1e-8
        # the integrand is U(1)-invariant: its fixed-phase grid value, frozen;
        # W has real coefficients, so the folded sum is exactly real
        assert val == complex(1.0000000000882323, 0.0)

    def test_branch_independence(self):
        # observables pair psi with psibar: values are real
        val = self_normalisation_value(PATH2, [0.2, 0.5], [0.7, 0.9], [0.0, 0.3])
        assert abs(val.imag) < 1e-10

    @pytest.mark.parametrize("lap,p,q,r", [
        (np.zeros((1, 1)), 0.5, 0.7, 0.2),
        (PATH2, 0.3, [0.9, 0.5], [0.3, -0.2]),
    ])
    def test_scalar_weights_broadcast(self, lap, p, q, r):
        # a scalar p broadcasts to every site, as q and r do
        M = lap.shape[0]
        val = self_normalisation_value(lap, p, q, r)
        assert val == self_normalisation_value(lap, [p] * M, q, r)
        assert abs(val - 1.0) < 1e-8

    def test_rejects_nonpositive_quartic(self):
        with pytest.raises(ValueError):
            self_normalisation_value(PATH2, [0.0, 0.0], [0.0, 0.5], [0.1, 0.1])

    @pytest.mark.parametrize("pqr,named", [
        ((0.0, 0.5, np.nan), "r"),
        ((np.nan, 0.5, 0.1), "p"),
        ((0.0, np.inf, 0.1), "q"),
        ((0.0, [0.5, np.nan], 0.1), "q"),
    ], ids=["r-nan", "p-nan", "q-inf", "q-array-nan"])
    def test_rejects_nonfinite_weights(self, pqr, named):
        # a NaN r returned nan+nanj
        lap = np.zeros((1, 1)) if np.ndim(pqr[1]) == 0 else PATH2
        with pytest.raises(ValueError, match=f"^{named} must be finite"):
            self_normalisation_value(lap, *pqr)

    def test_value_not_finite_rejected(self):
        # the value is 1, but the grid sum overflowed to NaN at q = 1e-12
        with pytest.raises(ValueError, match="not finite in float64 at "
                           r"p = 0\.3, q = .*1\.e-12.*, r = "):
            self_normalisation_value(PATH2, 0.3, 1e-12, -0.1)


class TestTwoPoint:
    def test_one_site_matches_walk_quadrature(self):
        g, nu = 0.25, -0.3

        def walk_side():
            val, _ = integrate.quad(lambda T: math.exp(-g * T * T - nu * T),
                                    0.0, 80.0, limit=400)
            return val

        lap = np.zeros((1, 1))
        for method in ("grassmann", "determinant"):
            v = two_point_integral(lap, g, nu, 0, 0, method)
            assert abs(v - walk_side()) < 1e-6

    @pytest.mark.parametrize("g,nu", [(0.01, -2.0), (0.05, -2.0),
                                      (0.02, -1.0)])
    def test_one_site_negative_nu(self, g, nu):
        # the weight peaks at r^2 = |nu|/2g: the radius must reach e^{-42}
        # of the peak beyond it; int_0^inf e^{-g T^2 - nu T} dT in closed form
        walk = math.sqrt(math.pi / (4 * g)) * erfcx(nu / (2 * math.sqrt(g)))
        for method in ("grassmann", "determinant"):
            v = two_point_integral(np.zeros((1, 1)), g, nu, 0, 0, method)
            assert abs(v / walk - 1.0) < 1e-12

    @pytest.mark.parametrize("g,nu", [(1e-3, -0.05), (5e-4, -0.02),
                                      (1e-4, 0.0), (1e-4, -0.01)])
    def test_one_site_small_quartic(self, g, nu):
        # small g: the radius must reach exp(-g r^4 - nu r^2) < 1e-18, past 12
        walk, _ = integrate.quad(lambda T: math.exp(-g * T * T - nu * T),
                                 0.0, math.inf, epsabs=0.0, epsrel=1e-13,
                                 limit=400)
        for method in ("grassmann", "determinant"):
            v = two_point_integral(np.zeros((1, 1)), g, nu, 0, 0, method)
            assert abs(v / walk - 1.0) < 1e-12

    def test_methods_agree_two_site(self):
        for (g, nu, a, b) in [(0.2, 0.1, 0, 1), (0.5, -0.2, 0, 0),
                              (0.08, 0.4, 1, 0)]:
            v1 = two_point_integral(PATH2, g, nu, a, b, "grassmann",
                                    radial_nodes=48, angle_nodes=24)
            v2 = two_point_integral(PATH2, g, nu, a, b, "determinant",
                                    radial_nodes=48, angle_nodes=24)
            assert abs(v1 - v2) < 1e-6

    def test_methods_agree_three_site(self):
        # the routes share one grid and one exponent, so their gap is the
        # fermion algebra's roundoff, not the quadrature error
        for (g, nu, a, b) in [(0.3, 0.2, 0, 1), (0.5, -0.2, 2, 2)]:
            v1 = two_point_integral(TRIANGLE, g, nu, a, b, "grassmann",
                                    radial_nodes=32, angle_nodes=16)
            v2 = two_point_integral(TRIANGLE, g, nu, a, b, "determinant",
                                    radial_nodes=32, angle_nodes=16)
            assert abs(v1 - v2) <= 1e-12

    def test_three_site_values_frozen(self):
        # both routes' integrands are U(1)-invariant: fixed-phase grid values,
        # folded (W has real coefficients); the grassmann values as summed
        # in 16 tiles of two radial rows (one ulp from 3 chunks of 15 rows)
        frozen = {(0.3, 0.2, 0, 1): (0.4980374258429857, 0.49803742584298555),
                  (0.5, -0.2, 2, 2): (0.9600221724475604, 0.9600221724475602)}
        for (g, nu, a, b), values in frozen.items():
            assert tuple(two_point_integral(TRIANGLE, g, nu, a, b, method,
                                            radial_nodes=32, angle_nodes=16)
                         for method in ("grassmann", "determinant")) == values

    @pytest.mark.parametrize("method", ["grassmann", "determinant"])
    def test_vertex_out_of_range_rejected(self, method):
        # a = -1 must not mean the last vertex, a = M must not IndexError,
        # a = 0.5 must not TypeError, a = True must not mean vertex 1
        for a, b in [(-1, 0), (0, -1), (2, 0), (0, 2), (0.5, 0), (0, 1.0),
                     (True, 0), (0, False)]:
            with pytest.raises(ValueError, match="not in 0..1"):
                two_point_integral(PATH2, 0.2, 0.1, a, b, method,
                                   radial_nodes=8, angle_nodes=4)

    @pytest.mark.parametrize("integral", [
        lambda lap: two_point_integral(lap, 0.2, 0.1, 0, 0, "grassmann"),
        lambda lap: two_point_integral(lap, 0.2, 0.1, 0, 0, "determinant"),
        # a 1-D array used to broadcast into a 2 x 2 kinetic form
        lambda lap: self_normalisation_value(lap, 0.3, 0.5, 0.1),
    ], ids=["grassmann", "determinant", "self_normalisation"])
    def test_non_square_laplacian_rejected(self, integral):
        for lap in (np.ones((2, 3)), np.ones(2)):
            with pytest.raises(ValueError, match="square"):
                integral(lap)

    @pytest.mark.parametrize("method", ["grassmann", "determinant"])
    def test_non_symmetric_laplacian_rejected(self, method):
        # (phi, L phibar) is real only for symmetric L; neither route may
        # integrate against a complex weight
        lap = np.array([[1.0, -1.0], [-0.5, 0.5]])
        with pytest.raises(ValueError, match="not real-valued"):
            two_point_integral(lap, 0.2, 0.1, 0, 1, method)

    def test_free_field_limit(self):
        v = two_point_integral(PATH2, 1e-6, 1.0, 0, 1, "grassmann")
        exact = np.linalg.inv(PATH2 + np.eye(2))[0, 1]
        assert abs(v - exact) < 1e-3

    def test_divergent_rejected(self):
        with pytest.raises(ValueError):
            two_point_integral(PATH2, 0.0, -0.1, 0, 1)

    @pytest.mark.parametrize("g,nu", [(-0.1, 0.5), (0.0, 0.0), (0.0, -0.1),
                                      (np.array([0.2, -0.1]), 0.5)])
    def test_radius_rejects_a_divergent_weight(self, g, nu):
        # a negative g with nu > 0 was given the Gaussian radius sqrt(42/nu)
        with pytest.raises(ValueError, match="divergent integral"):
            grassmann._auto_rmax(g, nu)

    @pytest.mark.parametrize("method", ["grassmann", "determinant"])
    @pytest.mark.parametrize("g,nu,named", [
        (np.nan, 0.1, "g"), (np.inf, 0.1, "g"), (0.1, np.nan, "nu"),
        (0.1, -np.inf, "nu"),
    ], ids=["g-nan", "g-inf", "nu-nan", "nu-minus-inf"])
    def test_nonfinite_couplings_rejected(self, g, nu, named, method):
        # each returned NaN
        with pytest.raises(ValueError, match=f"^{named} must be finite"):
            two_point_integral(np.zeros((1, 1)), g, nu, 0, 0, method)

    @pytest.mark.parametrize("method", ["grassmann", "determinant"])
    @pytest.mark.parametrize("lap,g,nu", [
        (PATH2, 1e-12, -0.1), (np.zeros((1, 1)), 1e-300, -1.0),
    ], ids=["path2", "one-site"])
    def test_value_not_finite_rejected(self, lap, g, nu, method):
        # each returned NaN, written as null; on one site the exact value
        # sqrt(pi/4g) erfcx(nu/2 sqrt(g)) overflows float64
        with pytest.raises(ValueError, match="not finite in float64 at "
                           f"g = {g}, nu = {nu}"):
            two_point_integral(lap, g, nu, 0, lap.shape[0] - 1, method)


class TestShiftedDeterminant:
    """det(L + diag(nu + 2g phi phibar)) as a polynomial, against
    np.linalg.det at random complex points (phibar not tied to phi)."""

    @staticmethod
    def diagonal(M, g, nu):
        return [FieldPolynomial.variable(M, x)
                * FieldPolynomial.variable(M, x, bar=True) * (2.0 * g) + nu
                for x in range(M)]

    @staticmethod
    def worst_relative_gap(poly, lap, g, nu, phi, phibar):
        oracle = np.linalg.det(lap + np.apply_along_axis(
            np.diag, -1, nu + 2.0 * g * phi * phibar))
        vals = poly.evaluate(phi, phibar)
        return float(np.max(np.abs(vals - oracle) / np.abs(oracle)))

    @pytest.mark.parametrize("lap", [np.zeros((1, 1)), PATH2, TORUS2,
                                     TRIANGLE])
    def test_matches_linalg_det(self, lap):
        M = lap.shape[0]
        rng = np.random.default_rng(40 + M)
        phi, phibar = (rng.normal(size=(2, 50, M))
                       + 1j * rng.normal(size=(2, 50, M)))
        for g, nu in [(0.3, 0.2), (0.5, -0.2), (1e-6, 1.0)]:
            d = self.diagonal(M, g, nu)
            det = grassmann._shifted_det(lap, d)
            assert self.worst_relative_gap(det, lap, g, nu, phi,
                                           phibar) <= 1e-12
            # the oracle sees a lost empty minor, prod_x d_x
            prod = FieldPolynomial.constant(M, 1.0)
            for dx in d:
                prod = prod * dx
            assert self.worst_relative_gap(det + (-prod), lap, g, nu, phi,
                                           phibar) > 1e-3
