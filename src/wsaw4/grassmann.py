"""Finite Grassmann algebra over a graph, Berezin integration, and the
supersymmetric integral representation of the two-point function.

A differential form over sites ``{0..M-1}`` is stored as a dictionary from
fermion monomials to coefficients,

    F = sum  F_{a,b}(phi, phibar) psi^a psibar^b,

where ``a`` and ``b`` are bitmasks, and the canonical monomial order is all
psi factors by ascending site followed by all psibar factors by ascending
site.  Coefficients are exact multivariate polynomials in
``(phi_x, phibar_x)`` (:class:`FieldPolynomial`); the wedge product
computes every reordering sign by inversion counting, so no sign is ever
entered by hand.  A boson weight ``exp(-W)`` is never a coefficient: it is
passed to the integrator as its polynomial exponent ``W``.

Berezin integration uses the normalisation ``psibar_x psi_x = du_x dv_x / pi``
(the fermions are the scaled differentials of the boson field; the square
root of 2 pi i implicit in that scaling is fixed once and never appears in
an observable, which always pairs psi with psibar).  The integral of a form
is pi^{-M} times the Lebesgue integral of its top-degree coefficient times
``exp(-W)``, after reordering the top monomial into the volume form,
evaluated by per-site polar quadrature (Gauss-Legendre radius times uniform
angles), with an optional global-phase reduction for U(1)-invariant
integrands.

Polynomials are evaluated on the factored grid, never point by point: each
site's axis is one-dimensional, so a monomial ``prod_x phi_x^a phibar_x^b``
is the outer product of per-axis tables ``v^a conj(v)^b`` built by repeated
multiplication, and the sum over terms is one matrix product per chunk of
the first axis.  A flat point set is the one-group case of the same
evaluator.  ``W`` must be real-valued: its coefficients must satisfy
``c_{a,b} = conj(c_{b,a})`` to 1e-12 relative (else ``ValueError``), and
the weight is the real ``exp(-Re W)``.

The Gaussian super-expectation ``E_C F = int exp(-S_A) F`` (``A = C^{-1}``,
``S_A = (phi, A phibar) + (psi, A psibar)``) needs no normalising constant:
supersymmetry makes ``E_C 1 = 1`` automatic.  ``theta`` doubles the field
(``phi -> phi + xi``, ``psi -> psi + eta``) and integrating out the
fluctuation realises progressive integration; for polynomial forms the
fluctuation integral is also available exactly through the heat-kernel
(Wick) operator ``exp(Delta_C)``.

The two-point function of the weakly self-avoiding walk on a finite graph
is the superintegral of ``exp(-sum_x (tau_Delta_x + g tau_x^2 + nu tau_x))
phibar_a phi_b``; integrating out the fermions instead gives the
determinant representation, with ``det(L + nu + 2g|phi|^2)`` expanded into
principal minors of L as a polynomial.  Both routes integrate against the
same exponent with one grid evaluator, so their agreement checks the fermion
algebra (``exp_even_form``, the wedge and volume signs), not the grid; the
grid is checked by self-normalisation and, on one site, by walk quadrature.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FermionBasis",
    "FieldPolynomial",
    "GrassmannForm",
    "psi",
    "psibar",
    "phi_poly",
    "phibar_poly",
    "tau_form",
    "tau_delta_form",
    "tau_squared_form",
    "wedge_product",
    "exp_even_form",
    "boson_grid",
    "berezin_integral",
    "SuperCovariance",
    "super_expectation",
    "super_expectation_with_error",
    "theta_map",
    "integrate_fluctuation",
    "gaussian_convolve_poly",
    "convolution_identity_check",
    "interaction_form",
    "self_normalisation_value",
    "two_point_integral",
]


# ---------------------------------------------------------------------------
# Bases and coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FermionBasis:
    """Ordered sites; generators psi_x (ids 0..M-1) and psibar_x (bars)."""

    M: int

    def doubled(self) -> "FermionBasis":
        """Basis with M fluctuation sites appended after the originals."""
        return FermionBasis(2 * self.M)

    @property
    def full_mask(self) -> int:
        return (1 << self.M) - 1


class FieldPolynomial:
    """Exact polynomial in (phi_x, phibar_x): {(alpha, beta): coeff}."""

    __slots__ = ("M", "terms")

    def __init__(self, M, terms=None):
        self.M = M
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c != 0:
                    self.terms[key] = self.terms.get(key, 0) + c

    @staticmethod
    def constant(M, c):
        zero = (0,) * M
        return FieldPolynomial(M, {(zero, zero): complex(c)} if c != 0 else {})

    @staticmethod
    def variable(M, x, bar=False):
        zero = (0,) * M
        e = list(zero)
        e[x] = 1
        e = tuple(e)
        return FieldPolynomial(M, {(zero, e) if bar else (e, zero): 1.0})

    def is_zero(self):
        return not self.terms

    def evaluate(self, phi, phibar):
        """Values at the points phi[..., x], phibar[..., x] (one group)."""
        phi = np.asarray(phi, dtype=complex)
        shape = phi.shape[:-1]
        group = (phi.reshape(-1, self.M),
                 np.asarray(phibar, dtype=complex).reshape(-1, self.M))
        return _outer_sum(*_term_tables(self, [group])).reshape(shape)

    def __add__(self, other):
        if np.isscalar(other):
            other = FieldPolynomial.constant(self.M, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return FieldPolynomial(self.M, out)

    __radd__ = __add__

    def __mul__(self, other):
        if np.isscalar(other):
            return FieldPolynomial(self.M, {k: complex(other) * c
                                            for k, c in self.terms.items()})
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (tuple(x + y for x, y in zip(a1, a2)),
                       tuple(x + y for x, y in zip(b1, b2)))
                out[key] = out.get(key, 0) + c1 * c2
        return FieldPolynomial(self.M, out)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def derivative(self, x, bar=False):
        out = {}
        for (a, b), c in self.terms.items():
            e = b if bar else a
            if e[x] == 0:
                continue
            new = list(e)
            new[x] -= 1
            new = tuple(new)
            key = (a, new) if bar else (new, b)
            out[key] = out.get(key, 0) + c * e[x]
        return FieldPolynomial(self.M, out)

    def shift_by_shadow(self):
        """Substitute phi_x -> phi_x + phi_{M+x} on a doubled site set."""
        M2 = 2 * self.M
        out = FieldPolynomial.constant(M2, 0.0)
        for (a, b), c in self.terms.items():
            term = FieldPolynomial.constant(M2, c)
            for x, e in enumerate(a):
                base = FieldPolynomial.variable(M2, x) \
                    + FieldPolynomial.variable(M2, self.M + x)
                for _ in range(e):
                    term = term * base
            for x, e in enumerate(b):
                base = FieldPolynomial.variable(M2, x, bar=True) \
                    + FieldPolynomial.variable(M2, self.M + x, bar=True)
                for _ in range(e):
                    term = term * base
            out = out + term
        return out


def _quadratic_form(A):
    """(phi, A phibar) = sum_{xy} A_xy phi_x phibar_y as a polynomial."""
    M = A.shape[0]
    e = [tuple(int(i == x) for i in range(M)) for x in range(M)]
    return FieldPolynomial(M, {(e[x], e[y]): complex(A[x, y])
                               for x in range(M) for y in range(M)})


def _real_exponent_check(W):
    """Raise unless W is real-valued: c_{a,b} = conj(c_{b,a}) to 1e-12
    relative to W's largest coefficient."""
    scale = max((abs(c) for c in W.terms.values()), default=0.0)
    for (a, b), c in W.terms.items():
        partner = W.terms.get((b, a), 0)
        if abs(c - np.conj(partner)) > 1e-12 * scale:
            raise ValueError(f"weight exponent is not real-valued: the term "
                             f"{(a, b)} has coefficient {c} against "
                             f"{partner} for its conjugate {(b, a)}")


# ---------------------------------------------------------------------------
# Evaluation on tensor products of point groups
# ---------------------------------------------------------------------------

def _powers(z, emax):
    """(emax + 1, len(z)) table of z**e, built by repeated multiplication."""
    out = np.empty((emax + 1, len(z)), dtype=complex)
    out[0] = 1.0
    for e in range(1, emax + 1):
        out[e] = out[e - 1] * z
    return out


def _term_tables(poly, groups):
    """Coefficients and per-group monomial tables of a polynomial.

    ``groups`` is a list of ``(phi, phibar)`` pairs of shape ``(n_g, m_g)``
    covering consecutive sites.  Returns ``(c, tables)`` with ``c`` the (K,)
    coefficients and ``tables[g][k, i] = prod_{x in g} phi_x^{a_kx}
    phibar_x^{b_kx}`` at the group's i-th point, so term k on the tensor
    grid is the outer product of its rows.
    """
    keys = list(poly.terms)
    c = np.array([poly.terms[k] for k in keys], dtype=complex)
    alpha = np.array([a for a, _ in keys], dtype=int).reshape(len(keys), poly.M)
    beta = np.array([b for _, b in keys], dtype=int).reshape(len(keys), poly.M)
    tables, site = [], 0
    for phi, phibar in groups:
        t = np.ones((len(keys), len(phi)), dtype=complex)
        for j in range(phi.shape[1]):
            for z, e in ((phi[:, j], alpha[:, site + j]),
                         (phibar[:, j], beta[:, site + j])):
                if e.any():
                    t *= _powers(z, int(e.max()))[e]
        tables.append(t)
        site += phi.shape[1]
    return c, tables


def _outer(tables):
    """(K, prod n_g) row-wise outer product of per-group tables."""
    out = tables[0]
    for t in tables[1:]:
        out = (out[:, :, None] * t[:, None, :]).reshape(
            len(out), out.shape[1] * t.shape[1])
    return out


def _outer_sum(c, tables):
    """sum_k c_k (outer_g tables[g][k]) with shape (n_0, ..., n_{G-1}):
    the terms x (all but the last group) table against the terms x (last
    group) table, as one matrix product."""
    shape = tuple(t.shape[1] for t in tables)
    if len(tables) == 1:
        return c @ tables[0]
    return ((c[:, None] * _outer(tables[:-1])).T @ tables[-1]).reshape(shape)


def _axis_groups(axes):
    """One ``(phi, phibar)`` group per one-dimensional boson axis."""
    return [(v[:, None], np.conj(v)[:, None]) for v, _ in axes]


# ---------------------------------------------------------------------------
# Forms
# ---------------------------------------------------------------------------

def _merge_sign(a: int, b: int) -> int:
    """Sign of interleaving the ascending generators of masks a and b."""
    sign = 1
    bb = b
    while bb:
        i = (bb & -bb).bit_length() - 1
        if (a >> (i + 1)).bit_count() & 1:
            sign = -sign
        bb &= bb - 1
    return sign


def _perm_parity(seq) -> int:
    """(-1)^inversions of an integer sequence with distinct entries."""
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv & 1 else 1


class GrassmannForm:
    """Sum of fermion monomials with boson-field coefficients."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: FermionBasis, coeffs=None):
        self.basis = basis
        self.coeffs = {}
        if coeffs:
            for key, c in coeffs.items():
                if not c.is_zero():
                    self.coeffs[key] = c

    @staticmethod
    def from_scalar(basis, c):
        return GrassmannForm(basis, {(0, 0): FieldPolynomial.constant(basis.M, c)})

    def degree0(self):
        return self.coeffs.get((0, 0), FieldPolynomial.constant(self.basis.M, 0.0))

    def parity(self):
        """'even', 'odd', or None for mixed."""
        degs = {(a.bit_count() + b.bit_count()) & 1 for a, b in self.coeffs}
        if len(degs) > 1:
            return None
        if not degs or degs == {0}:
            return "even"
        return "odd"

    def __add__(self, other):
        if np.isscalar(other):
            other = GrassmannForm.from_scalar(self.basis, other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return GrassmannForm(self.basis, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, other):
        if np.isscalar(other):
            return GrassmannForm(self.basis,
                                 {k: c * other for k, c in self.coeffs.items()})
        return wedge_product(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def wedge_product(F: GrassmannForm, G: GrassmannForm) -> GrassmannForm:
    """Graded product with signs from the canonical ordering."""
    if F.basis.M != G.basis.M:
        raise ValueError("incompatible bases")
    out = {}
    for (a1, b1), c1 in F.coeffs.items():
        for (a2, b2), c2 in G.coeffs.items():
            if (a1 & a2) or (b1 & b2):
                continue
            sign = _merge_sign(a1, a2) * _merge_sign(b1, b2)
            if (a2.bit_count() * b1.bit_count()) & 1:
                sign = -sign
            key = (a1 | a2, b1 | b2)
            term = (c1 * c2) * float(sign)
            out[key] = out[key] + term if key in out else term
    return GrassmannForm(F.basis, out)


# generator / building-block forms ------------------------------------------

def psi(basis, x):
    return GrassmannForm(basis, {(1 << x, 0):
                                 FieldPolynomial.constant(basis.M, 1.0)})


def psibar(basis, x):
    return GrassmannForm(basis, {(0, 1 << x):
                                 FieldPolynomial.constant(basis.M, 1.0)})


def phi_poly(basis, x):
    return GrassmannForm(basis, {(0, 0): FieldPolynomial.variable(basis.M, x)})


def phibar_poly(basis, x):
    return GrassmannForm(basis, {(0, 0):
                                 FieldPolynomial.variable(basis.M, x, bar=True)})


def tau_form(basis, x) -> GrassmannForm:
    """tau_x = phi_x phibar_x + psi_x psibar_x."""
    M = basis.M
    pp = FieldPolynomial.variable(M, x) * FieldPolynomial.variable(M, x, bar=True)
    return GrassmannForm(basis, {(0, 0): pp,
                                 (1 << x, 1 << x):
                                 FieldPolynomial.constant(M, 1.0)})


def tau_squared_form(basis, x) -> GrassmannForm:
    """tau_x^2 = |phi_x|^4 + 2 |phi_x|^2 psi_x psibar_x."""
    t = tau_form(basis, x)
    return wedge_product(t, t)


def tau_delta_form(basis, laplacian, weights=None) -> GrassmannForm:
    """sum_x p_x tau_{Delta,x} for the given (symmetric) graph Laplacian.

    tau_{Delta,x} is the symmetrised kinetic form; with site weights p the
    boson part is (phi, S phibar) and the fermion part sum S_{xy} psi_x
    psibar_y, where S = (P L + L P)/2, P = diag(p).
    """
    L = np.asarray(laplacian, dtype=float)
    M = basis.M
    p = np.broadcast_to(np.asarray(1.0 if weights is None else weights,
                                   dtype=float), (M,))
    S = 0.5 * (p[:, None] * L + L * p[None, :])
    coeffs = _fermi_action(basis, S).coeffs
    coeffs[(0, 0)] = _quadratic_form(S)
    return GrassmannForm(basis, coeffs)


def exp_even_form(F: GrassmannForm) -> GrassmannForm:
    """exp(F - F0) for an even form F: a terminating series.

    The scalar factor e^{F0} is omitted: it is a boson weight, which the
    integrators take as the exponent ``W = -F0`` (see berezin_integral).
    Polynomial coefficients stay polynomial.
    """
    if F.parity() not in ("even",):
        raise ValueError("exp_even_form needs an even form")
    basis = F.basis
    N = GrassmannForm(basis, {k: c for k, c in F.coeffs.items() if k != (0, 0)})
    result = GrassmannForm.from_scalar(basis, 1.0)
    power = GrassmannForm.from_scalar(basis, 1.0)
    for k in range(1, basis.M + 1):
        power = wedge_product(power, N) * (1.0 / k)
        if not power.coeffs:
            break
        result = result + power
    return result


# ---------------------------------------------------------------------------
# Berezin integration
# ---------------------------------------------------------------------------

def _gauss_legendre_radius(n, r_max):
    x, w = np.polynomial.legendre.leggauss(n)
    r = 0.5 * r_max * (x + 1.0)
    wr = 0.5 * r_max * w * r  # includes the polar Jacobian r dr
    return r, wr


def _boson_axes(M, radial_nodes, angle_nodes, r_max, reduce_u1):
    r, wr = _gauss_legendre_radius(radial_nodes, r_max)
    th = 2.0 * np.pi * (np.arange(angle_nodes) + 0.5) / angle_nodes
    wth = 2.0 * np.pi / angle_nodes
    axes = []
    for site in range(M):
        if reduce_u1 and site == 0:
            axes.append((r.astype(complex), wr * 2.0 * np.pi))
        else:
            vals = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
            ws = (wr[:, None] * wth * np.ones(angle_nodes)[None, :]).ravel()
            axes.append((vals, ws))
    return axes


def _grid_from_axes(axes):
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    phi = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(phi.shape[0])
    for wg in wgrids:
        w = w * wg.ravel().real
    return phi, w


def boson_grid(M, *, radial_nodes=48, angle_nodes=24, r_max=4.0,
               reduce_u1=False):
    """Tensor polar quadrature over C^M: returns (phi, weights).

    phi has shape (npts, M); weights integrate du dv per site.  With
    reduce_u1=True the global phase is fixed (first site angle = 0, weight
    2 pi), valid only for U(1)-invariant integrands; this cuts one angle
    dimension, which is what makes 3-site integrals affordable.
    """
    return _grid_from_axes(_boson_axes(M, radial_nodes, angle_nodes, r_max,
                                       reduce_u1))


def _volume_reorder_sign(M):
    """Sign reordering psi_0..psi_{M-1} psibar_0..psibar_{M-1} into the
    volume order (psibar_0 psi_0)(psibar_1 psi_1)...  Generators are
    labelled psi_x -> x, psibar_x -> M + x."""
    canonical = list(range(M)) + [M + x for x in range(M)]
    target = []
    for x in range(M):
        target += [M + x, x]
    # parity of the permutation taking canonical order to target order
    position = {g: i for i, g in enumerate(canonical)}
    seq = [position[g] for g in target]
    return _perm_parity(seq)


def berezin_integral(F: GrassmannForm, exponent: FieldPolynomial, *,
                     radial_nodes=48, angle_nodes=24, r_max=4.0,
                     reduce_u1=False) -> complex:
    """Integrate ``F exp(-W)`` over C^M with the normalisation
    ``int f prod_x psibar_x psi_x = pi^{-M} int f du dv``.

    ``exponent`` is the boson weight's exponent ``W``, a real-valued
    polynomial (checked).  Only the top-degree monomial of F contributes.
    """
    M = F.basis.M
    top = F.coeffs.get((F.basis.full_mask, F.basis.full_mask))
    if top is None:
        return 0.0 + 0.0j
    axes = _boson_axes(M, radial_nodes, angle_nodes, r_max, reduce_u1)
    return _volume_reorder_sign(M) * _grid_integral(top, exponent, axes)


def _grid_integral(f, exponent, axes):
    """pi^{-M} int f exp(-W) du dv, W real (checked), on the factored grid of
    ``axes``: per-axis tables, in chunks along the first site's nodes."""
    _real_exponent_check(exponent)
    groups = _axis_groups(axes)
    c, tabs = _term_tables(f, groups)
    tabs = [t * w for t, (_, w) in zip(tabs, axes)]  # fold in the weights
    cw, wtabs = _term_tables(exponent, groups)
    rest = math.prod(len(v) for v, _ in axes[1:])
    step = max(1, 2_000_000 // rest)
    total = 0.0 + 0.0j
    for lo in range(0, len(axes[0][0]), step):
        rows = slice(lo, lo + step)
        vals = _outer_sum(c, [tabs[0][:, rows]] + tabs[1:])
        vals *= np.exp(-_outer_sum(cw, [wtabs[0][:, rows]] + wtabs[1:]).real)
        total += complex(vals.sum())
    return math.pi**-len(axes) * total


# ---------------------------------------------------------------------------
# Gaussian super-expectation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperCovariance:
    """Positive-definite Hermitian covariance C and its inverse A."""

    C: np.ndarray
    A: np.ndarray

    @staticmethod
    def from_matrix(C) -> "SuperCovariance":
        C = np.asarray(C, dtype=complex)
        if np.abs(C - C.conj().T).max() > 1e-12 * np.abs(C).max():
            raise ValueError("covariance must be Hermitian to 1e-12 relative")
        herm = 0.5 * (C + C.conj().T)
        if np.linalg.eigvalsh(herm).min() <= 0:
            raise ValueError("covariance must have positive-definite "
                             "Hermitian part")
        A = np.linalg.inv(C)
        if np.abs(A @ C - np.eye(C.shape[0])).max() > 1e-12:
            raise ValueError("inverse not accurate to 1e-12")
        return SuperCovariance(C=C, A=A)


def _fermi_action(basis, A) -> GrassmannForm:
    """sum_{xy} A_{xy} psi_x psibar_y as a form with constant coefficients."""
    M = basis.M
    coeffs = {}
    for x in range(M):
        for y in range(M):
            if A[x, y] != 0:
                coeffs[(1 << x, 1 << y)] = FieldPolynomial.constant(M, A[x, y])
    return GrassmannForm(basis, coeffs)


def super_expectation(C, F: GrassmannForm, *, radial_nodes=64, angle_nodes=32,
                      r_max=None, reduce_u1=False, mc_samples=200_000,
                      seed=0) -> complex:
    """E_C F = int exp(-S_A) F with A = C^{-1}; no normalising constant.

    The fermion part of exp(-S_A) is expanded symbolically; the boson part
    weights the quadrature.  For Hermitian C the weight decays like
    exp(-lambda_min |phi|^2), which sets the default radial cutoff.
    Beyond 3 sites tensor quadrature is replaced by Monte Carlo sampling of
    the Gaussian weight (use :func:`super_expectation_with_error` to see
    the standard error).
    """
    val, _ = super_expectation_with_error(
        C, F, radial_nodes=radial_nodes, angle_nodes=angle_nodes,
        r_max=r_max, reduce_u1=reduce_u1, mc_samples=mc_samples, seed=seed)
    return val


def super_expectation_with_error(C, F: GrassmannForm, *, radial_nodes=64,
                                 angle_nodes=32, r_max=None, reduce_u1=False,
                                 mc_samples=200_000, seed=0):
    """Like :func:`super_expectation`; returns (value, error_estimate).

    The quadrature error estimate compares against a two-thirds-resolution
    grid; the Monte Carlo route reports the standard error.
    """
    sc = C if isinstance(C, SuperCovariance) else SuperCovariance.from_matrix(C)
    basis = F.basis
    M = basis.M
    if M != sc.C.shape[0]:
        raise ValueError("covariance size does not match basis")
    G = wedge_product(exp_even_form(_fermi_action(basis, -sc.A)), F)
    top = G.coeffs.get((basis.full_mask, basis.full_mask))
    if top is None:
        return 0.0 + 0.0j, 0.0
    if M > 3:
        return _super_expectation_mc(sc, top, mc_samples, seed)
    lam_min = float(np.linalg.eigvalsh(0.5 * (sc.A + sc.A.conj().T)).min())
    if r_max is None:
        r_max = math.sqrt(42.0 / lam_min)

    def run(rn, an):
        return berezin_integral(G, _quadratic_form(sc.A), radial_nodes=rn,
                                angle_nodes=an, r_max=r_max,
                                reduce_u1=reduce_u1)

    fine = run(radial_nodes, angle_nodes)
    coarse = run(max(8, (2 * radial_nodes) // 3), max(8, (2 * angle_nodes) // 3))
    return fine, abs(fine - coarse)


def _super_expectation_mc(sc, top, n, seed):
    """Importance-sample the Gaussian weight: E_C F = sign det(C) E_mu[top]
    with phi ~ mu_C, times the Berezin volume sign and pi factors folded in.

    Derivation: int e^{-(phi, A phibar)} f du dv = pi^M det(C) E_mu[f].
    """
    M = sc.C.shape[0]
    L = np.linalg.cholesky(sc.C)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    z = (rng.normal(size=(n, M)) + 1j * rng.normal(size=(n, M))) / math.sqrt(2.0)
    phi = z @ L.T
    vals = top.evaluate(phi, np.conj(phi))
    det = np.linalg.det(sc.C)
    sign = _volume_reorder_sign(M)
    mean = complex(vals.mean())
    se = float(np.abs(vals - mean).std() / math.sqrt(n))
    scale = sign * det
    return scale * mean, abs(scale) * se


# ---------------------------------------------------------------------------
# theta and fluctuation integration
# ---------------------------------------------------------------------------

def theta_map(F: GrassmannForm) -> GrassmannForm:
    """Replace every field by field + fluctuation on a doubled basis.

    Site x's fluctuation partner is site M + x; coefficients become
    polynomials in phi + xi (exact substitution).
    """
    basis = F.basis
    M = basis.M
    dbasis = basis.doubled()
    out = GrassmannForm(dbasis, {})
    for (a, b), c in F.coeffs.items():
        term = GrassmannForm(dbasis, {(0, 0): c.shift_by_shadow()})
        for x in _bits(a):
            term = wedge_product(term, psi(dbasis, x) + psi(dbasis, M + x))
        for y in _bits(b):
            term = wedge_product(term, psibar(dbasis, y) + psibar(dbasis, M + y))
        out = out + term
    return out


def _bits(mask):
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _split_sign(A, B, M):
    """Sign factoring psi^A psibar^B into (external)(fluctuation) blocks.

    External generators are sites < M.  Returns the parity of reordering
    the canonical sequence into ext-psi, ext-psibar, fl-psi, fl-psibar.
    """
    seq = [(0 if x < M else 2, 0, x) for x in _bits(A)]
    seq += [(0 if y < M else 2, 1, y) for y in _bits(B)]
    keyed = sorted(range(len(seq)), key=lambda i: seq[i])
    return _perm_parity(keyed)


def integrate_fluctuation(F2: GrassmannForm, C, phi_ext, *, radial_nodes=32,
                          angle_nodes=16, r_max=None):
    """E_C theta-style fluctuation integral of a doubled-basis form.

    ``F2`` lives on a doubled basis (2M sites: external then fluctuation);
    the fluctuation fields are integrated with covariance ``C`` while the
    external fields are spectators evaluated at the rows of ``phi_ext``
    (shape (npts, M)).  Returns a dict {(a, b): values} over external
    monomials: a form on the external basis with numerically evaluated
    coefficients.
    """
    sc = C if isinstance(C, SuperCovariance) else SuperCovariance.from_matrix(C)
    M = sc.C.shape[0]
    if F2.basis.M != 2 * M:
        raise ValueError("form does not live on the doubled basis")
    phi_ext = np.asarray(phi_ext, dtype=complex)
    lam_min = float(np.linalg.eigvalsh(0.5 * (sc.A + sc.A.conj().T)).min())
    rm = math.sqrt(42.0 / lam_min) if r_max is None else r_max
    axes = _boson_axes(M, radial_nodes, angle_nodes, rm, False)
    fl_groups = _axis_groups(axes)
    # the fluctuation weight exp(-(xi, A xibar)) on the flattened xi grid
    W = _quadratic_form(sc.A)
    _real_exponent_check(W)
    gauss = np.exp(-_outer_sum(*_term_tables(W, fl_groups)).real).ravel()

    # fermionic weight on the fluctuation block
    A_fl = np.zeros((2 * M, 2 * M), dtype=complex)
    A_fl[M:, M:] = -sc.A
    G = wedge_product(exp_even_form(_fermi_action(F2.basis, A_fl)), F2)

    full_fl = ((1 << M) - 1) << M
    sign_vol = _volume_reorder_sign(M)
    # the external points are one group, each fluctuation axis another
    groups = [(phi_ext, np.conj(phi_ext))] + fl_groups
    out = {}
    for (a, b), c in G.coeffs.items():
        if (a & full_fl) != full_fl or (b & full_fl) != full_fl:
            continue  # fermionic fluctuation integral kills everything else
        a_ext, b_ext = a & ~full_fl, b & ~full_fl
        sign = _split_sign(a, b, M)
        cs, tabs = _term_tables(c, groups)
        fl = _outer([t * w for t, (_, w) in zip(tabs[1:], axes)])
        integ = tabs[0].T @ (cs * (fl @ gauss))
        contrib = sign * sign_vol * math.pi**-M * integ
        key = (a_ext, b_ext)
        out[key] = out.get(key, 0) + contrib
    return out


# exact Wick / heat-kernel convolution for polynomial forms ------------------

def _dpsi(F: GrassmannForm, u: int) -> GrassmannForm:
    out = {}
    for (a, b), c in F.coeffs.items():
        if not (a >> u) & 1:
            continue
        sign = -1 if (a & ((1 << u) - 1)).bit_count() & 1 else 1
        out[(a & ~(1 << u), b)] = c * float(sign)
    return GrassmannForm(F.basis, out)


def _dpsibar(F: GrassmannForm, v: int) -> GrassmannForm:
    out = {}
    for (a, b), c in F.coeffs.items():
        if not (b >> v) & 1:
            continue
        sign = -1 if (a.bit_count() + (b & ((1 << v) - 1)).bit_count()) & 1 else 1
        out[(a, b & ~(1 << v))] = c * float(sign)
    return GrassmannForm(F.basis, out)


def _laplacian_C(F: GrassmannForm, C) -> GrassmannForm:
    """Delta_C F = sum C_{vu} (d_phi_u d_phibar_v - d_psibar_v d_psi_u) F."""
    basis = F.basis
    out = GrassmannForm(basis, {})
    M = C.shape[0]
    for u in range(M):
        for v in range(M):
            cvu = C[v, u]
            if cvu == 0:
                continue
            bos = {}
            for key, c in F.coeffs.items():
                dc = c.derivative(u).derivative(v, bar=True)
                if not dc.is_zero():
                    bos[key] = dc
            out = out + GrassmannForm(basis, bos) * cvu
            out = out + _dpsibar(_dpsi(F, u), v) * (-cvu)
    return out


def gaussian_convolve_poly(F: GrassmannForm, C) -> GrassmannForm:
    """Exact E_C theta F for polynomial forms: apply exp(Delta_C).

    Wick's rule as a terminating heat-kernel series; the fermionic and
    bosonic contractions cancel on supersymmetric combinations (e.g.
    E_C theta tau_x = tau_x).
    """
    C = np.asarray(C, dtype=complex)
    result = F
    term = F
    k = 0
    while True:
        k += 1
        term = _laplacian_C(term, C) * (1.0 / k)
        if not term.coeffs:
            break
        result = result + term
        if k > 4 * F.basis.M + 8:
            raise RuntimeError("heat-kernel series failed to terminate")
    return result


def convolution_identity_check(C1, C2, F: GrassmannForm, *, radial_nodes=32,
                               angle_nodes=16) -> float:
    """Max residual of E_{C1+C2} theta F = (E_{C2} theta o E_{C1} theta) F.

    The left side integrates the fluctuation in one step (quadrature); the
    right side convolves exactly with C1 (Wick, polynomial coefficients)
    and then integrates the remaining fluctuation with C2 by quadrature.
    Both sides are compared coefficient-by-coefficient at five fixed
    random external-field points.
    """
    M = F.basis.M
    rng = np.random.Generator(np.random.Philox(key=np.uint64(7)))
    phi_points = (rng.normal(size=(5, M)) + 1j * rng.normal(size=(5, M))) * 0.5
    C1 = np.asarray(C1, dtype=complex)
    C2 = np.asarray(C2, dtype=complex)
    lhs = integrate_fluctuation(theta_map(F), C1 + C2, phi_points,
                                radial_nodes=radial_nodes,
                                angle_nodes=angle_nodes)
    inner = gaussian_convolve_poly(F, C1)
    rhs = integrate_fluctuation(theta_map(inner), C2, phi_points,
                                radial_nodes=radial_nodes,
                                angle_nodes=angle_nodes)
    keys = set(lhs) | set(rhs)
    worst = 0.0
    for k in keys:
        l = np.asarray(lhs.get(k, 0.0))
        r = np.asarray(rhs.get(k, 0.0))
        worst = max(worst, float(np.max(np.abs(l - r))))
    return worst


# ---------------------------------------------------------------------------
# Interaction, self-normalisation, two-point function
# ---------------------------------------------------------------------------

def interaction_form(basis, laplacian, g, nu, p=None) -> GrassmannForm:
    """V = sum_x (p_x tau_{Delta,x} + g_x tau_x^2 + nu_x tau_x)."""
    M = basis.M
    g = np.broadcast_to(np.asarray(g, dtype=float), (M,))
    nu = np.broadcast_to(np.asarray(nu, dtype=float), (M,))
    V = tau_delta_form(basis, laplacian, weights=p)
    for x in range(M):
        if g[x]:
            V = V + tau_squared_form(basis, x) * g[x]
        if nu[x]:
            V = V + tau_form(basis, x) * nu[x]
    return V


def _auto_rmax(g, nu):
    g = float(np.min(g)) if np.ndim(g) else float(g)
    nu_min = float(np.min(nu)) if np.ndim(nu) else float(nu)
    if g > 0:
        # quartic decay dominates; exp(-g r^4 - nu r^2) < 1e-18
        r4 = (42.0 + abs(nu_min) ** 2 / (4 * g)) / g
        return min(r4 ** 0.25 + 1.0, 12.0)
    if nu_min > 0:
        return math.sqrt(42.0 / nu_min)
    raise ValueError("need g > 0, or g = 0 with nu > 0 (divergent integral)")


def self_normalisation_value(laplacian, p, q, r, *, radial_nodes=48,
                             angle_nodes=24, reduce_u1=None) -> complex:
    """int exp(-sum_x (p_x tau_{Delta,x} + q_x tau_x^2 + r_x tau_x)).

    Equals 1 identically for p_x >= 0, q_x > 0 (supersymmetry); evaluated
    numerically as a machinery check.
    """
    lap = np.asarray(laplacian, dtype=float)
    M = lap.shape[0]
    basis = FermionBasis(M)
    q = np.broadcast_to(np.asarray(q, dtype=float), (M,))
    r = np.broadcast_to(np.asarray(r, dtype=float), (M,))
    if np.any(q <= 0):
        raise ValueError("q must be positive")
    V = interaction_form(basis, lap, q, r, p=p)
    if reduce_u1 is None:
        reduce_u1 = M >= 3
    return berezin_integral(exp_even_form(V * -1.0), V.degree0(),
                            radial_nodes=radial_nodes,
                            angle_nodes=angle_nodes,
                            r_max=_auto_rmax(q, r), reduce_u1=reduce_u1)


def two_point_integral(laplacian, g, nu, a, b, method="grassmann", *,
                       radial_nodes=64, angle_nodes=32,
                       reduce_u1=None) -> float:
    """Two-point function of the weakly self-avoiding walk on a graph.

    method="grassmann": superintegral of exp(-sum_x (tau_Delta + g tau^2 +
    nu tau)) phibar_a phi_b via the symbolic fermion algebra.
    method="determinant": integrate out the fermions first;
    int det(L + nu + 2g|phi|^2) phibar_a phi_b exp(-(phi, L phibar)
    - sum (g|phi|^4 + nu|phi|^2)) prod du dv / pi, det by principal minors.

    Valid for g > 0, or g = 0 with nu > 0.
    """
    lap = np.asarray(laplacian, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"laplacian must be square, got shape {lap.shape}")
    M = lap.shape[0]
    if not all(isinstance(v, numbers.Integral) and 0 <= v < M for v in (a, b)):
        raise ValueError(f"vertices a={a}, b={b} not in 0..{M - 1}")
    if g < 0 or (g == 0 and nu <= 0):
        raise ValueError("need g > 0, or g = 0 with nu > 0 (divergent)")
    if reduce_u1 is None:
        reduce_u1 = M >= 3
    r_max = _auto_rmax(g, nu)
    basis = FermionBasis(M)
    V = interaction_form(basis, lap, g, nu)
    obs = wedge_product(phibar_poly(basis, a), phi_poly(basis, b))
    if method == "grassmann":
        G = wedge_product(exp_even_form(V * -1.0), obs)
        val = berezin_integral(G, V.degree0(), radial_nodes=radial_nodes,
                               angle_nodes=angle_nodes, r_max=r_max,
                               reduce_u1=reduce_u1)
        return float(val.real)
    if method != "determinant":
        raise ValueError(f"unknown method {method!r}")
    d = [tau_form(basis, x).degree0() * (2.0 * g) + nu for x in range(M)]
    f = obs.degree0() * _shifted_det(lap, d)
    axes = _boson_axes(M, radial_nodes, angle_nodes, r_max, reduce_u1)
    return float(_grid_integral(f, V.degree0(), axes).real)


def _shifted_det(L, d):
    """det(L + diag(d)) for polynomials d_x, by the principal-minor expansion
    sum_{S subset V} det(L[S^c, S^c]) prod_{x in S} d_x (empty minor 1)."""
    M = len(d)
    out = FieldPolynomial(M)
    for S in range(1 << M):
        rest = [x for x in range(M) if not S >> x & 1]
        minor = FieldPolynomial.constant(M, np.linalg.det(L[np.ix_(rest, rest)]))
        out = out + math.prod((d[x] for x in _bits(S)), start=minor)
    return out
