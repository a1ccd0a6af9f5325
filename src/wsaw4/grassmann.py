"""Finite Grassmann algebra over a graph, Berezin integration, and the
supersymmetric integral representation of the two-point function.

A differential form over sites ``{0..M-1}`` is stored as a dictionary from
fermion monomials to coefficients,

    F = sum  F_{a,b}(phi, phibar) psi^a psibar^b,

where ``a`` and ``b`` are bitmasks, and the canonical monomial order is all
psi factors by ascending site followed by all psibar factors by ascending
site.  Coefficients are exact multivariate polynomials in
``(phi_x, phibar_x)`` (:class:`FieldPolynomial`).  No sign is entered by
hand: every reordering sign comes from one of two rules.  Inversion
counting merges ascending generator lists (the wedge, the fermion
derivative); the block swap moves a block of p generators past one of q
for ``(-1)^{pq}`` (the wedge's psibar block past psi, the fluctuation
integral's fluctuation psi past external psibar).  The Berezin volume
order's sign is its inversion count in closed form, ``(-1)^{M(M+1)/2}``.  A
boson weight ``exp(-W)`` is never a coefficient: it is passed to the
integrator as its polynomial exponent ``W``.

Berezin integration uses the normalisation ``psibar_x psi_x = du_x dv_x / pi``
(the fermions are the scaled differentials of the boson field; the square
root of 2 pi i implicit in that scaling is fixed once and never appears in
an observable, which always pairs psi with psibar).  The integral of a form
is pi^{-M} times the Lebesgue integral of its top-degree coefficient times
``exp(-W)``, after reordering the top monomial into the volume form,
evaluated by per-site polar quadrature (Gauss-Legendre radius times uniform
angles); site 0's phase is fixed whenever the top coefficient and ``W`` are
both U(1)-invariant (each term has as many phi as phibar factors).

Polynomials are evaluated on the factored grid, never point by point: each
site's axis is one-dimensional, so a monomial ``prod_x phi_x^a phibar_x^b``
is the outer product of per-axis tables ``v^a conj(v)^b`` built by repeated
multiplication; a flat point set is the one-group case.  ``W`` must be
real-valued: its coefficients must satisfy ``c_{a,b} = conj(c_{b,a})`` to
1e-12 relative (else ``ValueError``), so per tile of the grid ``exp(-W)``
is one real matrix product (``Re ab = Re a Re b - Im a Im b``), and a
second contracts the top coefficient's terms against it: the coefficient
itself is never formed on the grid.  A tile holds at most ``_TILE_POINTS``
points, or one row of the last axis where that row is larger.  The
fluctuation integral of :func:`integrate_fluctuation` takes its per-term
sums from the same tile loop, so no array spans more than a tile of any
grid.  When ``W`` has real coefficients, ``exp(-W)`` and every monomial's
conjugate are their values at ``conj(phi)``, a grid point: each term's grid
sum is twice the real part of its sum over half the grid, ``theta <= pi``
on the first angular axis.  A complex-coefficient ``W`` keeps the full grid.

The Gaussian super-expectation ``E_C F = int exp(-S_A) F`` (``A = C^{-1}``,
``S_A = (phi, A phibar) + (psi, A psibar)``) needs no normalising constant:
supersymmetry makes ``E_C 1 = 1`` automatic.  For the polynomial forms held
here ``E_C`` is the exact Wick operator: ``E_C F`` is ``exp(Delta_C) F``, a
terminating heat-kernel series, at zero fields.  ``theta`` doubles the field
by one shift, the same for every generator: boson or fermion, site x's
becomes itself plus site M + x's (``phi -> phi + xi``, ``psi -> psi +
eta``).  Integrating out the fluctuation realises progressive integration,
by quadrature or exactly by the same operator ``exp(Delta_C)``.

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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice_green import _gauss_legendre, _is_integer

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
    "berezin_integral",
    "super_expectation",
    "theta_map",
    "integrate_fluctuation",
    "gaussian_convolve_poly",
    "convolution_identity_check",
    "self_normalisation_value",
    "two_point_integral",
]

_TILE_POINTS = 2**18  # exp(-W) points per tile: 2 MiB of float64, a core's L2


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
        c, (table,) = _term_tables(self, [group])
        return (c @ table).reshape(shape)

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


def _fermi_action(basis, A) -> GrassmannForm:
    """sum_{xy} A_{xy} psi_x psibar_y as a form with constant coefficients."""
    M = basis.M
    coeffs = {}
    for x in range(M):
        for y in range(M):
            if A[x, y] != 0:
                coeffs[(1 << x, 1 << y)] = FieldPolynomial.constant(M, A[x, y])
    return GrassmannForm(basis, coeffs)


def _super_quadratic(basis, S) -> GrassmannForm:
    """(phi, S phibar) + (psi, S psibar): sum_{xy} S_xy (phi_x phibar_y
    + psi_x psibar_y)."""
    coeffs = _fermi_action(basis, S).coeffs
    coeffs[(0, 0)] = _quadratic_form(S)
    return GrassmannForm(basis, coeffs)


def tau_form(basis, x) -> GrassmannForm:
    """tau_x = phi_x phibar_x + psi_x psibar_x."""
    S = np.zeros((basis.M, basis.M))
    S[x, x] = 1.0
    return _super_quadratic(basis, S)


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
    return _super_quadratic(basis, 0.5 * (p[:, None] * L + L * p[None, :]))


def exp_even_form(F: GrassmannForm) -> GrassmannForm:
    """exp(F - F0) for an even form F: a terminating series.

    The scalar factor e^{F0} is omitted: it is a boson weight, which the
    integrators take as the exponent ``W = -F0`` (see berezin_integral).
    Polynomial coefficients stay polynomial.
    """
    if F.parity() not in ("even",):
        raise ValueError("exp_even_form needs an even form")
    N = GrassmannForm(F.basis, {k: c for k, c in F.coeffs.items() if k != (0, 0)})
    return _exp_series(GrassmannForm.from_scalar(F.basis, 1.0),
                       lambda P: wedge_product(P, N), F.basis.M)


def _exp_series(F, step, n) -> GrassmannForm:
    """exp(step) F = sum_{k <= n} step^k F / k! for a linear ``step`` that
    is nilpotent past n powers; stops at the first vanishing term."""
    result = term = F
    for k in range(1, n + 1):
        term = step(term) * (1.0 / k)
        if not term.coeffs:
            break
        result = result + term
    return result


# ---------------------------------------------------------------------------
# Berezin integration
# ---------------------------------------------------------------------------

def _auto_rmax(g, nu):
    """Radius past which exp(-g r^4 - nu r^2) < e^{-42} of its peak, all
    sites; raises where the integral diverges."""
    g, nu_min = float(np.min(g)), float(np.min(nu))
    if g < 0 or (g == 0 and nu_min <= 0):
        raise ValueError("need g > 0, or g = 0 with nu > 0 (divergent integral)")
    cuts = [math.sqrt(42.0 / nu_min)] if nu_min > 0 else []
    if g > 0:  # the quartic decay, and past the peak at r^2 = -nu/2g if nu < 0
        peak = max(-nu_min, 0.0) / (2 * g)
        cuts.append(max(((42.0 + abs(nu_min) ** 2 / (4 * g)) / g) ** 0.25 + 1.0,
                        math.sqrt(peak + math.sqrt(42.0 / g))))
    return min(cuts)


def _gaussian_rmax(A, degree=0):
    """Radius past which ``r^(degree+1) exp(-lambda_min r^2)`` is e^{-42}
    below its peak: the polar weight of a degree-``degree`` integrand
    against exp(-(phi, A phibar)), lambda_min the least eigenvalue of Re A.
    """
    from scipy.special import lambertw  # only fluctuation integrals load it
    lam = np.linalg.eigvalsh(0.5 * (A + A.conj().T)).min()
    if lam <= 0:
        raise ValueError("Gaussian weight needs a positive-definite Re A")
    # x = lam r^2 solves x - a log x = a - a log a + 42 past the peak x = a
    a = 0.5 * (degree + 1)
    return math.sqrt(-a * lambertw(-math.exp(-1.0 - 42.0 / a), -1).real / lam)


def _boson_axes(M, radial_nodes, angle_nodes, r_max, reduce_u1, fold=False):
    """Per-site ``(values, weights)`` of the polar grid; ``fold`` keeps one
    point of each conjugate pair: ``theta <= pi`` on the first angular axis
    (k pairs with n - 1 - k; ``theta = pi`` is its own, at half weight)."""
    for name, n in (("radial_nodes", radial_nodes),
                    ("angle_nodes", angle_nodes)):
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")
    x, w = _gauss_legendre(radial_nodes)
    r = 0.5 * r_max * (x + 1.0)
    wr = 0.5 * r_max * w * r  # includes the polar Jacobian r dr
    axes = [(r.astype(complex), wr * 2.0 * np.pi)] if reduce_u1 else []
    for site in range(len(axes), M):
        half = fold and site == reduce_u1
        k = np.arange((angle_nodes + 1) // 2 if half else angle_nodes)
        th = 2.0 * np.pi * (k + 0.5) / angle_nodes
        wth = np.where(half & (2 * k + 1 == angle_nodes), 0.5, 1.0) \
            * (2.0 * np.pi / angle_nodes)
        axes.append(((r[:, None] * np.exp(1j * th)).ravel(),
                     (wr[:, None] * wth).ravel()))
    if fold and M == reduce_u1:  # no angles: every point is its own pair
        axes[0] = (axes[0][0], 0.5 * axes[0][1])
    return axes


def _volume_reorder_sign(M):
    """Sign reordering psi_0..psi_{M-1} psibar_0..psibar_{M-1} into the
    volume order (psibar_0 psi_0)(psibar_1 psi_1)...: psibar_x passes
    psi_x..psi_{M-1}, M - x generators, so the parity is M(M+1)/2."""
    return (-1) ** (M * (M + 1) // 2)


def berezin_integral(F: GrassmannForm, exponent: FieldPolynomial, *,
                     radial_nodes=48, angle_nodes=24, r_max) -> complex:
    """Integrate ``F exp(-W)`` over C^M with the normalisation
    ``int f prod_x psibar_x psi_x = pi^{-M} int f du dv``.

    ``exponent`` is the boson weight's exponent ``W``, a real-valued
    polynomial (checked).  Only the top-degree monomial of F contributes.
    Radii run over ``[0, r_max]``; site 0's phase is fixed when the top
    coefficient and ``W`` are both U(1)-invariant.
    """
    top = F.coeffs.get((F.basis.full_mask, F.basis.full_mask))
    if top is None:
        return 0.0 + 0.0j
    return _volume_reorder_sign(F.basis.M) * _grid_integral(
        top, exponent, radial_nodes, angle_nodes, r_max)


def _u1_invariant(poly):
    """Whether poly(e^{it} phi) = poly(phi) (as many phi as phibar factors)."""
    return all(sum(a) == sum(b) for a, b in poly.terms)


def _weight(c, tables, last):
    """exp(-W) for the real W = sum_k c_k outer_g tables[g][k] last[k], as a
    float64 (n_i, n_j) array by one real matrix product; ``last`` is the last
    group's (K, n_j) table as a (2K, n_j) float array, Re above Im."""
    a = c[:, None] * _outer(tables)
    E = np.concatenate([-a.real, a.imag]).T @ last
    return np.exp(E, out=E)


def _real_coefficients(poly):
    """Whether poly(conj phi) = conj poly(phi): every coefficient is real."""
    return all(complex(c).imag == 0 for c in poly.terms.values())


def _term_sums(tabs, axes, exponent, fold):
    """Each term's grid sum against exp(-W), W real (checked), from per-axis
    term tables ``tabs``.  A tile is one point of each axis before k, rows
    of k and all of the axes after it, k the first axis whose trailing
    product fits ``_TILE_POINTS``; no tile splits the last axis, j.  Per tile,
    A (K, n) is the weighted outer table of all axes but j; P = exp(-W) B^T
    (n, K), B the weighted table of j, is one real matrix product; term t's
    tile sum is sum_i A[t, i] P[i, t], tile sums added pairwise.  On a
    folded grid the full grid's sum is twice the real part."""
    _real_exponent_check(exponent)
    groups = _axis_groups(axes)
    tabs = [t * w for t, (_, w) in zip(tabs, axes)]  # fold in the weights
    cw, wtabs = _term_tables(exponent, groups)
    if len(axes) == 1:  # i is the axis, j one point: numpy sums pairwise
        tabs.append(np.ones_like(tabs[0][:, :1]))
        wtabs.append(np.ones_like(cw[:, None]))
    last = np.ascontiguousarray(tabs[-1].T).view(float)  # (n_j, 2K): Re, Im
    wlast = np.concatenate([wtabs[-1].real, wtabs[-1].imag])
    n = [t.shape[1] for t in tabs]
    k = next((k for k in range(len(n) - 2)
              if math.prod(n[k + 1:]) <= _TILE_POINTS), len(n) - 2)
    step = max(1, _TILE_POINTS // math.prod(n[k + 1:]))
    cuts = [[slice(i, i + 1) for i in range(m)] for m in n[:k]]
    cuts.append([slice(lo, lo + step) for lo in range(0, n[k], step)])
    parts = []
    for cut in itertools.product(*cuts):  # a tile's tables of all axes but j
        wt, tt = ([t[:, s] for t, s in zip(ts, cut)] + ts[k + 1:-1]
                  for ts in (wtabs, tabs))
        P = (_weight(cw, wt, wlast) @ last).view(complex)
        parts.append(np.sum(_outer(tt) * P.T, axis=1))
    S = np.stack(parts, axis=1).sum(axis=1)
    return 2.0 * S.real if fold else S


def _grid_integral(f, exponent, radial_nodes, angle_nodes, r_max):
    """pi^{-M} int f exp(-W) du dv on the polar grid (site 0 the radius alone
    if f and W are U(1)-invariant, folded if W has real coefficients), f
    never formed on the grid: its coefficients meet the per-term sums."""
    fold = _real_coefficients(exponent)
    axes = _boson_axes(f.M, radial_nodes, angle_nodes, r_max,
                       _u1_invariant(f) and _u1_invariant(exponent), fold)
    c, tabs = _term_tables(f, _axis_groups(axes))
    return math.pi**-len(axes) * complex(c @ _term_sums(tabs, axes, exponent,
                                                        fold))


# ---------------------------------------------------------------------------
# Gaussian super-expectation
# ---------------------------------------------------------------------------

def _covariance(C):
    """``(C, A = C^{-1})``, complex, for a covariance that is Hermitian to
    1e-12 relative with a positive-definite Hermitian part and an inverse
    accurate to 1e-12; else ``ValueError``."""
    C = np.asarray(C, dtype=complex)
    if np.abs(C - C.conj().T).max() > 1e-12 * np.abs(C).max():
        raise ValueError("covariance must be Hermitian to 1e-12 relative")
    if np.linalg.eigvalsh(0.5 * (C + C.conj().T)).min() <= 0:
        raise ValueError("covariance must have positive-definite "
                         "Hermitian part")
    A = np.linalg.inv(C)
    if np.abs(A @ C - np.eye(C.shape[0])).max() > 1e-12:
        raise ValueError("inverse not accurate to 1e-12")
    return C, A


def super_expectation(C, F: GrassmannForm) -> complex:
    """E_C F = int exp(-S_A) F with A = C^{-1}; no normalising constant.

    Exact by Wick's rule: the value of ``exp(Delta_C) F``
    (:func:`gaussian_convolve_poly`) at zero fields.
    """
    C, _ = _covariance(C)
    zero = ((0,) * F.basis.M,) * 2
    return complex(gaussian_convolve_poly(F, C).degree0().terms.get(zero, 0))


# ---------------------------------------------------------------------------
# theta and fluctuation integration
# ---------------------------------------------------------------------------

def theta_map(F: GrassmannForm) -> GrassmannForm:
    """Replace every field by field + fluctuation on a doubled basis.

    Site x's fluctuation partner is site M + x; coefficients become
    polynomials in phi + xi (exact substitution).
    """
    M = F.basis.M
    dbasis = F.basis.doubled()
    out = GrassmannForm(dbasis, {})
    for (a, b), c in F.coeffs.items():
        for (alpha, beta), k in c.terms.items():
            gens = [(gen, x) for gen, powers in ((phi_poly, alpha),
                                                 (phibar_poly, beta))
                    for x, e in enumerate(powers) for _ in range(e)]
            gens += [(psi, x) for x in _bits(a)] + [(psibar, y) for y in _bits(b)]
            term = GrassmannForm.from_scalar(dbasis, k)
            for gen, x in gens:  # the canonical order
                term = wedge_product(term, gen(dbasis, x) + gen(dbasis, M + x))
            out = out + term
    return out


def _bits(mask):
    """The set bits of ``mask``, ascending."""
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def integrate_fluctuation(F2: GrassmannForm, C, phi_ext, *, radial_nodes=32,
                          angle_nodes=16):
    """E_C theta-style fluctuation integral of a doubled-basis form.

    ``F2`` lives on a doubled basis (2M sites: external then fluctuation);
    the fluctuation fields are integrated with covariance ``C`` while the
    external fields are spectators evaluated at the rows of ``phi_ext``
    (shape (npts, M)).  Returns a dict {(a, b): values} over external
    monomials: a form on the external basis with numerically evaluated
    coefficients.
    """
    C, A = _covariance(C)
    M = C.shape[0]
    if F2.basis.M != 2 * M:
        raise ValueError("form does not live on the doubled basis")
    phi_ext = np.asarray(phi_ext, dtype=complex)

    # fermionic weight on the fluctuation block
    A_fl = np.zeros((2 * M, 2 * M), dtype=complex)
    A_fl[M:, M:] = -A
    G = wedge_product(exp_even_form(_fermi_action(F2.basis, A_fl)), F2)

    full_fl = ((1 << M) - 1) << M
    # only full monomials survive the fermionic fluctuation integral
    full = {(a, b): c for (a, b), c in G.coeffs.items()
            if (a & full_fl) == full_fl and (b & full_fl) == full_fl}
    if not full:
        return {}
    degree = max((sum(p[M:]) + sum(q[M:])
                  for c in full.values() for p, q in c.terms), default=0)
    W = _quadratic_form(A)  # the fluctuation weight exp(-(xi, A xibar))
    fold = _real_coefficients(W)
    axes = _boson_axes(M, radial_nodes, angle_nodes,
                       _gaussian_rmax(A, degree), False, fold)
    sign_vol = _volume_reorder_sign(M)
    # the external points are one group, each fluctuation axis another
    groups = [(phi_ext, np.conj(phi_ext))] + _axis_groups(axes)
    keep = [(key, _term_tables(c, groups)) for key, c in full.items()]
    stacked = [np.concatenate(t) for t in zip(*(tabs[1:] for _, (_, tabs) in keep))]
    fl = _term_sums(stacked, axes, W, fold)
    ends = np.cumsum([len(cs) for _, (cs, _) in keep])[:-1]
    out = {}
    for ((a, b), (cs, tabs)), part in zip(keep, np.split(fl, ends)):
        integ = tabs[0].T @ (cs * part)
        ext = (a & ~full_fl, b & ~full_fl)
        # the block swap (fl-psi)(ext-psibar) -> (ext-psibar)(fl-psi) puts
        # the canonical monomial in (external)(fluctuation) order
        sign = (-1) ** ((a >> M).bit_count() * ext[1].bit_count())
        out[ext] = out.get(ext, 0) + sign * sign_vol * math.pi**-M * integ
    return out


# exact Wick / heat-kernel convolution for polynomial forms ------------------

def _dfermion(F: GrassmannForm, x: int, bar=False) -> GrassmannForm:
    """Left derivative by psi_x (psibar_x if ``bar``): the sign is the
    parity of the generators ahead of it in the canonical order."""
    g = F.basis.M * bar + x  # its position: psi_0..psi_{M-1}, psibar_0..
    out = {}
    for (a, b), c in F.coeffs.items():
        m = a | b << F.basis.M
        if m >> g & 1:
            sign = -1.0 if (m & ((1 << g) - 1)).bit_count() & 1 else 1.0
            m ^= 1 << g
            out[(m & F.basis.full_mask, m >> F.basis.M)] = c * sign
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
            out = out + _dfermion(_dfermion(F, u), v, bar=True) * (-cvu)
    return out


def gaussian_convolve_poly(F: GrassmannForm, C) -> GrassmannForm:
    """Exact E_C theta F for polynomial forms: apply exp(Delta_C).

    Wick's rule as a terminating heat-kernel series; the fermionic and
    bosonic contractions cancel on supersymmetric combinations (e.g.
    E_C theta tau_x = tau_x).  Each Delta_C lowers the total (boson plus
    fermion) degree by 2, so a form of degree D needs D // 2 of them.
    """
    C = np.asarray(C, dtype=complex)
    M = F.basis.M
    if C.shape != (M, M):
        raise ValueError(f"covariance shape {C.shape} does not match "
                         f"the basis of {M} sites")
    D = max((a.bit_count() + b.bit_count()
             + max(sum(p) + sum(q) for p, q in c.terms)
             for (a, b), c in F.coeffs.items()), default=0)
    return _exp_series(F, lambda P: _laplacian_C(P, C), D // 2)


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

def _interaction_form(basis, laplacian, g, nu, p=None) -> GrassmannForm:
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


def _square_laplacian(laplacian):
    lap = np.asarray(laplacian, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"laplacian must be square, got shape {lap.shape}")
    return lap


def _check_finite(**values):
    """Raise naming the first of ``values`` with a non-finite entry."""
    for name, v in values.items():
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite, got {v}")


def _finite(value, **couplings):
    """value, or a ValueError naming the couplings where it is not finite:
    the integral, or its grid sum, overflows float64 there."""
    if not np.isfinite(value):
        named = ", ".join(f"{k} = {v}" for k, v in couplings.items())
        raise ValueError(f"Berezin integral is not finite in float64 at {named}")
    return value


def _superintegral(V, obs, radial_nodes, angle_nodes, r_max) -> complex:
    """int exp(-V) obs: the fermion part of exp(-V) by its series, the boson
    part ``exp(-V_0)`` as the integrator's weight."""
    return berezin_integral(wedge_product(exp_even_form(V * -1.0), obs),
                            V.degree0(), radial_nodes=radial_nodes,
                            angle_nodes=angle_nodes, r_max=r_max)


def self_normalisation_value(laplacian, p, q, r, *, radial_nodes=48,
                             angle_nodes=24) -> complex:
    """int exp(-sum_x (p_x tau_{Delta,x} + q_x tau_x^2 + r_x tau_x)).

    Equals 1 identically for p_x >= 0, q_x > 0 (supersymmetry); evaluated
    numerically as a machinery check.  A value that is not finite raises
    ValueError naming p, q and r.
    """
    _check_finite(p=p, q=q, r=r)
    lap = _square_laplacian(laplacian)
    M = lap.shape[0]
    basis = FermionBasis(M)
    q = np.broadcast_to(np.asarray(q, dtype=float), (M,))
    r = np.broadcast_to(np.asarray(r, dtype=float), (M,))
    if np.any(q <= 0):
        raise ValueError("q must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        value = _superintegral(_interaction_form(basis, lap, q, r, p=p),
                               GrassmannForm.from_scalar(basis, 1.0),
                               radial_nodes, angle_nodes, _auto_rmax(q, r))
    return _finite(value, p=p, q=q, r=r)


def two_point_integral(laplacian, g, nu, a, b, method="grassmann", *,
                       radial_nodes=64, angle_nodes=32) -> float:
    """Two-point function of the weakly self-avoiding walk on a graph.

    method="grassmann": superintegral of exp(-sum_x (tau_Delta + g tau^2 +
    nu tau)) phibar_a phi_b via the symbolic fermion algebra.
    method="determinant": integrate out the fermions first;
    int det(L + nu + 2g|phi|^2) phibar_a phi_b exp(-(phi, L phibar)
    - sum (g|phi|^4 + nu|phi|^2)) prod du dv / pi, det by principal minors.

    Valid for g > 0, or g = 0 with nu > 0.  A value that is not finite
    raises ValueError naming g and nu.
    """
    _check_finite(g=g, nu=nu)
    lap = _square_laplacian(laplacian)
    M = lap.shape[0]
    if not all(_is_integer(v) and 0 <= v < M for v in (a, b)):
        raise ValueError(f"vertices a={a}, b={b} not in 0..{M - 1}")
    r_max = _auto_rmax(g, nu)
    basis = FermionBasis(M)
    V = _interaction_form(basis, lap, g, nu)
    obs = wedge_product(phibar_poly(basis, a), phi_poly(basis, b))
    if method not in ("grassmann", "determinant"):
        raise ValueError(f"unknown method {method!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        if method == "grassmann":
            value = _superintegral(V, obs, radial_nodes, angle_nodes, r_max)
        else:
            d = [tau_form(basis, x).degree0() * (2.0 * g) + nu
                 for x in range(M)]
            f = obs.degree0() * _shifted_det(lap, d)
            value = _grid_integral(f, V.degree0(), radial_nodes, angle_nodes,
                                   r_max)
    return float(_finite(value.real, g=g, nu=nu))


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
