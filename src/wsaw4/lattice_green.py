"""Lattice Green functions and the bubble diagram on Z^d.

The lattice Laplacian is the nearest-neighbour one, ``(D f)(x) =
sum_{|e|=1} (f(x+e) - f(x))``, whose Fourier multiplier is ``lam(k) =
4 sum_j sin^2(k_j/2)`` on the Brillouin zone ``[-pi, pi]^d``.  The Green
function with killing rate ``m2`` is

    C_{m2}(x) = (-D + m2)^{-1}_{0x}
             = int_{[-pi,pi]^d} cos(k.x) / (lam(k) + m2)  dk/(2pi)^d,

and the bubble diagram is the squared l2 norm of the kernel,
``B = sum_x C(x)^2``, reported here in the convention ``Bsf = 8 B``.
In d = 4 the bubble diverges logarithmically as ``m2 -> 0`` with slope
``1/(2 pi^2)`` in ``log(1/m2)``.

Three geometries are supported: the infinite lattice (quadrature over the
Brillouin zone, with a dyadically graded grid that resolves the ``1/|k|^2``
singularity at ``m2 = 0``), a torus of a given period (exact finite Fourier
sums), and an explicit finite graph (dense matrix inversion).

The graded quadrature splits the zone into dyadic boxes ``[-pi/2^l, pi/2^l]^d``
and applies a tensor midpoint rule on each annular shell; the contribution of
the innermost box is used both as a stopping criterion and as part of the
reported error estimate.  A second pass at half resolution gives a Richardson
error estimate.

The midpoint grid is symmetric under the 2^d sign flips and d! axis
permutations of Z^d, and so is every integrand here: functions of the symbol,
and ``cos(k.x)`` once averaged over the signed permutations of ``x`` (which
leave ``C(x)`` unchanged).  The quadrature therefore evaluates one point per
orbit, ``0 < k_1 <= ... <= k_d``, weighted by the orbit's size: 3,876 points
per level instead of 32^4 = 1,048,576 in d = 4 at the default grid.  The
point set is the same as the full grid's, so only roundoff changes.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.special import ive

__all__ = [
    "LatticeSpec",
    "GreenEvaluation",
    "green_function",
    "green_function_with_error",
    "bubble_diagram",
    "bubble_diagram_with_error",
    "constant_a",
    "torus_green_table",
    "symbol",
    "heat_kernel_diagonal",
]


# ---------------------------------------------------------------------------
# Lattice geometries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeSpec:
    """Dimension plus geometry: infinite window, torus, or explicit graph.

    Use the constructors :meth:`window`, :meth:`torus`, :meth:`graph`.
    """

    d: int
    geometry: str
    period: int | None = None
    laplacian: np.ndarray | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.geometry not in ("window", "torus", "graph"):
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.geometry == "torus":
            if self.period is None or self.period < 1:
                raise ValueError("torus period must be >= 1")
        if self.geometry == "graph":
            L = self.laplacian
            if L is None or L.ndim != 2 or L.shape[0] != L.shape[1]:
                raise ValueError("graph geometry needs a square Laplacian matrix")
            if not np.allclose(L, L.T, atol=1e-12):
                raise ValueError("graph Laplacian must be symmetric")
            if not np.allclose(L.sum(axis=1), 0.0, atol=1e-12):
                raise ValueError("graph Laplacian rows must sum to zero")

    @staticmethod
    def window(d: int) -> "LatticeSpec":
        """Infinite lattice Z^d (values by Brillouin-zone quadrature)."""
        return LatticeSpec(d=d, geometry="window")

    @staticmethod
    def torus(d: int, period: int) -> "LatticeSpec":
        """Discrete torus (Z/period)^d (values by finite Fourier sums)."""
        return LatticeSpec(d=d, geometry="torus", period=period)

    @staticmethod
    def graph(laplacian: np.ndarray) -> "LatticeSpec":
        """Explicit finite graph given by its (positive semidefinite) Laplacian."""
        lap = np.asarray(laplacian, dtype=float)
        return LatticeSpec(d=1, geometry="graph", laplacian=lap)


@dataclass(frozen=True)
class GreenEvaluation:
    """Green-function values at a set of displacements, with error estimates."""

    m2: float
    value_at: dict = field(default_factory=dict)
    abs_error: float = 0.0


# ---------------------------------------------------------------------------
# Fourier symbol and graded Brillouin-zone quadrature
# ---------------------------------------------------------------------------

def symbol(k_axes) -> np.ndarray:
    """Laplacian multiplier 4 sum_j sin^2(k_j/2) for broadcastable axis arrays."""
    s = 0.0
    for k in k_axes:
        s = s + 4.0 * np.sin(0.5 * k) ** 2
    return s


@lru_cache(maxsize=None)
def _orbit_table(d: int, n: int):
    """One point per signed-permutation orbit of the n-point midpoint grid.

    Returns ``(half, mult, inner)``: ``half[ax]`` holds ``i_ax + 1/2`` for
    the representatives ``i_1 <= ... <= i_d < n/2`` of the positive
    half-axis; ``mult`` the number of grid points each one stands for,
    ``2^d d! / prod_r m_r!`` with ``m_r`` the multiplicities of repeated
    indices (no midpoint is 0, so every sign flip is a new point); and
    ``inner`` marks the points of the concentric half-box, ``i_d < n/4``.
    """
    idx = np.array(list(itertools.combinations_with_replacement(
        range(n // 2), d)))
    # prod_r m_r! is the product of each index's 1-based position in its
    # run of equal indices (the rows are sorted)
    run = np.ones(len(idx))
    denom = np.ones(len(idx))
    for ax in range(1, d):
        run = np.where(idx[:, ax] == idx[:, ax - 1], run + 1.0, 1.0)
        denom *= run
    mult = 2.0**d * math.factorial(d) / denom
    inner = idx[:, -1] < n // 4
    half = idx.T + 0.5
    for arr in (half, mult, inner):
        arr.setflags(write=False)
    return half, mult, inner


def _level_points(d: int, n: int, level: int):
    """Orbit representatives of the midpoint grid of [-pi/2^level, pi/2^level]^d.

    Returns ``(k_axes, mult, inner_mask, cell)``: ``mult`` counts the grid
    points each representative stands for, ``inner_mask`` marks the points
    of the concentric half-box (the next level's domain) and ``cell`` is the
    measure ``w^d/(2pi)^d`` of one grid cell.  n must be divisible by 4 so
    the half-box boundary falls on cell edges.
    """
    half, mult, inner = _orbit_table(d, n)
    a = np.pi / 2.0**level
    w = 2.0 * a / n
    return [h * w for h in half], mult, inner, w**d / (2.0 * np.pi) ** d


def graded_bz_sum(d, integrand=None, *, n=32, max_levels=60, rtol=1e-10,
                  min_halfwidth=0.0, reducer=None):
    """Integrate ``integrand(k_axes)`` over the Brillouin zone ``[-pi,pi]^d``.

    Dyadically graded midpoint rule: level ``l`` covers the annular shell
    between the boxes of half-width ``pi/2^l`` and ``pi/2^(l+1)``.  The walk
    stops once the current estimate of the innermost box is negligible
    (relative tolerance ``rtol``), the box is smaller than ``min_halfwidth``,
    or ``max_levels`` is reached; the innermost-box estimate is then added.

    The integrand must be invariant under every sign flip ``k_i -> -k_i``
    and every permutation of the axes: it is evaluated at one point per
    orbit of the grid (``0 < k_1 <= ... <= k_d``) and weighted by the
    orbit's size.

    The integrand may return a stack of shape ``(m, npts)`` for ``m``
    simultaneous integrals; a plain ``(npts,)`` return gives a scalar.
    Alternatively pass ``reducer(k_axes, weights, inner_mask) -> (shell_vec,
    inner_vec)`` of already point-summed contributions, each point counted
    ``weights`` times (the cell measure is applied here); this avoids
    materializing large stacks.

    Returns ``(value, inner_box_contribution)``.
    """
    if n % 4:
        raise ValueError("n must be divisible by 4")
    acc = None
    inner_sum = None
    for level in range(max_levels):
        ks, mult, inner, cell = _level_points(d, n, level)
        if reducer is not None:
            shell_sum, inner_sum = reducer(ks, mult, inner)
        else:
            vals = np.asarray(integrand(ks))
            shell_sum = vals[..., ~inner] @ mult[~inner]
            inner_sum = vals[..., inner] @ mult[inner]
        shell_sum = np.asarray(shell_sum) * cell
        inner_sum = np.asarray(inner_sum) * cell
        acc = shell_sum if acc is None else acc + shell_sum
        scale = np.max(np.abs(acc)) + np.max(np.abs(inner_sum))
        a_next = np.pi / 2.0 ** (level + 1)
        if level == max_levels - 1 or a_next <= min_halfwidth or \
                np.max(np.abs(inner_sum)) <= rtol * scale:
            acc = acc + inner_sum
            break
    return acc, inner_sum


def _window_green_raw(d, m2, x, n, max_levels):
    # C(x) is invariant under signed permutations of x, so reduce x to its
    # canonical form (every signed permutation then gives bit-identical
    # values) and average prod_i cos(k_i p_i) over its distinct
    # permutations p: that is the mean of cos(k'.x) over the orbit of k
    xc = (0.0,) * d if x is None else tuple(sorted(abs(float(c)) for c in x))
    perms = sorted(set(itertools.permutations(xc)))

    def f(ks):
        s = symbol(ks) + m2
        if not any(xc):
            return 1.0 / s
        acc = 0.0
        for p in perms:
            term = 1.0
            for pi, k in zip(p, ks):
                if pi:
                    term = term * np.cos(pi * k)
            acc = acc + term
        return acc / (len(perms) * s)

    val, _ = graded_bz_sum(d, f, n=n, max_levels=max_levels)
    return float(val)


def _check_richardson_grid(grid):
    # the Richardson estimate compares against a pass at grid // 2, which
    # the graded quadrature needs divisible by 4
    if grid < 8 or grid % 8:
        raise ValueError(f"grid must be a positive multiple of 8, got {grid}")


def _auto_levels(d, m2):
    # resolve structure down to the mass scale; 50 dyadic levels suffice for
    # m2 >= 1e-28, the singular m2 = 0 case stops via rtol instead
    if m2 <= 0.0:
        return 52
    return min(60, max(6, int(np.ceil(np.log2(np.pi / np.sqrt(m2)))) + 4))


# ---------------------------------------------------------------------------
# Green function
# ---------------------------------------------------------------------------

def green_function(spec: LatticeSpec, m2: float, x=None, *, grid: int = 32) -> float:
    """Green function ``(-D + m2)^{-1}_{0x}`` for the given lattice geometry.

    Parameters
    ----------
    spec : LatticeSpec
    m2 : float
        Killing rate (mass squared).  ``m2 = 0`` is allowed on the infinite
        window only for ``d > 2``; it is rejected on a torus or on a graph
        with a zero mode (singular matrix).
    x : displacement, optional
        Lattice displacement of ``d`` coordinates (defaults to the origin);
        any other length raises ValueError.  On the torus it is reduced
        modulo the period.  For graph geometry, a pair ``(a, b)`` of
        vertex indices in ``0 .. M-1`` (an integer means ``(0, x)``);
        anything else raises ValueError.
    grid : int
        Points per axis and per dyadic level of the graded quadrature
        (window geometry only).  Must be a positive multiple of 8, so that
        the half-resolution Richardson pass is a valid grid too.
    """
    value, _ = green_function_with_error(spec, m2, x, grid=grid)
    return value


def green_function_with_error(spec: LatticeSpec, m2: float, x=None, *,
                              grid: int = 32):
    """Like :func:`green_function` but returns ``(value, abs_error_estimate)``.

    For window geometry the error estimate combines a Richardson comparison
    against the half-resolution grid with the innermost-box contribution;
    torus and graph values are exact up to roundoff.
    """
    if m2 < 0:
        raise ValueError("m2 must be >= 0")
    if spec.geometry in ("window", "torus") and x is not None and \
            np.size(x) != spec.d:
        raise ValueError(f"displacement x has {np.size(x)} coordinates, "
                         f"expected d = {spec.d}")
    if spec.geometry == "window":
        if m2 == 0.0 and spec.d <= 2:
            raise ValueError("massless Green function diverges for d <= 2")
        _check_richardson_grid(grid)
        levels = _auto_levels(spec.d, m2)
        coarse = _window_green_raw(spec.d, m2, x, grid // 2, levels)
        fine = _window_green_raw(spec.d, m2, x, grid, levels)
        extrap = fine + (fine - coarse) / 3.0
        return extrap, abs(fine - coarse) / 3.0 + 1e-14 * abs(fine)
    if spec.geometry == "torus":
        if m2 == 0.0:
            raise ValueError("torus has a zero mode: m2 must be > 0")
        val = _torus_green(spec.d, spec.period, m2, x)
        return val, 1e-14 * abs(val)
    # graph
    lap = spec.laplacian
    if m2 == 0.0:
        eigvals = np.linalg.eigvalsh(lap)
        if eigvals[0] < 1e-12:
            raise ValueError("graph Laplacian has a zero mode: m2 must be > 0")
    M = lap.shape[0]
    pair = (0, 0) if x is None else tuple(np.atleast_1d(x).tolist())
    if len(pair) == 1:
        pair = (0,) + pair
    if len(pair) != 2:
        raise ValueError(f"graph x is a vertex or a pair (a, b), got {x!r}")
    if not all(isinstance(v, numbers.Integral) and 0 <= v < M for v in pair):
        raise ValueError(f"vertices {pair} not in 0..{M - 1}")
    a, b = pair
    mat = lap + m2 * np.eye(M)
    rhs = np.zeros(M)
    rhs[b] = 1.0
    val = float(np.linalg.solve(mat, rhs)[a])
    return val, 1e-13 * abs(val)


def _torus_green(d, period, m2, x):
    x = np.zeros(d) if x is None else np.mod(np.atleast_1d(x), period)
    modes = 2.0 * np.pi * np.arange(period) / period
    mesh = np.meshgrid(*([modes] * d), indexing="ij")
    s = symbol(mesh) + m2
    phase = sum(xi * k for xi, k in zip(x, mesh))
    return float(np.sum(np.cos(phase) / s) / period**d)


def torus_green_table(spec: LatticeSpec, m2: float) -> GreenEvaluation:
    """All Green values on a torus, as a GreenEvaluation keyed by displacement."""
    if spec.geometry != "torus":
        raise ValueError("torus_green_table needs torus geometry")
    if m2 <= 0:
        raise ValueError("torus requires m2 > 0")
    P, d = spec.period, spec.d
    modes = 2.0 * np.pi * np.arange(P) / P
    mesh = np.meshgrid(*([modes] * d), indexing="ij")
    s = symbol(mesh) + m2
    vals = np.fft.ifftn(1.0 / s).real  # kernel C(x) on the full torus
    table = {}
    for idx in np.ndindex(*([P] * d)):
        table[tuple(int(i) for i in idx)] = float(vals[idx])
    return GreenEvaluation(m2=m2, value_at=table, abs_error=1e-14 * abs(vals.max()))


# ---------------------------------------------------------------------------
# Heat kernel representation (used by the bubble diagram and as an
# independent route to C(0): the rate-2d continuous-time walk has return
# kernel  P_t(0,0) = (e^{-2t} I_0(2t))^d ).
# ---------------------------------------------------------------------------

_T_SERIES = 1e7  # from here on P_t comes from the large-t series


def _bessel_series(w):
    """``sqrt(2 pi z) e^{-z} I_0(z)`` at ``w = 1/z``; relative error < 1e-25
    for ``z >= 2e7``."""
    return 1.0 + w / 8.0 + 9.0 * w**2 / 128.0 + 225.0 * w**3 / 3072.0


def heat_kernel_diagonal(d: int, t) -> np.ndarray:
    """Return probability density ``P_t(0,0)`` of the rate-2d walk on Z^d."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = t < _T_SERIES
    out[small] = ive(0, 2.0 * t[small]) ** d
    tl = t[~small]
    if tl.size:
        out[~small] = (_bessel_series(0.5 / tl) / np.sqrt(4.0 * np.pi * tl)) ** d
    return out


def _bubble_schwinger(d, m2):
    """Bsf = 8 * int_0^inf t e^{-m2 t} P_t(0,0) dt.

    For m2 > 1 the substitution s = m2 t keeps the quadrature relative
    (the integrand mass then sits at s ~ 1); below that, [0, 1] is handled
    directly and the long tail in log coordinates.  Past the series
    threshold the tail integrand is formed from ``u = log t`` in log space,
    so the result stays accurate down to the smallest subnormal m2, whose
    tail runs where ``t`` overflows and ``P_t`` underflows float64.
    """
    if m2 > 1.0:
        def f(s):
            return s * np.exp(-s) * heat_kernel_diagonal(
                d, np.atleast_1d(s / m2))[0]

        val, err = integrate.quad(f, 0.0, 80.0, limit=400)
        return 8.0 * val / m2**2, 8.0 * err / m2**2

    def f(t):
        return t * np.exp(-m2 * t) * heat_kernel_diagonal(d, np.atleast_1d(t))[0]

    log_m2 = np.log(m2) if m2 > 0 else -np.inf
    log_t_series = np.log(_T_SERIES)

    def g(u):  # t = e^u, picks up a Jacobian factor t
        if u < log_t_series:
            t = np.exp(u)
            return t * f(t)
        # t^2 P_t e^{-m2 t} in log space, since t may overflow and P_t
        # underflow; log_tp = log(t^{d/2} P_t)
        log_tp = d * np.log(_bessel_series(0.5 * np.exp(-u)) / np.sqrt(4.0 * np.pi))
        return np.exp((2.0 - 0.5 * d) * u + log_tp - np.exp(u + log_m2))

    v1, e1 = integrate.quad(f, 0.0, 1.0, limit=200)
    top = max(np.log(200.0), np.log(60.0) - log_m2) if m2 > 0 else 200.0
    v2, e2 = integrate.quad(g, 0.0, top, limit=800)
    return 8.0 * (v1 + v2), 8.0 * (e1 + e2)


def _bubble_grid(d, m2, n, max_levels):
    def f(ks):
        return (symbol(ks) + m2) ** -2

    val, _ = graded_bz_sum(d, f, n=n, max_levels=max_levels)
    return 8.0 * float(val)


def bubble_diagram(d: int, m2: float, *, method: str = "schwinger",
                   grid: int = 32) -> float:
    """Bubble diagram ``Bsf = 8 sum_x C_{m2}(x)^2``.

    Parameters
    ----------
    d, m2 : dimension and killing rate.  ``m2 = 0`` is rejected for d = 4
        (logarithmic divergence) and requires d > 4 otherwise.
    method : {"schwinger", "grid"}
        "schwinger" evaluates the exact one-dimensional representation
        ``8 int t e^{-m2 t} P_t(0,0) dt`` (fast and accurate down to tiny
        m2); "grid" does the d-dimensional Brillouin-zone quadrature of
        ``8 |lam(k)+m2|^{-2}`` directly.
    """
    val, _ = bubble_diagram_with_error(d, m2, method=method, grid=grid)
    return val


def bubble_diagram_with_error(d: int, m2: float, *, method: str = "schwinger",
                              grid: int = 32):
    if m2 < 0:
        raise ValueError("m2 must be >= 0")
    if m2 == 0.0 and d <= 4:
        raise ValueError("bubble diverges at m2 = 0 for d <= 4")
    if method == "schwinger":
        return _bubble_schwinger(d, m2)
    if method == "grid":
        _check_richardson_grid(grid)
        levels = _auto_levels(d, m2)
        coarse = _bubble_grid(d, m2, grid // 2, levels)
        fine = _bubble_grid(d, m2, grid, levels)
        return fine + (fine - coarse) / 3.0, abs(fine - coarse) / 3.0
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# The constant a = 2 C_0(0) in d = 4
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def constant_a() -> float:
    """``a = 2 C_0(0)`` in d = 4: twice the expected time at the origin.

    Derived by quadrature at the default grid, never hard-coded.
    """
    return 2.0 * green_function(LatticeSpec.window(4), 0.0)
