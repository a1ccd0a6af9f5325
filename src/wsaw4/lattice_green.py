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

The Green function is a quadrature over the Brillouin zone of Z^d, on a
dyadically graded grid that resolves the ``1/|k|^2`` singularity at
``m2 = 0``.  :class:`LatticeSpec` also names a torus, for the walks of
:mod:`wsaw4.walk_mc`.

The graded quadrature splits the zone into dyadic boxes ``[-pi/2^l, pi/2^l]^d``
and applies a tensor midpoint rule on each annular shell; the innermost box
stops the walk and is then added to the value.  A second pass at half
resolution gives the Richardson extrapolation, and the reported error
estimate ``|fine - coarse|/3 + 1e-14 |fine|``.

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "LatticeSpec",
    "green_function_with_error",
    "bubble_diagram_with_error",
    "constant_a",
    "symbol",
    "heat_kernel_diagonal",
]


# ---------------------------------------------------------------------------
# Lattice geometries
# ---------------------------------------------------------------------------

def _is_integer(v) -> bool:
    """An int or numpy integer, not a bool."""
    return isinstance(v, numbers.Integral) and type(v) is not bool


def _check_dimension(d):
    if not _is_integer(d):
        raise ValueError(f"d must be an integer, got {d!r}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")


@dataclass(frozen=True)
class LatticeSpec:
    """The walk geometry: Z^d as the infinite window (``period`` None) or
    the torus (Z/period)^d.

    Use the constructors :meth:`window` and :meth:`torus`.
    """

    d: int
    period: int | None = None

    def __post_init__(self):
        _check_dimension(self.d)
        if self.period is not None and not _is_integer(self.period):
            raise ValueError(f"period must be an integer, got {self.period!r}")
        if self.period is not None and self.period < 1:
            raise ValueError(f"torus period must be >= 1, got {self.period}")

    @property
    def geometry(self) -> str:
        """``"window"`` or ``"torus"``, read from ``period``."""
        return "window" if self.period is None else "torus"

    @staticmethod
    def window(d: int) -> "LatticeSpec":
        """Infinite lattice Z^d."""
        return LatticeSpec(d)

    @staticmethod
    def torus(d: int, period: int) -> "LatticeSpec":
        """Discrete torus (Z/period)^d."""
        if period is None:  # not the window that LatticeSpec(d) is
            raise ValueError("period must be an integer, got None")
        return LatticeSpec(d, period)


# ---------------------------------------------------------------------------
# Fourier symbol and graded Brillouin-zone quadrature
# ---------------------------------------------------------------------------

def symbol(k_axes) -> np.ndarray:
    """Laplacian multiplier 4 sum_j sin^2(k_j/2) for broadcastable axis arrays."""
    s = 0.0
    for k in k_axes:
        s = s + 4.0 * np.sin(0.5 * k) ** 2
    return s


_ORBIT_CAP = 2**22  # points a level; 3.27M (d = 10, grid 32) peak at 0.7 GB


def _orbit_table(d: int, n: int):
    """One point per signed-permutation orbit of the n-point midpoint grid.

    Returns ``(half, mult, inner)``: ``half[ax]`` holds ``i_ax + 1/2`` for
    the representatives ``i_1 <= ... <= i_d < n/2`` of the positive
    half-axis; ``mult`` the number of grid points each one stands for,
    ``2^d d! / prod_r m_r!`` with ``m_r`` the multiplicities of repeated
    indices (no midpoint is 0, so every sign flip is a new point); and
    ``inner`` marks the points of the concentric half-box, ``i_d < n/4``.
    More than ``_ORBIT_CAP`` representatives raise ValueError.  At 1.3 ms
    for d = 4 at grid 32 the table is built at each call, and none stays
    held.
    """
    count = math.comb(n // 2 + d - 1, d)
    if count > _ORBIT_CAP:
        raise ValueError(f"d = {d} at grid {n} needs {count:,} quadrature "
                         f"points per level, more than the {_ORBIT_CAP:,} cap")
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
    return idx.T + 0.5, mult, inner


def graded_bz_sum(d, reducer, *, min_halfwidth, rtol, n=32):
    """Integrate over the Brillouin zone ``[-pi,pi]^d``, one or several
    integrals at once.

    Dyadically graded midpoint rule: level ``l`` covers the annular shell
    between the boxes of half-width ``pi/2^l`` and ``pi/2^(l+1)`` with the
    n-point midpoint grid of the outer box (n divisible by 4, so the inner
    box's boundary falls on cell edges).  The walk stops once the current
    estimate of the innermost box is negligible (relative tolerance
    ``rtol``), the box is no larger than ``min_halfwidth``, or after 250
    levels (the float64 floor); the innermost-box estimate is then added.

    ``reducer(k_axes, weights, inner_mask) -> (shell, inner)`` returns the
    point sums over the shell and over the inner box, each point counted
    ``weights`` times (the cell measure is applied here); a vector of sums
    gives a vector of integrals.  The integrands must be invariant under
    every sign flip ``k_i -> -k_i`` and every permutation of the axes: they
    are evaluated at one point per orbit of the grid
    (``0 < k_1 <= ... <= k_d``) and weighted by the orbit's size.
    """
    if n % 4:
        raise ValueError("n must be divisible by 4")
    half, mult, inner = _orbit_table(d, n)
    acc = None
    for level in range(250):
        w = 2.0 * (np.pi / 2.0**level) / n  # the cell width
        cell = w**d / (2.0 * np.pi) ** d
        shell_sum, inner_sum = reducer([h * w for h in half], mult, inner)
        shell_sum = np.asarray(shell_sum) * cell
        inner_sum = np.asarray(inner_sum) * cell
        acc = shell_sum if acc is None else acc + shell_sum
        scale = np.max(np.abs(acc)) + np.max(np.abs(inner_sum))
        a_next = np.pi / 2.0 ** (level + 1)
        if level == 249 or a_next <= min_halfwidth or \
                np.max(np.abs(inner_sum)) <= rtol * scale:
            break
    return acc + inner_sum


def _window_green_raw(d, m2, x, n, levels):
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

    def reducer(ks, mult, inner):
        vals = f(ks)
        return vals[~inner] @ mult[~inner], vals[inner] @ mult[inner]

    return float(graded_bz_sum(d, reducer, n=n, rtol=1e-10,
                               min_halfwidth=np.pi / 2.0**levels))


# ---------------------------------------------------------------------------
# Green function
# ---------------------------------------------------------------------------

def green_function_with_error(d: int, m2: float, x=None, *, grid: int = 32):
    """Green function ``(-D + m2)^{-1}_{0x}`` on Z^d, ``d >= 1``, as
    ``(value, error_estimate)``.  The value is ``fine + (fine - coarse)/3``
    from the full- and half-resolution grids, and the estimate
    ``|fine - coarse|/3 + 1e-14 |fine|``, with no term for the innermost box.

    The estimate is a Richardson gap, not a bound.  At the origin it covers
    the true error in d = 4 (grids 8 to 64, ``m2`` from 0 to 4); off the
    origin it need not: at ``m2 = 0.5`` and grid 16, ``x = (2,0,0,0)``
    reports 1.3e-6 for an error of 6.3e-6, and far displacements, which the
    grid cannot resolve, miss by more (ROADMAP item 1).

    Parameters
    ----------
    m2 : float
        Killing rate (mass squared); ``m2 = 0`` requires ``d > 2``.
    x : displacement, optional
        Lattice displacement of ``d`` integer coordinates (defaults to the
        origin); any other length, or a non-integral coordinate, raises
        ValueError.
    grid : int
        Points per axis and per dyadic level of the graded quadrature.
        Must be a positive multiple of 8, so that the half-resolution
        Richardson pass is a valid grid too.
    """
    _check_dimension(d)
    if not 0.0 <= m2 < np.inf:
        raise ValueError(f"m2 must be finite and >= 0, got {m2}")
    if x is not None:
        if np.size(x) != d:
            raise ValueError(f"displacement x has {np.size(x)} coordinates, "
                             f"expected d = {d}")
        if not np.all(np.mod(x, 1) == 0):
            raise ValueError(f"displacement x = {x!r} is not a lattice point")
    if m2 == 0.0 and d <= 2:
        raise ValueError("massless Green function diverges for d <= 2")
    if grid < 8 or grid % 8:
        raise ValueError(f"grid must be a positive multiple of 8, got {grid}")
    # resolve structure down to the mass scale; 50 dyadic levels suffice
    # for m2 >= 1e-28, the singular m2 = 0 case stops via rtol instead
    levels = 52 if m2 <= 0.0 else \
        min(60, max(6, int(np.ceil(np.log2(np.pi / np.sqrt(m2)))) + 4))
    # the fine pass first: a grid over the orbit cap raises before any work
    fine = _window_green_raw(d, m2, x, grid, levels)
    coarse = _window_green_raw(d, m2, x, grid // 2, levels)
    extrap = fine + (fine - coarse) / 3.0
    return extrap, abs(fine - coarse) / 3.0 + 1e-14 * abs(fine)


# ---------------------------------------------------------------------------
# Heat kernel representation (used by the bubble diagram and as an
# independent route to C(0): the rate-2d continuous-time walk has return
# kernel  P_t(0,0) = (e^{-2t} I_0(2t))^d ).
# ---------------------------------------------------------------------------

_T_SERIES = 300.0  # from here on P_t comes from the large-t series
# sqrt(2 pi z) e^{-z} I_0(z) ~ sum_k a_k z^{-k}, a_k = a_{k-1} (2k-1)^2/(8k)
_HANKEL = np.cumprod([1.0] + [(2 * k - 1) ** 2 / (8.0 * k) for k in range(1, 8)])


def _bessel_series(w):
    """``sqrt(2 pi z) e^{-z} I_0(z)`` at ``w = 1/z`` from eight terms of its
    Hankel series.  At the cut ``z = 600`` the truncation is 3.6e-22
    relative; the value is within 1.1e-16 of mpmath from there on."""
    return np.polynomial.polynomial.polyval(w, _HANKEL)


def heat_kernel_diagonal(d: int, t) -> np.ndarray:
    """Return probability density ``P_t(0,0)`` of the rate-2d walk on Z^d."""
    _check_dimension(d)
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("t must be >= 0")
    out = np.empty_like(t)
    small = t < _T_SERIES
    z = 2.0 * t[small]
    out[small] = (np.exp(-z) * np.i0(z)) ** d
    tl = t[~small]
    if tl.size:
        out[~small] = (_bessel_series(0.5 / tl) / np.sqrt(4.0 * np.pi * tl)) ** d
    return out


@lru_cache(maxsize=None)
def _gauss_legendre(n):
    """The n-node Gauss-Legendre rule ``(nodes, weights)`` on [-1, 1], made
    once per n and read-only."""
    rule = np.polynomial.legendre.leggauss(n)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _panel_rule(f, lo, hi):
    """Integrate ``f`` on ``[lo, hi]``, 20-node Gauss-Legendre on equal panels
    no wider than 0.5.  Returns ``(value, error)``: the gap to the 10-node
    rule on those panels plus a roundoff floor ``1e-14 sum |f| w``, never 0."""
    n = math.ceil(2.0 * (hi - lo))
    h = 0.5 * (hi - lo) / n  # half a panel
    mid = lo + h * (2.0 * np.arange(n) + 1.0)[:, None]
    fine, coarse = (f(mid + h * x) * (h * w)
                    for x, w in map(_gauss_legendre, (20, 10)))
    value = fine.sum()
    return float(value), float(abs(value - coarse.sum())
                              + 1e-14 * np.abs(fine).sum())


def _schwinger_moment(d, m2, k):
    """int_0^inf t^k e^{-m2 t} P_t(0,0) dt, one panel sum in u = log t:
    ``(value, error)``.  The bubble is 8 times moment 1, ``a`` twice moment
    0 at m2 = 0.

    The sum runs from ``min(-40, top - 60)`` to ``top = log(60/m2)``, where
    ``e^{-m2 t} = e^{-60}`` (200 at ``m2 = 0``).  Past the series
    threshold the integrand is ``h^n e^{-m2 h^2} (h p)^d``, ``n = 2k+2-d``,
    with ``h = sqrt(t)`` and ``p = e^{-2t} I_0(2t)`` from the large-t series,
    and the binary exponent of ``h^n`` is applied last, so the result stays
    accurate down to the smallest subnormal m2, whose tail runs where ``t``
    overflows and ``P_t`` underflows float64.
    """
    top = math.log(60.0) - math.log(m2) if m2 > 0 else 200.0
    n = 2 * k + 2 - d

    def f(u):  # t^(k+1) e^{-m2 t} P_t, the t from dt = t du included
        out = np.empty_like(u)
        small = u < math.log(_T_SERIES)
        t = np.exp(u[small])
        out[small] = t ** k * t * np.exp(-m2 * t) * heat_kernel_diagonal(d, t)
        h = np.exp(0.5 * u[~small])
        mant, e = np.frexp(h)
        hp = _bessel_series(0.5 / h / h) / np.sqrt(4.0 * np.pi)
        out[~small] = np.ldexp(mant ** n * np.exp(-(m2 * h) * h) * hp ** d,
                               e * n)
        return out

    return _panel_rule(f, min(-40.0, top - 60.0), top)


def bubble_diagram_with_error(d: int, m2: float):
    """Bubble diagram ``Bsf = 8 sum_x C_{m2}(x)^2``, by its exact
    one-dimensional representation ``8 int t e^{-m2 t} P_t(0,0) dt``, as
    ``(value, abs_error_estimate)``.

    ``d >= 1``; ``m2 = 0`` requires ``d > 4`` (the bubble diverges
    logarithmically in d = 4 and faster below).
    """
    _check_dimension(d)
    if not 0.0 <= m2 < np.inf:
        raise ValueError(f"m2 must be finite and >= 0, got {m2}")
    if m2 == 0.0 and d <= 4:
        raise ValueError("bubble diverges at m2 = 0 for d <= 4")
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        val, err = (8.0 * v for v in _schwinger_moment(d, m2, 1))
    if not math.isfinite(val):
        raise ValueError(f"bubble overflows float64 at d = {d}, m2 = {m2}")
    return val, err


# ---------------------------------------------------------------------------
# The constant a = 2 C_0(0) in d = 4
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def constant_a() -> float:
    """``a = 2 C_0(0)`` in d = 4: twice the expected time at the origin,
    ``2 int_0^inf P_t(0,0) dt``, on the bubble's panel sum (moment 0 of
    its heat-kernel integrand).

    Derived by quadrature, never hard-coded: within 1e-15 of Montroll's
    ``G(0)/4`` = 0.30986678046212, where the BZ sum at the default grid
    is 2.6e-7 low.
    """
    return 2.0 * _schwinger_moment(4, 0.0, 0)[0]
