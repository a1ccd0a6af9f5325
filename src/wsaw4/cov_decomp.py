"""Scale decomposition of the lattice covariance and its RG coefficients.

The covariance ``C = (-D + m2)^{-1}`` is split into slices ``C_j`` whose
Fourier multipliers are ``C_hat(k) u_j(k)`` for a smooth dyadic-in-L
partition of unity built from the symbol ``s(k) = lam(k) + m2``:

    tau(k)  = log(1/s) / (2 log L)            (so s = L^{-2 tau}),
    f_j     = step(tau - j + 1),   f_0 = 0,
    u_j     = f_j - f_{j-1}         (j = 1 .. J),
    u_rem   = 1 - f_J               (last-scale remainder),

where ``step`` is the C-infinity cutoff ``step(r) = 1`` for ``r <= 0``,
``0`` for ``r >= 1``, and ``sig(1-r) / (sig(r) + sig(1-r))`` in between with
``sig(t) = exp(-1/t)``.  Slice ``j`` is therefore supported where the symbol
is of order ``L^{-2(j-1)}``, adjacent slices overlap by exactly one scale
unit, every multiplier lies in ``[0, 1]`` (positive semidefiniteness), and
the telescoping identity ``sum_j u_j + u_rem = 1`` holds at machine
precision because the same ``step`` evaluations cancel pairwise.

The slices only approximately have the finite-range property of an exact
construction; :func:`range_tail_fraction` measures the out-of-range mass
fraction (by FFT on a periodized window), and ``decompose --measure-tails``
reports it per slice where affordable.

All coefficient sequences reduce to Brillouin-zone integrals of functions of
the symbol, via Parseval:

    beta_j             = 8 int C_hat^2 (f_{j+1}^2 - f_j^2),
    C_{j;0,0}          = int C_hat u_j,
    eta_j              = 2 L^{2(j+1)} C_{j+1;0,0},

evaluated with the graded quadrature of :mod:`wsaw4.lattice_green` in one
shared pass, so partial sums of ``beta`` reproduce ``8 sum_x w_k(x)^2``
identically (same grid, telescoping in floating point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice_green import (_check_dimension, _is_integer, graded_bz_sum,
                            symbol)

__all__ = [
    "smooth_step",
    "Decomposition",
    "build_decomposition",
    "scale_indices",
    "ScaleIndices",
    "CoefficientSequences",
    "coefficient_sequences",
    "slice_kernel_on_torus",
    "range_tail_fraction",
]

def smooth_step(r) -> np.ndarray:
    """C-infinity step: 1 for r <= 0, 0 for r >= 1, monotone in between."""
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    out[r <= 0.0] = 1.0
    out[r >= 1.0] = 0.0
    mid = (r > 0.0) & (r < 1.0)
    if np.any(mid):
        rm = r[mid]
        a = np.exp(-1.0 / rm)          # sig(r)
        b = np.exp(-1.0 / (1.0 - rm))  # sig(1-r)
        out[mid] = b / (a + b)
    return out


def _tau(s, L):
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore"):
        return -np.log(s) / (2.0 * np.log(L))


def _span(tau):
    """(min, max) of tau: the range on which :func:`_f` decides."""
    return np.min(tau, initial=np.inf), np.max(tau, initial=-np.inf)


def _f(tau, j, span):
    """Cumulative multiplier f_j(tau) = step(tau - j + 1); f_0 = 0.

    The float 1.0 or 0.0 when tau's ``span`` lies on one side of the step.
    """
    if j == 0:
        return 0.0
    if span[1] <= j - 1.0:
        return 1.0
    if span[0] >= float(j):
        return 0.0
    return smooth_step(tau - j + 1.0)


@dataclass(frozen=True)
class Decomposition:
    """Scale decomposition of (-D + m2)^{-1} into J slices plus remainder.

    Shared-pass integrals on one quadrature grid:
    ``w2_partial[k] = int C_hat^2 f_k^2`` (k = 0 .. J) and
    ``diagonals[j] = C_{j;0,0} = int C_hat u_j`` (j = 1 .. J, slot 0 unused).
    """

    d: int
    L: int
    m2: float
    J: int
    w2_partial: np.ndarray
    diagonals: np.ndarray

    def multiplier(self, j: int, s) -> np.ndarray:
        """Slice j's multiplier at symbol values s (vectorized).

        ``u_j = f_j - f_{j-1}`` for j = 1 .. J, and the remainder
        ``1 - f_J`` for j = J+1, so the J+1 multipliers sum to 1.
        """
        if j not in range(1, self.J + 2):
            raise ValueError(f"slice j={j} not in 1..{self.J + 1}")
        t = _tau(np.asarray(s, dtype=float), self.L)
        r = _span(t)
        u = 1.0 - _f(t, self.J, r) if j > self.J \
            else _f(t, j, r) - _f(t, j - 1, r)
        return u + np.zeros_like(t)


def build_decomposition(d: int, L: int, m2: float, J: int) -> Decomposition:
    """Build the scale decomposition on Z^d and its shared-pass integrals,
    on the graded quadrature's default 32 points per axis and level.

    Parameters
    ----------
    d : dimension >= 1
    L : scale base >= 2
    m2 : killing rate >= 0
    J : number of slices
    """
    _check_dimension(d)
    if not (_is_integer(L) and L >= 2):
        raise ValueError(f"scale base L must be an integer >= 2, got {L!r}")
    if not (_is_integer(J) and J >= 1):
        raise ValueError(f"J must be an integer >= 1, got {J!r}")
    if not 0.0 <= m2 < np.inf:
        raise ValueError(f"m2 must be finite and >= 0, got {m2}")

    def reducer(ks, weights, inner_mask):
        # Rows 0 .. J:   C_hat^2 f_j^2, and rows J+1 .. 2J: C_hat u_j,
        # reduced to weighted (shell, inner) sums without materializing the
        # stack.  Within one dyadic level the symbol spans only a few scale
        # units, so most cutoffs f_j are the constant 0.0 or 1.0 there; the
        # constant rows reuse the base sums of C_hat^2 and C_hat.
        s = symbol(ks) + m2
        t = _tau(s, L)
        chat = 1.0 / s
        chat2 = chat * chat
        # columns: shell weights, inner weights
        wmat = np.stack([np.where(inner_mask, 0.0, weights),
                         np.where(inner_mask, weights, 0.0)], axis=1)
        base2 = chat2 @ wmat
        base1 = chat @ wmat
        out = np.zeros((2 * J + 1, 2))
        r = _span(t)
        fs = [_f(t, j, r) for j in range(J + 1)]
        for j, f in enumerate(fs):
            if not isinstance(f, float):
                out[j] = (chat2 * f * f) @ wmat
            elif f == 1.0:
                out[j] = base2
        for j in range(1, J + 1):
            u = fs[j] - fs[j - 1]   # a float when both cutoffs are
            if not isinstance(u, float):
                out[J + j] = (chat * u) @ wmat
            elif u != 0.0:
                out[J + j] = u * base1
        return out[:, 0], out[:, 1]

    # resolve the symbol down to L^{-2(J+1)} (or the mass scale if larger);
    # 250 dyadic levels is the float64 ceiling for C_hat^2
    k_floor = float(L) ** (-(J + 1))
    if k_floor < 2.0**-248:
        raise ValueError("J too deep for float64 multipliers at this L")
    if m2 > 0:
        k_floor = max(k_floor, 0.125 * np.sqrt(m2) * float(L) ** -2)
    vals = graded_bz_sum(d, reducer, min_halfwidth=0.25 * k_floor, rtol=1e-13)
    diag = np.concatenate([[np.nan], np.asarray(vals[J + 1:])])  # index by j
    return Decomposition(d=d, L=L, m2=m2, J=J,
                         w2_partial=np.asarray(vals[: J + 1]), diagonals=diag)


def slice_kernel_on_torus(decomp: Decomposition, j: int, period: int) -> np.ndarray:
    """Kernel C_j(0, x), j = 1 .. J+1, periodized to a torus of the given
    period (FFT); j = J+1 is the remainder."""
    if j not in range(1, decomp.J + 2):
        raise ValueError(f"slice j={j} not in 1..{decomp.J + 1}")
    d = decomp.d
    modes = 2.0 * np.pi * np.arange(period) / period
    mesh = np.meshgrid(*([modes] * d), indexing="ij", sparse=True)
    s = symbol(mesh) + decomp.m2
    mult = decomp.multiplier(j, s)
    chat = np.where(s > 0, mult / np.where(s > 0, s, 1.0), 0.0)
    return np.fft.ifftn(chat).real


def range_tail_fraction(decomp: Decomposition, j: int) -> float:
    """Mass fraction of |C_j| beyond the nominal range L^j / 2.

    Measured on a periodized window of period ``4 L^j`` (so the wrap-around
    contamination sits well beyond the measured shell).
    """
    L = decomp.L
    period = 4 * L**j
    kern = np.abs(slice_kernel_on_torus(decomp, j, period))
    coords = np.arange(period)
    dist = np.minimum(coords, period - coords)  # torus distance per axis
    mesh = np.meshgrid(*([dist] * decomp.d), indexing="ij", sparse=True)
    r2 = sum(m.astype(float) ** 2 for m in mesh)
    outside = r2 >= (0.5 * L**j) ** 2
    total = kern.sum()
    return float(kern[outside].sum() / total) if total > 0 else 0.0


# ---------------------------------------------------------------------------
# Coefficient sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleIndices:
    j_m: float       # mass scale (np.inf when m2 = 0)
    j_Omega: int
    chi: np.ndarray  # chi_j = Omega^{-(j - j_Omega)_+}


def _mass_scale(m2, L):
    """The mass scale: the smallest j with L^{2j} m2 >= 1 (np.inf at 0)."""
    if m2 <= 0:
        return np.inf
    j_m = max(0, int(np.ceil(np.log(1.0 / m2) / (2.0 * np.log(L)))))
    while L ** (2 * j_m) * m2 < 1.0:  # guard against roundoff at edges
        j_m += 1
    while j_m > 0 and L ** (2 * (j_m - 1)) * m2 >= 1.0:
        j_m -= 1
    return j_m


def scale_indices(m2: float, L: int, Omega: float, beta: np.ndarray) -> ScaleIndices:
    """Mass scale, Omega-scale, and the decay profile chi_j.

    j_m is the smallest j with L^{2j} m2 >= 1 (infinity sentinel at m2 = 0);
    j_Omega is the smallest k such that |beta_j| <= Omega^{-(j-k)} max|beta|
    for every j in the list.
    """
    if not 1.0 < Omega < np.inf:
        raise ValueError(f"Omega must be > 1 and finite, got {Omega}")
    beta = np.asarray(beta, dtype=float)
    j = np.arange(beta.size, dtype=float)
    bmax = np.max(np.abs(beta)) if beta.size else 0.0
    if bmax == 0.0:
        j_Omega = 0
    else:
        with np.errstate(divide="ignore"):
            need = j + np.log(np.abs(beta) / bmax) / np.log(Omega)
        j_Omega = max(0, int(np.ceil(np.max(need[np.abs(beta) > 0]) - 1e-12)))
    return ScaleIndices(j_m=_mass_scale(m2, L), j_Omega=j_Omega,
                        chi=Omega ** -np.maximum(j - j_Omega, 0.0))


@dataclass(frozen=True)
class CoefficientSequences:
    """The inputs of the quadratic RG flow at a fixed (m2, L), and no more.

    ``theta``, ``xi``, ``pi`` are the second-order tables of the z-flow and
    the mixed mu-terms; :func:`coefficient_sequences` leaves them zero.
    """

    L: int
    m2: float
    beta: np.ndarray
    eta: np.ndarray
    theta: np.ndarray
    xi: np.ndarray
    pi: np.ndarray


def coefficient_sequences(decomp: Decomposition) -> CoefficientSequences:
    """The flow coefficients of a decomposition, for j = 0 .. J-1:

        beta_j = 8 sum_x (w_{j+1,x}^2 - w_{j,x}^2),
        eta_j  = 2 L^{2(j+1)} C_{j+1;0,0}.

    Partial sums of ``beta`` reproduce ``8 sum_x w_k(x)^2`` exactly (same
    quadrature grid on both sides of the telescoping identity).
    """
    J, w2, j = decomp.J, decomp.w2_partial, np.arange(decomp.J)
    return CoefficientSequences(
        L=decomp.L, m2=decomp.m2, beta=8.0 * (w2[1: J + 1] - w2[:J]),
        eta=2.0 * float(decomp.L) ** (2 * (j + 1)) * decomp.diagonals[1: J + 1],
        theta=np.zeros(J), xi=np.zeros(J), pi=np.zeros(J))
