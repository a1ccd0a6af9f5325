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

import csv
from dataclasses import dataclass

import numpy as np

from .lattice_green import LatticeSpec, graded_bz_sum, symbol

__all__ = [
    "smooth_step",
    "Decomposition",
    "build_decomposition",
    "beta_sequence",
    "eta_sequence",
    "scale_indices",
    "ScaleIndices",
    "CoefficientSequences",
    "coefficient_sequences",
    "load_coefficient_tables",
    "slice_kernel_on_torus",
    "range_tail_fraction",
]

INF_SCALE = np.inf  # sentinel for an undefined mass scale (m2 = 0)


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


def _f(tau, j):
    """Cumulative multiplier f_j(tau) = step(tau - j + 1); f_0 = 0."""
    if j == 0:
        return np.zeros_like(tau)
    return smooth_step(tau - j + 1.0)


@dataclass(frozen=True)
class Decomposition:
    """Scale decomposition of (-D + m2)^{-1} into J slices plus remainder.

    Shared-pass integrals on one quadrature grid:
    ``w2_partial[k] = int C_hat^2 f_k^2`` (k = 0 .. J) and
    ``diagonals[j] = C_{j;0,0} = int C_hat u_j`` (j = 1 .. J, slot 0 unused).
    """

    spec: LatticeSpec
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
        if j > self.J:
            return 1.0 - _f(t, self.J)
        return _f(t, j) - _f(t, j - 1)


def build_decomposition(spec: LatticeSpec, L: int, m2: float, J: int = 16, *,
                        grid: int = 32) -> Decomposition:
    """Build the scale decomposition and its shared-pass integrals.

    Parameters
    ----------
    spec : LatticeSpec (window or torus geometry)
    L : scale base >= 2
    m2 : killing rate; on a torus, must be > 0 (zero mode)
    J : number of slices
    grid : points per axis per dyadic quadrature level (window geometry; a
        positive multiple of 4)
    """
    if L < 2:
        raise ValueError("scale base L must be >= 2")
    if J < 1:
        raise ValueError("J must be >= 1")
    if m2 < 0:
        raise ValueError("m2 must be >= 0")
    if spec.geometry == "torus" and m2 == 0.0:
        raise ValueError("torus decomposition requires m2 > 0 (zero mode)")
    if spec.geometry == "graph":
        raise ValueError("decomposition supports window and torus geometries")
    if spec.geometry == "window" and (grid <= 0 or grid % 4):
        # the graded quadrature's half-box must fall on cell edges
        raise ValueError(f"grid must be a positive multiple of 4, got {grid}")

    d = spec.d

    def reducer(ks, weights, inner_mask):
        # Rows 0 .. J:   C_hat^2 f_j^2, and rows J+1 .. 2J: C_hat u_j,
        # reduced to weighted (shell, inner) sums without materializing the
        # stack.  Within one dyadic level the symbol spans only a few scale
        # units, so most cutoffs f_j are constant 0 or 1 there; classify
        # them and reuse the base sums of C_hat^2 and C_hat for the
        # constant rows.
        s = symbol(ks) + m2
        t = _tau(s, L)
        tmin, tmax = float(t.min()), float(t.max())
        chat = 1.0 / s
        chat2 = chat * chat
        # columns: shell weights, inner weights
        wmat = np.stack([np.where(inner_mask, 0.0, weights),
                         np.where(inner_mask, weights, 0.0)], axis=1)
        base2 = chat2 @ wmat
        base1 = chat @ wmat
        out = np.zeros((2 * J + 1, 2))
        fs = {0: 0.0}
        for j in range(1, J + 1):
            if tmax <= j - 1.0:
                fs[j] = 1.0
            elif tmin >= float(j):
                fs[j] = 0.0
            else:
                fs[j] = smooth_step(t - j + 1.0)
        for j in range(J + 1):
            f = fs[j]
            if isinstance(f, float):
                if f == 1.0:
                    out[j] = base2
            else:
                out[j] = (chat2 * f * f) @ wmat
        for j in range(1, J + 1):
            hi, lo = fs[j], fs[j - 1]
            if isinstance(hi, float) and isinstance(lo, float):
                if hi != lo:
                    out[J + j] = (hi - lo) * base1
            else:
                out[J + j] = (chat * (hi - lo)) @ wmat
        return out[:, 0], out[:, 1]

    if spec.geometry == "window":
        # resolve the symbol down to L^{-2(J+1)} (or the mass scale if
        # larger); 250 dyadic levels is the float64 ceiling for C_hat^2
        k_floor = float(L) ** (-(J + 1))
        if k_floor < 2.0**-248:
            raise ValueError("J too deep for float64 multipliers at this L")
        if m2 > 0:
            k_floor = max(k_floor, 0.125 * np.sqrt(m2) * float(L) ** -2)
        vals, _ = graded_bz_sum(d, reducer=reducer, n=grid, max_levels=250,
                                min_halfwidth=0.25 * k_floor, rtol=1e-13)
    else:
        P = spec.period
        modes = 2.0 * np.pi * np.arange(P) / P
        mesh = np.meshgrid(*([modes] * d), indexing="ij")
        flat = [m.ravel() for m in mesh]
        shell, inner = reducer(flat, np.ones(flat[0].size),
                               np.zeros(flat[0].size, dtype=bool))
        vals = (shell + inner) / P**d

    diag = np.concatenate([[np.nan], np.asarray(vals[J + 1:])])  # index by j
    return Decomposition(spec=spec, L=L, m2=m2, J=J,
                         w2_partial=np.asarray(vals[: J + 1]), diagonals=diag)


def slice_kernel_on_torus(decomp: Decomposition, j: int, period: int) -> np.ndarray:
    """Kernel C_j(0, x), j = 1 .. J+1, periodized to a torus of the given
    period (FFT); j = J+1 is the remainder."""
    if j not in range(1, decomp.J + 2):
        raise ValueError(f"slice j={j} not in 1..{decomp.J + 1}")
    d = decomp.spec.d
    modes = 2.0 * np.pi * np.arange(period) / period
    mesh = np.meshgrid(*([modes] * d), indexing="ij")
    s = symbol(mesh) + decomp.m2
    mult = decomp.multiplier(j, s)
    chat = np.where(s > 0, mult / np.where(s > 0, s, 1.0), 0.0)
    return np.fft.ifftn(chat).real


def range_tail_fraction(decomp: Decomposition, j: int, period: int | None = None) -> float:
    """Mass fraction of |C_j| beyond the nominal range L^j / 2.

    Measured on a periodized window of period ``4 L^j`` (so the wrap-around
    contamination sits well beyond the measured shell).
    """
    L = decomp.L
    period = 4 * L**j if period is None else period
    kern = np.abs(slice_kernel_on_torus(decomp, j, period))
    coords = np.arange(period)
    dist = np.minimum(coords, period - coords)  # torus distance per axis
    mesh = np.meshgrid(*([dist] * decomp.spec.d), indexing="ij")
    r2 = sum(m.astype(float) ** 2 for m in mesh)
    outside = r2 >= (0.5 * L**j) ** 2
    total = kern.sum()
    return float(kern[outside].sum() / total) if total > 0 else 0.0


# ---------------------------------------------------------------------------
# Coefficient sequences
# ---------------------------------------------------------------------------

def beta_sequence(decomp: Decomposition) -> np.ndarray:
    """beta_j = 8 sum_x (w_{j+1,x}^2 - w_{j,x}^2), j = 0 .. J-1.

    Partial sums reproduce ``8 sum_x w_k(x)^2`` exactly (same quadrature
    grid on both sides of the telescoping identity).
    """
    w2 = decomp.w2_partial
    return 8.0 * (w2[1: decomp.J + 1] - w2[: decomp.J])


def eta_sequence(decomp: Decomposition) -> np.ndarray:
    """eta_j = 2 L^{2(j+1)} C_{j+1;0,0}, j = 0 .. J-1."""
    L = float(decomp.L)
    j = np.arange(decomp.J)
    return 2.0 * L ** (2 * (j + 1)) * decomp.diagonals[1: decomp.J + 1]


@dataclass(frozen=True)
class ScaleIndices:
    j_m: float       # mass scale (np.inf when m2 = 0)
    j_Omega: int
    chi: np.ndarray  # chi_j = Omega^{-(j - j_Omega)_+}


def scale_indices(m2: float, L: int, Omega: float, beta: np.ndarray) -> ScaleIndices:
    """Mass scale, Omega-scale, and the decay profile chi_j.

    j_m is the smallest j with L^{2j} m2 >= 1 (infinity sentinel at m2 = 0);
    j_Omega is the smallest k such that |beta_j| <= Omega^{-(j-k)} max|beta|
    for every j in the list.
    """
    if Omega <= 1:
        raise ValueError("Omega must be > 1")
    beta = np.asarray(beta, dtype=float)
    if m2 <= 0:
        j_m = INF_SCALE
    else:
        j_m = max(0, int(np.ceil(np.log(1.0 / m2) / (2.0 * np.log(L)))))
        while L ** (2 * j_m) * m2 < 1.0:  # guard against roundoff at edges
            j_m += 1
        while j_m > 0 and L ** (2 * (j_m - 1)) * m2 >= 1.0:
            j_m -= 1
    bmax = np.max(np.abs(beta)) if beta.size else 0.0
    if bmax == 0.0:
        j_Omega = 0
    else:
        j = np.arange(beta.size, dtype=float)
        with np.errstate(divide="ignore"):
            need = j + np.log(np.abs(beta) / bmax) / np.log(Omega)
        j_Omega = max(0, int(np.ceil(np.max(need[np.abs(beta) > 0]) - 1e-12)))
    j = np.arange(beta.size, dtype=float)
    chi = Omega ** -np.maximum(j - j_Omega, 0.0)
    return ScaleIndices(j_m=j_m, j_Omega=j_Omega, chi=chi)


@dataclass(frozen=True)
class CoefficientSequences:
    """Everything the quadratic RG flow consumes at a fixed (m2, L).

    ``theta``, ``xi``, ``pi`` are pluggable tables (zero by default; supply
    measured tables via :func:`load_coefficient_tables` to make the z-flow
    and the mixed mu-terms nontrivial).
    """

    L: int
    m2: float
    beta: np.ndarray
    eta: np.ndarray
    theta: np.ndarray
    xi: np.ndarray
    pi: np.ndarray
    chi: np.ndarray
    j_m: float
    j_Omega: int
    Omega: float

    def __len__(self):
        return len(self.beta)


def coefficient_sequences(decomp: Decomposition, *, Omega: float = 2.0,
                          theta=None, xi=None, pi=None) -> CoefficientSequences:
    """Assemble the flow coefficients from a decomposition."""
    beta = beta_sequence(decomp)
    eta = eta_sequence(decomp)
    n = len(beta)

    def table(t):
        if t is None:
            return np.zeros(n)
        t = np.asarray(t, dtype=float)
        if len(t) < n:
            t = np.concatenate([t, np.zeros(n - len(t))])
        return t[:n]

    idx = scale_indices(decomp.m2, decomp.L, Omega, beta)
    return CoefficientSequences(L=decomp.L, m2=decomp.m2, beta=beta, eta=eta,
                                theta=table(theta), xi=table(xi), pi=table(pi),
                                chi=idx.chi, j_m=idx.j_m, j_Omega=idx.j_Omega,
                                Omega=Omega)


def load_coefficient_tables(path):
    """Read a (j, theta, xi, pi) CSV sidecar; returns three dense arrays.

    Raises ValueError for a missing column, a non-numeric entry, a
    negative ``j`` or a ``j`` given twice.
    """
    cols = ("j", "theta", "xi", "pi")
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in cols if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            try:
                j = int(row["j"])
                vals = tuple(float(row[c]) for c in cols[1:])
            except (TypeError, ValueError):
                raise ValueError(f"{where}: non-numeric entry in {row}") from None
            if j < 0 or j in rows:
                raise ValueError(f"{where}: j={j} is "
                                 + ("negative" if j < 0 else "repeated"))
            rows[j] = vals
    if not rows:
        return np.zeros(0), np.zeros(0), np.zeros(0)
    n = max(rows) + 1
    theta, xi, pi = np.zeros(n), np.zeros(n), np.zeros(n)
    for j, (t, x, p) in rows.items():
        theta[j], xi[j], pi[j] = t, x, p
    return theta, xi, pi
