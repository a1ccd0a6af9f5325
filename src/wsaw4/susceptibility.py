"""Susceptibility asymptotics, the critical-point expansion, and parameter maps.

For the weakly self-avoiding walk in d = 4 the susceptibility diverges at
``nu_c(g)`` with a quarter-power logarithmic correction,

    chi(g, nu_c + eps) ~ A_g eps^{-1} (log eps^{-1})^{1/4},
    A_g = (b g)^{1/4} (1 + O(g)),            b = 1/(2 pi^2),

the critical point itself obeys ``nu_c(g) = -a g + O(g^2)`` with
``a = 2 C_0(0)``, and the effective killing rate vanishes like

    m2(eps) ~ (1 + z0_c) / A_g * eps (log eps^{-1})^{-1/4}.

The pair (predict_susceptibility, m2_of_eps) is built as exact mutual
inverses at z0_c = 0 (the flow's theta table is zero): ``m2 * chi = 1``,
as ``chi = (1 + z0) / m2`` holds at the critical parameter choice.

Bare couplings (g, nu) and renormalised ones (m2, g0, nu0, z0) are related
by  g0 = g (1 + z0)^2  and  nu0 = (1 + z0) nu - m2; the inverse map on g is
computed by monotone bisection on  s(g0) = g0 / (1 + z0_c(g0))^2.

The module also provides the elementary asymptotic lemma behind the proof:
if u'(t) = (-log u)^{-gamma} (1 + o(1)) with u(0) = 0, then
u(t) = t (-log t)^{-gamma} (1 + o(1)).  The solution is obtained from the
integrated form  int_0^u (-log v)^gamma dv = t, whose left side is the
upper incomplete gamma function Gamma(1 + gamma, -log u); bisection in
-log u avoids any stiffness near u = 0.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from . import cov_decomp, lattice_green, rg_flow

__all__ = [
    "BUBBLE_LOG_COEFF",
    "default_flow_coefficients",
    "predict_nu_c",
    "predict_susceptibility",
    "m2_of_eps",
    "amplitude",
    "change_variables",
    "invert_g",
    "ode_asymptotics",
]

BUBBLE_LOG_COEFF = 1.0 / (2.0 * math.pi**2)  # slope b of the d=4 bubble in log(1/m2)


# ---------------------------------------------------------------------------
# Parameter bookkeeping
# ---------------------------------------------------------------------------

def change_variables(m2: float, g0: float, z0c: float, nu0c: float):
    """Map renormalised parameters to bare couplings (g, nu)."""
    if z0c <= -1.0:
        raise ValueError("z0 must exceed -1")
    g = g0 / (1.0 + z0c) ** 2
    nu = (nu0c + m2) / (1.0 + z0c)
    return g, nu


def invert_g(m2: float, g: float,
             z0c_of_g0: Callable[[float, float], float]) -> float:
    """Invert g = g0 / (1 + z0_c(m2, g0))^2 for g0 by monotone bisection.

    Bisects g0 over [0, 1/2] down to a bracket of 1e-12, with z0_c given
    by ``z0c_of_g0(m2, g0)``.  Fails when g lies outside the image interval
    [0, s(1/2)].
    """
    if not 0.0 <= g < math.inf:
        raise ValueError(f"g must be >= 0 and finite, got {g}")
    if g == 0.0:
        return 0.0

    def s(u):
        return u / (1.0 + z0c_of_g0(m2, u)) ** 2

    if s(0.5) < g:
        raise ValueError(f"g={g} outside the image interval [0, {s(0.5):.4g}]")
    return _bisect(lambda u: s(u) < g, 0.0, 0.5, 1e-12)


def _bisect(below, lo, hi, tol):
    """Midpoint of the bracket where ``below(x)`` turns False, once it is
    ``tol`` wide or one ulp wide (the midpoint equals an endpoint)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Flow-backed critical data
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def default_flow_coefficients() -> cov_decomp.CoefficientSequences:
    """Massless coefficient tables of the d = 4 window decomposition at
    L = 2, J = 48 (cached)."""
    dec = cov_decomp.build_decomposition(4, L=2, m2=0.0, J=48)
    return cov_decomp.coefficient_sequences(dec)


def predict_nu_c(g: float, mode: str = "leading") -> float:
    """Critical value nu_c(g).

    mode="leading": -a g with a = 2 C_0(0).
    mode="flow": solve the massless boundary-value problem on
    :func:`default_flow_coefficients` for the critical initial data
    (mu0_c, z0_c) at the g0 matching g, and change variables at m2 = 0:
    nu_c = nu0_c / (1 + z0_c).
    """
    if not 0.0 <= g <= 0.1:
        raise ValueError("g outside the validated range [0, 0.1]")
    if g == 0.0:
        return 0.0
    if mode == "leading":
        return -lattice_green.constant_a() * g
    if mode != "flow":
        raise ValueError(f"unknown mode {mode!r}")
    co = default_flow_coefficients()

    def z0c(_m2, g0):
        return float(rg_flow.solve_boundary_value(g0, co).z[0])

    g0 = invert_g(0.0, g, z0c)
    traj = rg_flow.solve_boundary_value(g0, co)
    return change_variables(0.0, g0, float(traj.z[0]), float(traj.mu[0]))[1]


def amplitude(g: float) -> float:
    """A_g = (b g)^{1/4}, the leading order."""
    if g < 0:
        raise ValueError("g must be >= 0")
    return (BUBBLE_LOG_COEFF * g) ** rg_flow.GAMMA


def predict_susceptibility(g: float, eps: float) -> float:
    """Asymptotic susceptibility A_g eps^{-1} (log eps^{-1})^{1/4}.

    Restricted to the asymptotic regime eps < 1/e so the logarithm
    exceeds 1.
    """
    if not 0.0 < eps < math.exp(-1.0):
        raise ValueError("eps must lie in (0, 1/e): asymptotic regime only")
    return amplitude(g) / eps * math.log(1.0 / eps) ** rg_flow.GAMMA


def m2_of_eps(g: float, eps: float) -> float:
    """Killing rate m2 ~ eps (log eps^{-1})^{-1/4} / A_g, at z0_c = 0.

    Exact inverse of :func:`predict_susceptibility` in the sense that
    m2 * chi = 1 identically; needs A_g > 0, so g > 0.
    """
    if not 0.0 < eps < math.exp(-1.0):
        raise ValueError("eps must lie in (0, 1/e): asymptotic regime only")
    if amplitude(g) == 0.0:
        raise ValueError(f"g must be > 0 for m2(eps), got {g}: A_g = 0")
    return 1.0 / amplitude(g) * eps \
        * math.log(1.0 / eps) ** -rg_flow.GAMMA


# ---------------------------------------------------------------------------
# The ODE asymptotics lemma
# ---------------------------------------------------------------------------

def ode_asymptotics(gamma: float, t_min: float, *, points: int = 9):
    """Tabulate the solution of u' = (-log u)^{-gamma} against its asymptote.

    Solves the integrated relation  int_0^u (-log v)^gamma dv = t  by
    bisection in x = -log u, on a logarithmic t-grid from t_min up to just
    below e^{-2}.  Returns a list of rows
    (t, u, t*(-log t)^{-gamma}, ratio, implicit_residual), where the
    residual re-evaluates the defining integral by the Gauss-Legendre panel
    rule of :mod:`lattice_green`.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    if not 0.0 < t_min < math.exp(-2.0):
        raise ValueError("t_min must lie in (0, e^-2)")
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    t_max = 0.9 * math.exp(-2.0)
    ts = np.geomspace(t_min, t_max, points)
    rows = []
    for t in ts:
        if gamma == 0.0:
            u = float(t)
        else:
            # int_0^{e^{-x}} (-log v)^gamma dv = Gamma(1 + gamma, x) falls
            # with x; bisecting in x keeps tiny t clear of underflow
            from scipy.special import gamma as gamma_fn, gammaincc  # gamma > 0 only
            c, x0 = gamma_fn(1.0 + gamma), -math.log(t)
            u = math.exp(-_bisect(
                lambda x: c * gammaincc(1.0 + gamma, x) > t,
                max(1e-12, 0.3 * x0), 3.0 * x0 + 20.0, 0.0))
        asym = t * (-math.log(t)) ** -gamma
        # the defining integral with v = u e^{-s}, summed up to s = 40
        x0 = -math.log(u)
        check, _ = lattice_green._panel_rule(
            lambda s: (x0 + s) ** gamma * np.exp(-s), 0.0, 40.0)
        rows.append((float(t), u, asym, u / asym, abs(u * check - t)))
    return rows
