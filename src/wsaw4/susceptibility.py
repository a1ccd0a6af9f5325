"""Susceptibility asymptotics, the critical-point expansion, and parameter maps.

For the weakly self-avoiding walk in d = 4 the susceptibility diverges at
``nu_c(g)`` with a quarter-power logarithmic correction,

    chi(g, nu_c + eps) ~ A_g eps^{-1} (log eps^{-1})^{1/4},
    A_g = (b g)^{1/4} (1 + O(g)),            b = 1/(2 pi^2),

the critical point itself obeys ``nu_c(g) = -a g + O(g^2)`` with
``a = 2 C_0(0)``, and the effective killing rate vanishes like

    m2(eps) ~ (1 + z0_c) / A_g * eps (log eps^{-1})^{-1/4}.

The pair (chi_of_eps, m2_of_eps) is built as exact mutual inverses:
``m2 * chi = 1 + z0_c`` identically, mirroring the identity
``chi = (1 + z0) / m2`` that holds at the critical parameter choice.

Bare couplings (g, nu) and renormalised ones (m2, g0, nu0, z0) are related
by  g0 = g (1 + z0)^2  and  nu0 = (1 + z0) nu - m2; the inverse map on g is
computed by monotone bisection on  s(g0) = g0 / (1 + z0_c(g0))^2.

The module also provides the elementary asymptotic lemma behind the proof:
if u'(t) = (-log u)^{-gamma} (1 + o(1)) with u(0) = 0, then
u(t) = t (-log t)^{-gamma} (1 + o(1)).  The solution is obtained from the
integrated form  int_0^u (-log v)^gamma dv = t, whose left side is the
upper incomplete gamma function Gamma(1 + gamma, -log u); root-finding in
-log u avoids any stiffness near u = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import integrate, special
from scipy.optimize import brentq

from . import cov_decomp, lattice_green, rg_flow

__all__ = [
    "BUBBLE_LOG_COEFF",
    "ParameterTuple",
    "Prediction",
    "default_flow_coefficients",
    "predict_nu_c",
    "predict_susceptibility",
    "m2_of_eps",
    "amplitude",
    "make_prediction",
    "change_variables",
    "invert_g",
    "ode_asymptotics",
]

BUBBLE_LOG_COEFF = 1.0 / (2.0 * math.pi**2)  # slope b of the d=4 bubble in log(1/m2)

GAMMA = rg_flow.GAMMA


# ---------------------------------------------------------------------------
# Parameter bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParameterTuple:
    """Bare couplings (g, nu) together with renormalised (m2, g0, nu0, z0)."""

    g: float
    nu: float
    m2: float
    g0: float
    nu0: float
    z0: float

    def residuals(self):
        """Residuals of the two defining relations (both exactly zero when
        the tuple is consistent)."""
        return (self.g0 - self.g * (1.0 + self.z0) ** 2,
                self.nu0 - ((1.0 + self.z0) * self.nu - self.m2))


def change_variables(m2: float, g0: float, z0c: float, nu0c: float):
    """Map renormalised parameters to bare couplings (g, nu)."""
    if z0c <= -1.0:
        raise ValueError("z0 must exceed -1")
    g = g0 / (1.0 + z0c) ** 2
    nu = (nu0c + m2) / (1.0 + z0c)
    return g, nu


def invert_g(m2: float, g: float,
             z0c_of_g0: Callable[[float, float], float] | None = None) -> float:
    """Invert g = g0 / (1 + z0_c(m2, g0))^2 for g0 by monotone bisection.

    Bisects g0 over [0, 1/2] down to a bracket of 1e-12.  ``z0c_of_g0(m2,
    g0)`` defaults to zero (the default coefficient tables give z0_c = 0,
    making the map the identity).  Fails when g lies outside the image
    interval [0, s(1/2)].
    """
    if g < 0:
        raise ValueError("g must be >= 0")
    if g == 0.0:
        return 0.0
    zfn = (lambda m, u: 0.0) if z0c_of_g0 is None else z0c_of_g0

    def s(u):
        return u / (1.0 + zfn(m2, u)) ** 2

    if s(0.5) < g:
        raise ValueError(f"g={g} outside the image interval [0, {s(0.5):.4g}]")
    lo_v, hi_v = 0.0, 0.5
    while hi_v - lo_v > 1e-12:
        mid = 0.5 * (lo_v + hi_v)
        if s(mid) < g:
            lo_v = mid
        else:
            hi_v = mid
    return 0.5 * (lo_v + hi_v)


# ---------------------------------------------------------------------------
# Flow-backed critical data
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def default_flow_coefficients() -> cov_decomp.CoefficientSequences:
    """Massless coefficient tables of the d = 4 window decomposition at
    L = 2, J = 48 (cached)."""
    spec = lattice_green.LatticeSpec.window(4)
    dec = cov_decomp.build_decomposition(spec, L=2, m2=0.0, J=48)
    return cov_decomp.coefficient_sequences(dec)


def predict_nu_c(g: float, mode: str = "leading",
                 coeffs: cov_decomp.CoefficientSequences | None = None) -> float:
    """Critical value nu_c(g).

    mode="leading": -a g with a = 2 C_0(0).
    mode="flow": solve the massless boundary-value problem for the critical
    initial data (mu0_c, z0_c) at the g0 matching g, and change variables at
    m2 = 0:  nu_c = nu0_c / (1 + z0_c).
    """
    if not 0.0 <= g <= 0.1:
        raise ValueError("g outside the validated range [0, 0.1]")
    if g == 0.0:
        return 0.0
    if mode == "leading":
        return -lattice_green.constant_a() * g
    if mode != "flow":
        raise ValueError(f"unknown mode {mode!r}")
    co = default_flow_coefficients() if coeffs is None else coeffs
    if co.m2 != 0.0:
        raise ValueError("flow mode needs massless coefficient tables")

    def z0c(_m2, g0):
        return float(rg_flow.solve_boundary_value(g0, co).z[0])

    g0 = invert_g(0.0, g, z0c)
    traj = rg_flow.solve_boundary_value(g0, co)
    return float(traj.mu[0] / (1.0 + traj.z[0]))


def amplitude(g: float) -> float:
    """A_g = (b g)^{1/4}, the leading order."""
    if g < 0:
        raise ValueError("g must be >= 0")
    return (BUBBLE_LOG_COEFF * g) ** GAMMA


def predict_susceptibility(g: float, eps: float) -> float:
    """Asymptotic susceptibility A_g eps^{-1} (log eps^{-1})^{1/4}.

    Restricted to the asymptotic regime eps < 1/e so the logarithm
    exceeds 1.
    """
    if not 0.0 < eps < math.exp(-1.0):
        raise ValueError("eps must lie in (0, 1/e): asymptotic regime only")
    return amplitude(g) / eps * math.log(1.0 / eps) ** GAMMA


def m2_of_eps(g: float, eps: float, *, z0c: float = 0.0) -> float:
    """Effective killing rate m2 ~ (1+z0_c)/A_g * eps (log eps^{-1})^{-1/4}.

    Exact inverse of :func:`predict_susceptibility` in the sense that
    m2 * chi = 1 + z0_c identically.
    """
    if not 0.0 < eps < math.exp(-1.0):
        raise ValueError("eps must lie in (0, 1/e): asymptotic regime only")
    return (1.0 + z0c) / amplitude(g) * eps * math.log(1.0 / eps) ** -GAMMA


@dataclass(frozen=True)
class Prediction:
    """Bundle of headline predictions at fixed g."""

    nu_c: float
    A_g: float
    gamma: float
    chi_of_eps: Callable[[float], float]
    m2_of_eps: Callable[[float], float]


def make_prediction(g: float, *, mode: str = "leading",
                    coeffs=None) -> Prediction:
    return Prediction(
        nu_c=predict_nu_c(g, mode, coeffs),
        A_g=amplitude(g),
        gamma=GAMMA,
        chi_of_eps=lambda eps: predict_susceptibility(g, eps),
        m2_of_eps=lambda eps: m2_of_eps(g, eps),
    )


# ---------------------------------------------------------------------------
# The ODE asymptotics lemma
# ---------------------------------------------------------------------------

def _phi(u: float, gamma: float) -> float:
    """Phi(u) = int_0^u (-log v)^gamma dv = Gamma(1+gamma, -log u)."""
    x = -math.log(u)
    return special.gamma(1.0 + gamma) * special.gammaincc(1.0 + gamma, x)


def ode_asymptotics(gamma: float, t_min: float, *, points: int = 9):
    """Tabulate the solution of u' = (-log u)^{-gamma} against its asymptote.

    Solves the integrated relation  int_0^u (-log v)^gamma dv = t  by
    root-finding in x = -log u, on a logarithmic t-grid from t_min up to
    just below e^{-2}.  Returns a list of rows
    (t, u, t*(-log t)^{-gamma}, ratio, implicit_residual), where the
    residual re-evaluates the defining integral by adaptive quadrature.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    if not 0.0 < t_min < math.exp(-2.0):
        raise ValueError("t_min must lie in (0, e^-2)")
    t_max = 0.9 * math.exp(-2.0)
    ts = np.geomspace(t_min, t_max, points)
    rows = []
    for t in ts:
        if gamma == 0.0:
            u = float(t)
        else:
            x0 = -math.log(t)
            lo = max(1e-12, 0.3 * x0)
            hi = 3.0 * x0 + 20.0
            f = lambda x: _phi(math.exp(-x), gamma) - t
            u = math.exp(-brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16))
        asym = t * (-math.log(t)) ** -gamma
        # residual of the defining integral, re-evaluated by adaptive
        # quadrature; substituting v = u*w keeps the estimate relative
        x0 = -math.log(u)
        check, _ = integrate.quad(
            lambda w: (x0 - np.log(w)) ** gamma, 0.0, 1.0,
            epsabs=0.0, epsrel=1e-13, limit=400)
        rows.append((float(t), u, asym, u / asym, abs(u * check - t)))
    return rows
