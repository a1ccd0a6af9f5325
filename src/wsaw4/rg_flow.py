"""The quadratic renormalisation-group recursion and its boundary-value problem.

Scale j plays the role of time for the triangular second-order system

    g_{j+1}  = g_j - beta_j g_j^2,
    z_{j+1}  = z_j - theta_j g_j^2,
    mu_{j+1} = L^2 mu_j (1 - GAMMA beta_j g_j) + eta_j g_j - xi_j g_j^2
               - pi_j g_j z_j,

with GAMMA = 1/4 the exponent that ultimately produces the quarter-power
logarithm in the susceptibility.  ``mu_j = L^{2j} nu_j`` is the rescaled
mass coupling.  :func:`step_forward` applies one step to scalars or, entry
by entry, to arrays of scales and couplings.

The flow of interest solves a two-sided boundary-value problem: ``g_0``
prescribed at scale 0, ``(z, mu) -> (0, 0)`` at infinity.  The triangular
structure solves it directly: iterate g forward, then sum the z-recursion
backward from ``z_inf = 0`` and iterate the mu-recursion backward from
``mu_J = 0`` at J = len(beta), the one truncation scale: the table ends
where the neglected tail is below roundoff.  The resulting ``(z_0, mu_0)``
are the critical initial data of the quadratic truncation.

A trajectory's derivative track is ``d/dmu_0`` along it, starting from
``(g', z', mu') = (0, 0, 1)``; g and z do not depend on mu_0, so
``(g', z')`` stays 0 and ``mu'_j`` is

    Pi_j = L^{2j} prod_{l<j} (1 - GAMMA beta_l g_l),

and ``lim_j L^{-2j} Pi_j`` is the quadratic-truncation value of the
derivative of the effective mass with respect to the initial mass coupling,
the quantity whose (bubble)^{-1/4} scaling encodes the logarithmic
correction exponent.

Everything here is the second-order truncation: the non-perturbative
remainder (third order in the couplings) is dropped, and the transformed
and untransformed coupling coordinates coincide at this order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cov_decomp import CoefficientSequences, _mass_scale

__all__ = [
    "GAMMA",
    "FlowTrajectory",
    "step_forward",
    "iterate_g",
    "solve_boundary_value",
    "g_infinity",
    "nu_prime_limit",
    "g_tilde_sequence",
]

GAMMA = 0.25


@dataclass(frozen=True)
class FlowTrajectory:
    """A flow (g_j, z_j, mu_j), j = 0..J, and its derivative track Pi; its
    data are ``g[0]`` and ``coeffs``, from which a solve repeats every bit."""

    g: np.ndarray
    z: np.ndarray
    mu: np.ndarray
    coeffs: CoefficientSequences

    @property
    def J(self) -> int:
        return len(self.g) - 1

    @property
    def Pi(self) -> np.ndarray:
        """The derivative track Pi_j = d mu_j / d mu_0 (module docstring)."""
        beta, L2 = self.coeffs.beta, float(self.coeffs.L) ** 2
        Pi = np.empty(self.J + 1)
        Pi[0] = 1.0
        for j in range(self.J):
            Pi[j + 1] = Pi[j] * L2 * (1.0 - GAMMA * beta[j] * self.g[j])
        return Pi

    def step_residual(self) -> float:
        """Max absolute deviation when forward-stepping every stored row:
        0 in g, which is forward-constructed, and roundoff in z and mu,
        which are solved backward from the truncation scale (mu is the
        expanding direction, so they cannot also satisfy the forward float
        recursion bit-exactly)."""
        rows = np.stack([self.g, self.z, self.mu])
        nxt = step_forward(self.coeffs, np.arange(self.J), *rows[:, :-1])
        return float(np.max(np.abs(rows[:, 1:] - nxt), initial=0.0))


def step_forward(coeffs: CoefficientSequences, j, g, z, mu):
    """One application of the quadratic recursion: ``(g, z, mu)`` at scale
    ``j + 1`` from scale ``j``.  Given arrays, entry i steps from scale
    ``j[i]``.  A j outside ``0 .. len(beta) - 1`` raises IndexError."""
    j = np.asarray(j)
    outside = (j < 0) | (j >= len(coeffs.beta))
    if np.any(outside):
        raise IndexError(f"scale {j[outside].flat[0]} outside the coefficient "
                         f"table 0..{len(coeffs.beta) - 1}")
    b, th = coeffs.beta[j], coeffs.theta[j]
    et, xi, pi = coeffs.eta[j], coeffs.xi[j], coeffs.pi[j]
    L2 = float(coeffs.L) ** 2
    return (g - b * g * g, z - th * g * g,
            L2 * mu * (1.0 - GAMMA * b * g) + et * g - xi * g * g - pi * g * z)


def iterate_g(g0: float, beta) -> np.ndarray:
    """Forward g-iteration g_{j+1} = g_j - beta_j g_j^2, j = 0..J-1, over
    the whole table: J = len(beta).

    Raises unless g0 is finite and >= 0, and where beta_j g_j >= 1: there
    g_{j+1} would leave (0, g_j), and the quadratic recursion fails.
    """
    if not 0.0 <= g0 < np.inf:
        raise ValueError(f"g0 must be >= 0 and finite, got {g0}")
    g = np.empty(len(beta) + 1)
    g[0] = g0
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        for j in range(len(beta)):
            g[j + 1] = g[j] - beta[j] * g[j] * g[j]
        bg = beta * g[:-1]
    if np.any(bg >= 1.0):
        j = int(np.argmax(bg >= 1.0))
        raise ValueError(f"g0 too large: beta*g = {bg[j]:.4g} >= 1 at scale "
                         f"{j}, where the coupling turns negative")
    return g


def solve_boundary_value(g0: float, coeffs: CoefficientSequences) -> FlowTrajectory:
    """Solve the two-sided boundary-value problem of the quadratic flow.

    g iterates forward from g0; z_j = sum_{k>=j} theta_k g_k^2 (backward
    summation of the z-recursion with z_inf = 0); mu iterates backward from
    mu_J = 0 at the truncation scale J = len(coeffs.beta).  The returned
    (z_0, mu_0) are the critical initial data of the quadratic truncation.
    Raises on g0 as :func:`iterate_g`.
    """
    J = len(coeffs.beta)
    g = iterate_g(g0, coeffs.beta)
    gg = g[:J] * g[:J]
    # z by backward summation, z_J treated as 0
    z = np.zeros(J + 1)
    z[:J] = np.cumsum((coeffs.theta[:J] * gg)[::-1])[::-1]
    # mu backward from mu_J = 0
    L2 = float(coeffs.L) ** 2
    mu = np.zeros(J + 1)
    for j in range(J - 1, -1, -1):
        mu[j] = (mu[j + 1] - coeffs.eta[j] * g[j] + coeffs.xi[j] * gg[j]
                 + coeffs.pi[j] * g[j] * z[j]) \
            / (L2 * (1.0 - GAMMA * coeffs.beta[j] * g[j]))
    return FlowTrajectory(g=g, z=z, mu=mu, coeffs=coeffs)


def g_infinity(g0: float, coeffs: CoefficientSequences) -> float:
    """Forward-iterate g until |g_{j+1} - g_j| < 1e-14; the limit coupling.

    Raises on g0 as :func:`iterate_g`, and RuntimeError if the iteration
    exhausts the table: beta must be summable (m2 > 0).
    """
    tol = 1e-14
    g = iterate_g(g0, coeffs.beta)
    settled = np.flatnonzero(np.abs(np.diff(g)) < tol)
    if settled.size:
        return float(g[settled[0] + 1])
    # beta may have decayed to exactly zero inside the table; then g is final
    g, tail = g[-1], coeffs.beta[-1]
    if abs(tail * g * g) < tol:
        return float(g)
    raise RuntimeError(
        f"g-iteration did not converge within {len(coeffs.beta)} scales "
        f"(last increment {tail * g * g:.2e}); is m2 > 0?")


def nu_prime_limit(traj: FlowTrajectory) -> float:
    """lim_j L^{-2j} Pi_j, the quadratic-truncation mass-derivative limit.

    Equals prod_l (1 - GAMMA beta_l g_l), asymptotically (g_inf /
    g_0)^{1/4} as the bubble diverges.  Needs a convergent product (m2 > 0,
    or a truncation scale deep enough that the remaining beta-tail is
    negligible).
    """
    return float(traj.Pi[-1] / float(traj.coeffs.L) ** (2 * traj.J))


def g_tilde_sequence(m2: float, g0: float,
                     coeffs_massless: CoefficientSequences) -> np.ndarray:
    """Massless g-flow frozen at the mass scale, over the whole table.

    g~_j = g_j(0, g0) for j <= j_m and g~_j = g_{j_m}(0, g0) beyond, where
    j_m is the smallest j with L^{2j} m2 >= 1.  ``coeffs_massless`` must
    hold the m2 = 0 beta sequence at the same L.  Raises on g0 as
    :func:`iterate_g`.
    """
    if coeffs_massless.m2 != 0.0:
        raise ValueError("g_tilde_sequence needs the massless beta table")
    g = iterate_g(g0, coeffs_massless.beta)
    j_m = _mass_scale(m2, coeffs_massless.L)
    if j_m < len(g):
        g[j_m + 1:] = g[j_m]
    return g
