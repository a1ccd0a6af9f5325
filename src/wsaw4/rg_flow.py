"""The quadratic renormalisation-group recursion and its boundary-value problem.

Scale j plays the role of time for the triangular second-order system

    g_{j+1}  = g_j - beta_j g_j^2,
    z_{j+1}  = z_j - theta_j g_j^2,
    mu_{j+1} = L^2 mu_j (1 - GAMMA beta_j g_j) + eta_j g_j - xi_j g_j^2
               - pi_j g_j z_j,

with GAMMA = 1/4 the exponent that ultimately produces the quarter-power
logarithm in the susceptibility.  ``mu_j = L^{2j} nu_j`` is the rescaled
mass coupling.

The flow of interest solves a two-sided boundary-value problem: ``g_0``
prescribed at scale 0, ``(z, mu) -> (0, 0)`` at infinity.  The triangular
structure solves it directly: iterate g forward, then sum the z-recursion
backward from ``z_inf = 0`` and iterate the mu-recursion backward from
``mu_J = 0`` at a truncation scale J chosen so the neglected tail is below
roundoff.  The resulting ``(z_0, mu_0)`` are the critical initial data of
the quadratic truncation.

The derivative flow propagates ``d/dmu_0`` along a trajectory, starting
from ``(g', z', mu') = (0, 0, 1)``; g and z do not depend on mu_0, so its
mu-component equals

    Pi_j = L^{2j} prod_{l<j} (1 - GAMMA beta_l g_l),

and ``lim_j L^{-2j} mu'_j`` is the quadratic-truncation value of the
derivative of the effective mass with respect to the initial mass coupling,
the quantity whose (bubble)^{-1/4} scaling encodes the logarithmic
correction exponent.

Everything here is the second-order truncation: the non-perturbative
remainder (third order in the couplings) is dropped, and the transformed
and untransformed coupling coordinates coincide at this order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cov_decomp import CoefficientSequences

__all__ = [
    "GAMMA",
    "FlowState",
    "FlowTrajectory",
    "step_forward",
    "iterate_g",
    "solve_boundary_value",
    "g_infinity",
    "derivative_flow",
    "nu_prime_limit",
    "g_tilde_sequence",
]

GAMMA = 0.25


@dataclass(frozen=True)
class FlowState:
    """Couplings (g, z, mu) at scale j.

    mu is the rescaled mass coupling; the bare one is nu_j = L^{-2j} mu_j.
    """

    g: float
    z: float
    mu: float
    j: int


@dataclass(frozen=True)
class FlowTrajectory:
    """A flow (g_j, z_j, mu_j), j = 0..J, plus an optional derivative track."""

    g: np.ndarray
    z: np.ndarray
    mu: np.ndarray
    coeffs: CoefficientSequences
    g0: float
    m2: float
    gamma: float = GAMMA
    Pi: np.ndarray | None = None
    mu_prime: np.ndarray | None = None
    c_est: float | None = None

    @property
    def J(self) -> int:
        return len(self.g) - 1

    def state(self, j: int) -> FlowState:
        return FlowState(g=float(self.g[j]), z=float(self.z[j]),
                         mu=float(self.mu[j]), j=j)

    def step_residual(self) -> float:
        """Max absolute deviation when forward-stepping every stored pair.

        The g-component is forward-constructed so its residual is exactly
        zero; z and mu are solved backward against the boundary condition at
        the truncation scale (mu is the expanding direction, so they cannot
        also satisfy the forward float recursion bit-exactly), leaving
        residuals at roundoff.
        """
        worst = 0.0
        for j in range(self.J):
            nxt = step_forward(self.state(j), self.coeffs, gamma=self.gamma)
            worst = max(worst,
                        abs(nxt.g - self.g[j + 1]),
                        abs(nxt.z - self.z[j + 1]),
                        abs(nxt.mu - self.mu[j + 1]))
        return worst

    def replay(self) -> "FlowTrajectory":
        """Reconstruct the trajectory from its defining data.

        Bit-exact: solving the boundary-value problem again with the same
        coefficients reproduces every stored number identically.
        """
        return solve_boundary_value(self.g0, self.coeffs, self.J,
                                    gamma=self.gamma)


def _check_scale(coeffs, j):
    if j >= len(coeffs.beta):
        raise IndexError(
            f"scale {j} beyond coefficient table length {len(coeffs.beta)}")


def step_forward(state: FlowState, coeffs: CoefficientSequences, *,
                 gamma: float = GAMMA) -> FlowState:
    """One application of the quadratic recursion."""
    j = state.j
    _check_scale(coeffs, j)
    b, th = coeffs.beta[j], coeffs.theta[j]
    et, xi, pi = coeffs.eta[j], coeffs.xi[j], coeffs.pi[j]
    L2 = float(coeffs.L) ** 2
    g, z, mu = state.g, state.z, state.mu
    return FlowState(
        g=g - b * g * g,
        z=z - th * g * g,
        mu=L2 * mu * (1.0 - gamma * b * g) + et * g - xi * g * g - pi * g * z,
        j=j + 1,
    )


def iterate_g(g0: float, beta, J: int) -> np.ndarray:
    """Forward g-iteration g_{j+1} = g_j - beta_j g_j^2, j = 0..J-1."""
    g = np.empty(J + 1)
    g[0] = g0
    for j in range(J):
        g[j + 1] = g[j] - beta[j] * g[j] * g[j]
    return g


def solve_boundary_value(g0: float, coeffs: CoefficientSequences,
                         J: int | None = None, *,
                         gamma: float = GAMMA) -> FlowTrajectory:
    """Solve the two-sided boundary-value problem of the quadratic flow.

    g iterates forward from g0; z_j = sum_{k>=j} theta_k g_k^2 (backward
    summation of the z-recursion with z_inf = 0); mu iterates backward from
    mu_J = 0.  The returned (z_0, mu_0) are the critical initial data of the
    quadratic truncation.

    Raises if 1 - gamma*beta_j*g_j <= 0 at any scale (the recursion leaves
    its contraction regime; reduce g0).
    """
    if g0 < 0:
        raise ValueError("g0 must be >= 0")
    J = len(coeffs.beta) if J is None else J
    if J > len(coeffs.beta):
        raise IndexError(f"J={J} beyond coefficient table length {len(coeffs)}")
    g = iterate_g(g0, coeffs.beta, J)
    gg = g[:J] * g[:J]
    # z by backward summation, z_J treated as 0
    z = np.zeros(J + 1)
    z[:J] = np.cumsum((coeffs.theta[:J] * gg)[::-1])[::-1]
    # mu backward from mu_J = 0
    L2 = float(coeffs.L) ** 2
    mu = np.zeros(J + 1)
    for j in range(J - 1, -1, -1):
        contraction = 1.0 - gamma * coeffs.beta[j] * g[j]
        if contraction <= 0.0:
            raise ValueError(
                f"1 - gamma*beta*g <= 0 at scale {j}: g0 too large for the "
                "quadratic recursion's validity regime")
        mu[j] = (mu[j + 1] - coeffs.eta[j] * g[j] + coeffs.xi[j] * gg[j]
                 + coeffs.pi[j] * g[j] * z[j]) / (L2 * contraction)
    return FlowTrajectory(g=g, z=z, mu=mu, coeffs=coeffs, g0=g0,
                          m2=coeffs.m2, gamma=gamma)


def g_infinity(g0: float, coeffs: CoefficientSequences, *,
               max_scales: int | None = None) -> float:
    """Forward-iterate g until |g_{j+1} - g_j| < 1e-14; the limit coupling.

    Requires a summable beta sequence (m2 > 0), otherwise the iteration
    exhausts the coefficient table and a non-convergence error is raised.
    """
    tol = 1e-14
    max_scales = len(coeffs.beta) if max_scales is None else max_scales
    g = g0
    for j in range(min(max_scales, len(coeffs.beta))):
        g_next = g - coeffs.beta[j] * g * g
        if abs(g_next - g) < tol:
            return g_next
        g = g_next
    # beta may have decayed to exactly zero inside the table; then g is final
    tail = coeffs.beta[min(max_scales, len(coeffs.beta)) - 1]
    if abs(tail * g * g) < tol:
        return g
    raise RuntimeError(
        f"g-iteration did not converge within {max_scales} scales "
        f"(last increment {tail * g * g:.2e}); is m2 > 0?")


def derivative_flow(traj: FlowTrajectory) -> FlowTrajectory:
    """Evolve d/dmu_0 of the quadratic recursion along a trajectory.

    Starts from (g', z', mu')_0 = (0, 0, 1).  The g- and z-recursions do not
    involve mu, so (g', z') stays (0, 0) and mu' obeys the linear recursion
    of Pi_j = L^{2j} prod_{l<j} (1 - gamma beta_l g_l), with the
    trajectory's own ``gamma``: mu' = Pi, and c_est = mu'_J / Pi_J is 1.
    """
    c = traj.coeffs
    L2 = float(c.L) ** 2
    Pi = np.empty(traj.J + 1)
    Pi[0] = 1.0
    for j in range(traj.J):
        Pi[j + 1] = Pi[j] * L2 * (1.0 - traj.gamma * c.beta[j] * traj.g[j])
    return replace(traj, Pi=Pi, mu_prime=Pi.copy(), c_est=1.0)


def nu_prime_limit(traj: FlowTrajectory) -> float:
    """lim_j L^{-2j} mu'_j, the quadratic-truncation mass-derivative limit.

    Equals c_est * prod_l (1 - gamma beta_l g_l); with gamma = 1/4 this is
    asymptotically c_est * (g_inf / g_0)^{1/4} as the bubble diverges.
    Needs the derivative track (run :func:`derivative_flow` first) and a
    convergent product (m2 > 0, or a truncation scale deep enough that the
    remaining beta-tail is negligible).
    """
    if traj.mu_prime is None:
        raise ValueError("derivative track missing: run derivative_flow first")
    J = traj.J
    return float(traj.mu_prime[J] / float(traj.coeffs.L) ** (2 * J))


def g_tilde_sequence(m2: float, g0: float,
                     coeffs_massless: CoefficientSequences,
                     J: int | None = None) -> np.ndarray:
    """Massless g-flow frozen at the mass scale.

    g~_j = g_j(0, g0) for j <= j_m and g~_j = g_{j_m}(0, g0) beyond, where
    j_m is the smallest j with L^{2j} m2 >= 1.  ``coeffs_massless`` must
    hold the m2 = 0 beta sequence at the same L.
    """
    if coeffs_massless.m2 != 0.0:
        raise ValueError("g_tilde_sequence needs the massless beta table")
    J = len(coeffs_massless.beta) if J is None else J
    g = iterate_g(g0, coeffs_massless.beta, J)
    if m2 <= 0:
        return g
    L = coeffs_massless.L
    j_m = 0
    while float(L) ** (2 * j_m) * m2 < 1.0:
        j_m += 1
    out = g.copy()
    if j_m < J:
        out[j_m + 1:] = g[j_m]
    return out
