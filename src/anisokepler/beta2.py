"""The integrable exponent beta = 2: extra first integral, regularized flow,
zero-velocity curve, and the heteroclinic link between collision and infinity.

In polar coordinates H2 = pr^2/2 + ptheta^2/(2 r^2) - 1/r - b/(r^2 Delta) and
G = ptheta^2/2 - b/Delta Poisson-commute, so the system is integrable.  In
regularized variables G becomes g = (u^2 - 2b/Delta)/2.  On the zero-energy
level the infinity set degenerates to two circles of fixed points, and every
orbit asymptotic to them is also asymptotic to the collision manifold; the
limiting radial velocity classifies the collision-side target.

The regularized and inverted-chart fields are those of `mcgehee` and
`infinity`; this module holds only what is particular to beta = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Params
from .infinity import SQRT2, InfinityState
from .mcgehee import McGeheeState, delta, energy_residual, mcgehee_rhs

__all__ = [
    "PolarState",
    "HeteroclinicTarget",
    "HeteroclinicClass",
    "polar_hamiltonian",
    "polar_rhs",
    "integral_G",
    "poisson_bracket_H2_G",
    "beta2_mcgehee_rhs",
    "beta2_energy_residual",
    "beta2_g",
    "zero_velocity_radius",
    "beta2_infinity_g",
    "rho_of_vbar",
    "classify_heteroclinic",
]

_EQUALITY_TOL = 1e-9  # codimension-one case detection on sqrt(1/k)


@dataclass(frozen=True)
class PolarState:
    r: float
    theta: float
    pr: float
    ptheta: float

    def __post_init__(self):
        if self.r <= 0.0:
            raise ValueError("polar chart requires r > 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.r, self.theta, self.pr, self.ptheta])

    @staticmethod
    def from_array(y: np.ndarray) -> "PolarState":
        return PolarState(*map(float, y))


def polar_hamiltonian(s: PolarState, p: Params) -> float:
    p.require_beta_equal(2.0)
    D = delta(s.theta, p.mu)
    return (0.5 * s.pr * s.pr + 0.5 * s.ptheta * s.ptheta / (s.r * s.r)
            - 1.0 / s.r - p.b / (s.r * s.r * D))


def polar_rhs(p: Params):
    """Hamiltonian flow of H2 in (r, theta, pr, ptheta)."""
    p.require_beta_equal(2.0)
    mu, b = p.mu, p.b
    eps = mu - 1.0

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        r, theta, pr, pth = y
        D = delta(theta, mu)
        r2 = r * r
        r3 = r2 * r
        return np.array([
            pr,
            pth / r2,
            pth * pth / r3 - 1.0 / r2 - 2.0 * b / (r3 * D),
            b * eps * math.sin(2.0 * theta) / (r2 * D * D),
        ])

    return rhs


def integral_G(s: PolarState, p: Params) -> float:
    """Angular first integral ptheta^2/2 - b/Delta, conserved by the beta = 2 flow."""
    p.require_beta_equal(2.0)
    return 0.5 * s.ptheta * s.ptheta - p.b / delta(s.theta, p.mu)


def poisson_bracket_H2_G(s: PolarState, p: Params) -> float:
    """{H2, G} from the explicit partial derivatives; identically zero.

    Only the theta / ptheta pair contributes since G carries no (r, pr)
    dependence; the residual is returned for verification.
    """
    p.require_beta_equal(2.0)
    eps = p.mu - 1.0
    D = delta(s.theta, p.mu)
    dH_dtheta = -p.b * eps * math.sin(2.0 * s.theta) / (s.r * s.r * D * D)
    dH_dptheta = s.ptheta / (s.r * s.r)
    dG_dtheta = -p.b * eps * math.sin(2.0 * s.theta) / (D * D)
    dG_dptheta = s.ptheta
    return dH_dtheta * dG_dptheta - dH_dptheta * dG_dtheta


def beta2_mcgehee_rhs(p: Params):
    """Regularized flow at beta = 2, the McGehee field with the beta = 2 gate:
    r' = rv, v' = 2 h r^2 + r, theta' = u, u' = eps b sin(2 theta)/Delta^2;
    analytic at r = 0 and the restriction to the collision manifold has v constant."""
    p.require_beta_equal(2.0)
    return mcgehee_rhs(p)


def beta2_energy_residual(m: McGeheeState, p: Params) -> float:
    """u^2 + v^2 - 2r - 2b/Delta - 2 h r^2; zero on the energy level."""
    p.require_beta_equal(2.0)
    return energy_residual(m, p)


def beta2_g(m: McGeheeState, p: Params) -> float:
    """The integral G in regularized variables: g = (u^2 - 2b/Delta)/2."""
    p.require_beta_equal(2.0)
    return 0.5 * (m.u * m.u - 2.0 * p.b / delta(m.theta, p.mu))


def zero_velocity_radius(theta: float, p: Params) -> float:
    """Positive root of 2 h r^2 + 2 r + 2b/Delta = 0, bounding motion for h < 0.

    Of the two roots (-1 +- sqrt(1 - 4 h b / Delta)) / (2h) only the minus sign
    is positive for h < 0; motion with r above it would need u^2 + v^2 < 0.
    """
    p.require_beta_equal(2.0)
    if p.h >= 0.0:
        raise ValueError("the zero-velocity curve exists for h < 0 only")
    D = delta(theta, p.mu)
    return (-1.0 - math.sqrt(1.0 - 4.0 * p.h * p.b / D)) / (2.0 * p.h)


def beta2_infinity_g(s: InfinityState, p: Params) -> float:
    """g recovered from inverted variables: (ubar^2 - 2 b rho/Delta)/(2 rho)."""
    p.require_beta_equal(2.0)
    if s.rho <= 0.0:
        raise ValueError("g is recovered from rho > 0 states only")
    D = delta(s.theta, p.mu)
    return (s.ubar * s.ubar - 2.0 * p.b * s.rho / D) / (2.0 * s.rho)


def rho_of_vbar(rho0: float, vbar0: float, vbar) -> np.ndarray:
    """Invariant (rho, vbar) relation rho = (rho0/(vbar0^2 - 2)) (vbar^2 - 2)."""
    if vbar0 * vbar0 == 2.0:
        raise ValueError("relation degenerates on vbar0 = +-sqrt2")
    k = rho0 / (vbar0 * vbar0 - 2.0)
    return k * (np.asarray(vbar) ** 2 - 2.0)


class HeteroclinicTarget(Enum):
    EQUATOR_PERIODIC = "equator periodic orbits"
    PERIODIC_ORBIT = "periodic orbit at v = +-sqrt(1/k)"
    AXIS_FIXED_POINTS = "fixed points A_0 / A_pi"
    DIAGONAL_FIXED_POINTS = "fixed points A_(+-pi/2)"


@dataclass(frozen=True)
class HeteroclinicClass:
    k: float
    target: HeteroclinicTarget
    v_limit: float  # limiting |v| on the collision side (0 for the equator case)


def classify_heteroclinic(rho0: float, vbar0: float, p: Params,
                          tol: float = _EQUALITY_TOL) -> HeteroclinicClass:
    """Collision-side target of the zero-energy orbit through (rho0, vbar0).

    k = rho0/(vbar0^2 - 2) fixes the invariant (rho, vbar) hyperbola; backward
    flow reaches the collision manifold with v -> +-sqrt(1/k).  Equality cases
    sqrt(1/k) = sqrt(2b/mu) and sqrt(1/k) = sqrt(2b) select the fixed points on
    the axes and the diagonals respectively.
    """
    p.require_beta_equal(2.0)
    if p.h != 0.0:
        raise ValueError("heteroclinic classification is restricted to h = 0")
    if rho0 <= 0.0:
        raise ValueError("classification requires rho0 > 0")
    if abs(vbar0) == SQRT2:
        return HeteroclinicClass(math.inf, HeteroclinicTarget.EQUATOR_PERIODIC, 0.0)
    k = rho0 / (vbar0 * vbar0 - 2.0)
    if k <= 0.0:
        raise ValueError("no collision heteroclinic: k <= 0 (orbit stays away from r = 0)")
    v_lim = math.sqrt(1.0 / k)
    v_max = math.sqrt(2.0 * p.b)
    if v_lim > v_max + tol:
        raise ValueError("no heteroclinic of this family: sqrt(1/k) > sqrt(2b) "
                         "is inconsistent with ubar^2 >= 0")
    if abs(v_lim - v_max) <= tol:
        return HeteroclinicClass(k, HeteroclinicTarget.DIAGONAL_FIXED_POINTS, v_lim)
    if abs(v_lim - math.sqrt(2.0 * p.b / p.mu)) <= tol:
        return HeteroclinicClass(k, HeteroclinicTarget.AXIS_FIXED_POINTS, v_lim)
    return HeteroclinicClass(k, HeteroclinicTarget.PERIODIC_ORBIT, v_lim)
