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

from .core import Params, _chart_rhs, _jacobian, _on_floats
from .infinity import SQRT2, _require_zero_energy
from .mcgehee import McGeheeState, _delta_and_half_sin2, delta, energy_residual, mcgehee_rhs

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
    "zero_velocity_radius",
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


def polar_hamiltonian(s: PolarState, p: Params) -> float:
    p.require_beta_equal(2.0)
    return float(_on_floats(_hamiltonian, [float(s.r), float(s.theta), float(s.pr),
                                           float(s.ptheta)], p))


def _hamiltonian(xp, r, theta, pr, ptheta, p: Params):
    """H2 on floats, numpy scalars or complex steps, sines and cosines from xp."""
    D = delta(theta, p.mu, xp)
    return 0.5 * pr * pr + 0.5 * ptheta * ptheta / (r * r) - 1.0 / r - p.b / (r * r * D)


def polar_rhs(p: Params):
    """Hamiltonian flow of H2 in (r, theta, pr, ptheta)."""
    p.require_beta_equal(2.0)
    return _chart_rhs(_polar_arrays, p)


def _polar_arrays(xp, r, theta, pr, pth, p: Params):
    """The one definition of the polar field, one sine-cosine pair from xp."""
    b = p.b
    D, sc = _delta_and_half_sin2(theta, p.mu, xp)
    r2 = r * r
    r3 = r2 * r
    return (pr,
            pth / r2,
            pth * pth / r3 - 1.0 / r2 - 2.0 * b / (r3 * D),
            2.0 * b * (p.mu - 1.0) * sc / (r2 * D * D))


def integral_G(s: PolarState, p: Params) -> float:
    """Angular first integral ptheta^2/2 - b/Delta, conserved by the beta = 2 flow."""
    p.require_beta_equal(2.0)
    return float(_on_floats(_angular_integral, [float(s.theta), float(s.ptheta)], p))


def _angular_integral(xp, theta, ptheta, p: Params):
    """G on floats, numpy scalars or complex steps, sines and cosines from xp."""
    return 0.5 * ptheta * ptheta - p.b / delta(theta, p.mu, xp)


def poisson_bracket_H2_G(s: PolarState, p: Params) -> float:
    """{H2, G}, identically zero, from one complex-step Jacobian of the
    definitions that `polar_hamiltonian` and `integral_G` evaluate: rows H2 and
    G, columns theta and ptheta.  G has no (r, pr) dependence, so only that pair
    contributes."""
    p.require_beta_equal(2.0)
    r, pr = float(s.r), float(s.pr)  # Python floats keep the complex steps off numpy
    J = _jacobian(lambda xp, theta, ptheta, p: (_hamiltonian(xp, r, theta, pr, ptheta, p),
                                                _angular_integral(xp, theta, ptheta, p)),
                  (s.theta, s.ptheta), p)
    return float(J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0])


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


def zero_velocity_radius(theta: float, p: Params) -> float:
    """Positive root of 2 h r^2 + 2 r + 2b/Delta = 0, bounding motion for h < 0.

    Of the two roots (-1 +- sqrt(1 - 4 h b / Delta)) / (2h) only the minus sign
    is positive for h < 0; motion with r above it would need u^2 + v^2 < 0.
    """
    p.require_beta_equal(2.0)
    if p.h >= 0.0:
        raise ValueError("the zero-velocity curve exists for h < 0 only")
    D = delta(theta, p.mu, math)
    return (-1.0 - math.sqrt(1.0 - 4.0 * p.h * p.b / D)) / (2.0 * p.h)


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


def classify_heteroclinic(rho0: float, vbar0: float, p: Params) -> HeteroclinicClass:
    """Collision-side target of the zero-energy orbit through (rho0, vbar0).

    k = rho0/(vbar0^2 - 2) fixes the invariant (rho, vbar) hyperbola; backward
    flow reaches the collision manifold with v -> +-sqrt(1/k).  Equality cases
    sqrt(1/k) = sqrt(2b/mu) and sqrt(1/k) = sqrt(2b) select the fixed points on
    the axes and the diagonals respectively.
    """
    p.require_beta_equal(2.0)
    _require_zero_energy(p)
    if not (0.0 < rho0 < math.inf and math.isfinite(vbar0)):
        raise ValueError("classification requires a finite rho0 > 0 and a finite vbar0, "
                         f"got rho0 = {rho0!r}, vbar0 = {vbar0!r}")
    if abs(vbar0) == SQRT2:
        return HeteroclinicClass(math.inf, HeteroclinicTarget.EQUATOR_PERIODIC, 0.0)
    k = rho0 / (vbar0 * vbar0 - 2.0)
    if k <= 0.0:
        raise ValueError("no collision heteroclinic: k <= 0 (orbit stays away from r = 0)")
    v_lim = math.sqrt(1.0 / k)
    v_max = math.sqrt(2.0 * p.b)
    if v_lim > v_max + _EQUALITY_TOL:
        raise ValueError("no heteroclinic of this family: sqrt(1/k) > sqrt(2b) "
                         "is inconsistent with ubar^2 >= 0")
    if abs(v_lim - v_max) <= _EQUALITY_TOL:
        return HeteroclinicClass(k, HeteroclinicTarget.DIAGONAL_FIXED_POINTS, v_lim)
    if abs(v_lim - math.sqrt(2.0 * p.b / p.mu)) <= _EQUALITY_TOL:
        return HeteroclinicClass(k, HeteroclinicTarget.AXIS_FIXED_POINTS, v_lim)
    return HeteroclinicClass(k, HeteroclinicTarget.PERIODIC_ORBIT, v_lim)
