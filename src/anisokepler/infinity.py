"""Behavior at r = infinity on the zero-energy level, for beta >= 2.

Inverted coordinates rho = 1/r, vbar = rho^((beta-1)/2) v, ubar = rho^((beta-1)/2) u
with a further time rescaling dtau = rho^((beta-1)/2) ds make the field analytic
at rho = 0.  The infinity manifold I0 = {rho = 0, ubar^2 + vbar^2 = 2} is an
invariant torus carrying two circles of normally hyperbolic equilibria at
vbar = +-sqrt(2): escapes accumulate on C+ (vbar = +sqrt(2)), captures leave C-.
The equilibrium analysis is for beta > 2 (see `beta2` for beta = 2).

Angle convention on I0: ubar = sqrt(2) sin(psi), vbar = sqrt(2) cos(psi), the
same chart used on the collision torus.  Along any nonequilibrium I0 orbit the
path in (theta, psi) is the straight line theta - theta0 = -2 (psi - psi0), and
the vbar profile is vbar(theta) = sqrt(2) sin((theta + k)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, Params
from .mcgehee import McGeheeState, delta

__all__ = [
    "InfinityState",
    "EquilibriumCircle",
    "InfinityReport",
    "I0Curve",
    "to_infinity_coords",
    "from_infinity_coords",
    "infinity_field",
    "infinity_rhs",
    "infinity_energy_residual",
    "infinity_equilibria",
    "i0_rhs",
    "i0_flow_closed_form",
    "limit_circle",
    "infinity_jacobian",
]

SQRT2 = math.sqrt(2.0)

# convergence declaration for omega/alpha limits on C+-
_LIMIT_RHO_TOL = 1e-8
_LIMIT_VBAR_TOL = 1e-6
_LIMIT_DWELL = 1.0


@dataclass(frozen=True)
class InfinityState:
    rho: float
    vbar: float
    theta: float
    ubar: float

    def __post_init__(self):
        if self.rho < 0.0:
            raise ValueError("inverse radius must satisfy rho >= 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.rho, self.vbar, self.theta, self.ubar])

    @staticmethod
    def from_array(y: np.ndarray) -> "InfinityState":
        return InfinityState(*map(float, y))


def _require_zero_energy(p: Params) -> None:
    if p.h != 0.0:
        raise ValueError("infinity-manifold analysis is restricted to h = 0")


def to_infinity_coords(m: McGeheeState, p: Params) -> InfinityState:
    _require_zero_energy(p)
    if m.r <= 0.0:
        raise DomainError("r = 0 does not map to the inverted chart")
    rho = 1.0 / m.r
    scale = rho ** ((p.beta - 1.0) / 2.0)
    return InfinityState(rho, scale * m.v, m.theta, scale * m.u)


def from_infinity_coords(s: InfinityState, p: Params) -> McGeheeState:
    if s.rho <= 0.0:
        raise DomainError("rho = 0 is the infinity boundary; not invertible")
    scale = s.rho ** ((p.beta - 1.0) / 2.0)
    return McGeheeState(1.0 / s.rho, s.vbar / scale, s.theta, s.ubar / scale)


def infinity_energy_residual(s: InfinityState, p: Params) -> float:
    """ubar^2 + vbar^2 - 2 - (2b/Delta^(beta/2)) rho^(beta-1); zero on the h = 0 level."""
    D = delta(s.theta, p.mu)
    return (s.ubar * s.ubar + s.vbar * s.vbar - 2.0
            - 2.0 * p.b / D ** (p.beta / 2.0) * s.rho ** (p.beta - 1.0))


def infinity_rhs(p: Params):
    p.require_beta_above(2.0, strict=False)
    _require_zero_energy(p)
    beta, mu, b = p.beta, p.mu, p.b

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        rho, vb, theta, ub = y
        D = delta(theta, mu)
        rp = rho ** (beta - 1.0)
        return np.array([
            -rho * vb,
            -0.5 * vb * vb - b * (beta - 2.0) / D ** (beta / 2.0) * rp + 1.0,
            ub,
            -0.5 * ub * vb
            + b * beta * (mu - 1.0) * math.sin(2.0 * theta) / (2.0 * D ** ((beta + 2.0) / 2.0)) * rp,
        ])

    return rhs


def infinity_field(s: InfinityState, p: Params) -> np.ndarray:
    """Rescaled field near infinity; analytic at rho = 0, where drho/ds = 0."""
    return infinity_rhs(p)(0.0, s.as_array())


@dataclass(frozen=True)
class EquilibriumCircle:
    """Circle of equilibria {rho = 0, vbar = v0, ubar = 0, theta free}."""

    vbar: float
    eigenvalues: tuple[float, float, float]
    attracting: bool

    def point(self, theta: float) -> InfinityState:
        return InfinityState(0.0, self.vbar, theta, 0.0)


@dataclass(frozen=True)
class InfinityReport:
    c_plus: EquilibriumCircle
    c_minus: EquilibriumCircle


def infinity_equilibria(p: Params) -> InfinityReport:
    """The two circles C+- at vbar = +-sqrt(2), independent of beta: C+ normally
    hyperbolic attracting (eigenvalues {-sqrt2, -sqrt2/2, 0}), C- repelling."""
    p.require_beta_above(2.0)
    _require_zero_energy(p)
    return InfinityReport(
        c_plus=EquilibriumCircle(SQRT2, (-SQRT2, 0.0, -SQRT2 / 2.0), True),
        c_minus=EquilibriumCircle(-SQRT2, (SQRT2, 0.0, SQRT2 / 2.0), False),
    )


def infinity_jacobian(v0: float) -> np.ndarray:
    """Linearization at a point of C+- restricted to the level set, in the
    (rho, theta, ubar) basis: eigenvalues {-v0, 0, -v0/2}."""
    return np.array([[-v0, 0.0, 0.0],
                     [0.0, 0.0, 1.0],
                     [0.0, 0.0, -v0 / 2.0]])


def i0_rhs(p: Params | None = None):
    """Flow restricted to I0 in (vbar, theta, ubar): dvbar/ds = ubar^2/2,
    dtheta/ds = ubar, dubar/ds = -ubar vbar / 2.  Independent of all parameters."""

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        vb, theta, ub = y
        return np.array([0.5 * ub * ub, ub, -0.5 * ub * vb])

    return rhs


@dataclass(frozen=True)
class I0Curve:
    """Closed-form heteroclinic on I0 through (theta0, psi0), running C- to C+.

    psi(theta) = psi0 - (theta - theta0)/2, i.e. theta - theta0 = -2 (psi - psi0),
    and vbar(theta) = sqrt(2) sin((theta + k)/2) with k pinned by the start point.
    """

    theta0: float
    psi0: float
    k: float

    def psi_of_theta(self, theta):
        return self.psi0 - 0.5 * (np.asarray(theta) - self.theta0)

    def theta_of_psi(self, psi):
        return self.theta0 - 2.0 * (np.asarray(psi) - self.psi0)

    def vbar_of_theta(self, theta):
        return SQRT2 * np.sin(0.5 * (np.asarray(theta) + self.k))

    def ubar_of_theta(self, theta):
        return SQRT2 * np.sin(self.psi_of_theta(theta))

    def state(self, theta: float) -> InfinityState:
        return InfinityState(0.0, float(self.vbar_of_theta(theta)), theta,
                             float(self.ubar_of_theta(theta)))


def i0_flow_closed_form(theta0: float, psi0: float) -> I0Curve:
    """Closed-form I0 orbit through ubar = sqrt2 sin(psi0), vbar = sqrt2 cos(psi0)."""
    if math.sin(psi0) == 0.0:
        raise ValueError("equilibrium initial data (ubar = 0) has no orbit curve")
    # phase of (ubar, vbar) on the circle: vbar = sqrt2 sin((theta+k)/2)
    phi0 = math.atan2(math.cos(psi0), math.sin(psi0))  # = pi/2 - psi0
    return I0Curve(theta0, psi0, 2.0 * phi0 - theta0)


def limit_circle(times: np.ndarray, states: np.ndarray) -> str | None:
    """Detect convergence of an inverted-coordinates trajectory to C+ or C-.

    Declared converged when |rho| < 1e-8 and |vbar -+ sqrt2| < 1e-6 hold for a
    dwell of s-time 1 at the end of the samples; returns '+', '-' or None.
    """
    t_end = times[-1]
    dwell = np.abs(times - t_end) <= _LIMIT_DWELL
    rho = states[dwell, 0]
    vbar = states[dwell, 1]
    if np.all(np.abs(rho) < _LIMIT_RHO_TOL):
        if np.all(np.abs(vbar - SQRT2) < _LIMIT_VBAR_TOL):
            return "+"
        if np.all(np.abs(vbar + SQRT2) < _LIMIT_VBAR_TOL):
            return "-"
    return None
