"""McGehee-regularized coordinates and flow near collision, for beta >= 2.

Coordinates (r, v, theta, u) with r = sqrt(x^2 + y^2), theta = atan2(y, x),
v = r^((beta-2)/2) * (x*px + y*py), u = r^((beta-2)/2) * (x*py - y*px), and the
time rescaling dt/dtau = r^(beta/2 + 1).  The vector field is polynomial in r
and trigonometric in theta, hence analytic up to the collision boundary r = 0.
The set C = {r = 0, u^2 + v^2 = 2b/Delta^(beta/2)} (a torus) is invariant; its
flow organizes all near-collision orbits.  The analyses of C need beta > 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import CartesianState, DomainError, Params

__all__ = [
    "COLLISION_RADIUS",
    "delta",
    "McGeheeState",
    "Stability",
    "EquilibriumReport",
    "to_mcgehee",
    "from_mcgehee",
    "mcgehee_field",
    "mcgehee_rhs",
    "mcgehee_rhs_with_time",
    "energy_residual",
    "collision_flow",
    "collision_rhs",
    "equilibria",
    "equilibrium_location",
    "equilibrium_eigenvalues",
    "linearize_at",
    "reduced_field",
    "classify",
    "spiral_threshold",
    "BasinBox",
    "basin_fraction",
    "min_field_norm_on_level",
]

TWO_PI = 2.0 * math.pi
COLLISION_RADIUS = 1e-6  # collision detection threshold in rescaled coordinates
_ON_C_TOL = 1e-9

EQUILIBRIUM_ANGLES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
_ANGLE_NAMES = ("0", "pi/2", "pi", "3pi/2")


def delta(theta, mu):
    """Anisotropy profile Delta(theta) = mu cos^2 + sin^2, in [1, mu] for mu >= 1."""
    c = np.cos(theta)
    s = np.sin(theta)
    return mu * c * c + s * s


@dataclass(frozen=True)
class McGeheeState:
    r: float
    v: float
    theta: float
    u: float

    def __post_init__(self):
        if self.r < 0.0:
            raise ValueError("radial coordinate must satisfy r >= 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.r, self.v, self.theta, self.u])

    @staticmethod
    def from_array(y: np.ndarray) -> "McGeheeState":
        return McGeheeState(*map(float, y))


def to_mcgehee(s: CartesianState, p: Params) -> McGeheeState:
    """Regularizing transform; inverts under from_mcgehee and lands on the
    energy relation for h = hamiltonian(s)."""
    r = math.hypot(s.x, s.y)
    if r < 1e-12:
        raise DomainError("collision point has no Cartesian preimage data")
    theta = math.atan2(s.y, s.x) % TWO_PI
    scale = r ** ((p.beta - 2.0) / 2.0)
    v = scale * (s.x * s.px + s.y * s.py)
    u = scale * (s.x * s.py - s.y * s.px)
    return McGeheeState(r, v, theta, u)


def from_mcgehee(m: McGeheeState, p: Params) -> CartesianState:
    if m.r <= 0.0:
        raise DomainError("r = 0 is the collision boundary; not invertible")
    x = m.r * math.cos(m.theta)
    y = m.r * math.sin(m.theta)
    scale = m.r ** (-(p.beta - 2.0) / 2.0)
    vt = scale * m.v  # x*px + y*py
    ut = scale * m.u  # x*py - y*px
    r2 = m.r * m.r
    return CartesianState(x, y, (x * vt - y * ut) / r2, (y * vt + x * ut) / r2)


def _field_arrays(r, v, theta, u, p: Params):
    """The one definition of the field; scalars or equal-shape arrays alike."""
    D = delta(theta, p.mu)
    dr = r * v
    dv = (0.5 * (p.beta - 2.0) * v * v + r ** (p.beta - 1.0) + 2.0 * p.h * r ** p.beta
          - p.b * (p.beta - 2.0) / D ** (p.beta / 2.0))
    dth = u
    du = (0.5 * (p.beta - 2.0) * u * v
          + p.b * p.beta * (p.mu - 1.0) * np.sin(2.0 * theta) / (2.0 * D ** ((p.beta + 2.0) / 2.0)))
    return dr, dv, dth, du


def mcgehee_field(m: McGeheeState, p: Params) -> np.ndarray:
    """Regularized field (r', v', theta', u'); smooth up to and including r = 0."""
    p.require_beta_above(2.0, strict=False)
    return np.array(_field_arrays(m.r, m.v, m.theta, m.u, p))


def mcgehee_rhs(p: Params):
    p.require_beta_above(2.0, strict=False)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return np.array(_field_arrays(y[0], y[1], y[2], y[3], p))

    return rhs


def mcgehee_rhs_with_time(p: Params):
    """Five-dimensional extension tracking physical time: dt/dtau = r^(beta/2+1)."""
    p.require_beta_above(2.0, strict=False)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        dr, dv, dth, du = _field_arrays(y[0], y[1], y[2], y[3], p)
        return np.array([dr, dv, dth, du, y[0] ** (p.beta / 2.0 + 1.0)])

    return rhs


def energy_residual(m: McGeheeState, p: Params) -> float:
    """u^2 + v^2 - 2 r^(beta-1) - 2b/Delta^(beta/2) - 2 h r^beta; a first integral,
    zero on the energy level."""
    D = delta(m.theta, p.mu)
    return (m.u * m.u + m.v * m.v - 2.0 * m.r ** (p.beta - 1.0)
            - 2.0 * p.b / D ** (p.beta / 2.0) - 2.0 * p.h * m.r ** p.beta)


def collision_flow(m: McGeheeState, p: Params) -> np.ndarray:
    """Three-dimensional field (v', theta', u') on the collision manifold.

    v' = (beta-2)/2 * (-u^2) <= 0 always, so the flow is gradient-like in -v.
    """
    p.require_beta_above(2.0)
    if m.r != 0.0:
        raise ValueError("collision flow is defined on r = 0 only")
    resid = energy_residual(m, p)
    if abs(resid) > _ON_C_TOL:
        raise ValueError(f"state is off the collision manifold (residual {resid:.3e})")
    return collision_rhs(p)(0.0, np.array([m.v, m.theta, m.u]))


def collision_rhs(p: Params):
    """(v, theta, u) field on C for the integrator, without per-call membership checks."""
    p.require_beta_above(2.0)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        v, theta, u = y
        D = delta(theta, p.mu)
        dv = 0.5 * (p.beta - 2.0) * (-u * u)
        du = (0.5 * (p.beta - 2.0) * u * v
              + p.b * p.beta * (p.mu - 1.0) * math.sin(2.0 * theta)
              / (2.0 * D ** ((p.beta + 2.0) / 2.0)))
        return np.array([dv, u, du])

    return rhs


# --- Equilibria on C and their linearization ---

class Stability(Enum):
    SADDLE = "saddle"
    SOURCE = "source"
    SINK = "sink"
    SPIRAL_SOURCE = "spiral-source"
    SPIRAL_SINK = "spiral-sink"


@dataclass(frozen=True)
class EquilibriumReport:
    label: str
    location: McGeheeState
    eigenvalues: tuple[complex, complex, complex]
    stability: Stability | None
    spiraling: bool


def equilibrium_location(theta: float, sign: int, p: Params) -> McGeheeState:
    D = delta(theta, p.mu)
    v = sign * math.sqrt(2.0 * p.b / D ** (p.beta / 2.0))
    return McGeheeState(0.0, v, theta % TWO_PI, 0.0)


def equilibrium_eigenvalues(theta: float, sign: int, p: Params) -> tuple[complex, complex, complex]:
    """Closed-form eigenvalues of the linearization restricted to the energy level.

    The radial direction decouples with eigenvalue v*; the (theta, u) block
    [[0, 1], [c, e]] with e = (beta-2) v*/2 and c = b beta (mu-1) cos(2 theta*)
    / Delta*^((beta+2)/2) contributes e/2 +- sqrt(e^2/4 + c).
    """
    D = delta(theta, p.mu)
    vstar = sign * math.sqrt(2.0 * p.b / D ** (p.beta / 2.0))
    e = 0.5 * (p.beta - 2.0) * vstar
    c = p.b * p.beta * (p.mu - 1.0) * math.cos(2.0 * theta) / D ** ((p.beta + 2.0) / 2.0)
    disc = complex(e * e / 4.0 + c)
    root = np.sqrt(disc)
    return (complex(vstar), complex(e / 2.0) + root, complex(e / 2.0) - root)


def linearize_at(eq: EquilibriumReport | McGeheeState, p: Params) -> np.ndarray:
    """Linearization on the energy level in the (r, theta, u) basis.

    Matches the finite-difference Jacobian of the reduced field at the
    equilibrium (the v-direction is transverse to the level set and drops out).
    """
    m = eq.location if isinstance(eq, EquilibriumReport) else eq
    D = delta(m.theta, p.mu)
    e = 0.5 * (p.beta - 2.0) * m.v
    c = p.b * p.beta * (p.mu - 1.0) * math.cos(2.0 * m.theta) / D ** ((p.beta + 2.0) / 2.0)
    return np.array([[m.v, 0.0, 0.0],
                     [0.0, 0.0, 1.0],
                     [0.0, c, e]])


def _v_squared(r, theta, u, p: Params):
    """v^2 = 2 r^(beta-1) + 2b/Delta^(beta/2) + 2 h r^beta - u^2 on the energy level."""
    return (2.0 * r ** (p.beta - 1.0) + 2.0 * p.b / delta(theta, p.mu) ** (p.beta / 2.0)
            + 2.0 * p.h * r ** p.beta - u * u)


def reduced_field(z: np.ndarray, p: Params, v_sign: int) -> np.ndarray:
    """(r', theta', u') with v = v_sign * sqrt(v^2) eliminated through the
    energy relation; the chart is valid where v^2 > 0."""
    r, theta, u = z
    s2 = _v_squared(r, theta, u, p)
    if s2 <= 0.0:
        raise DomainError("state is outside the reachable region of the energy level")
    v = v_sign * math.sqrt(s2)
    dr, _, dth, du = _field_arrays(r, v, theta, u, p)
    return np.array([dr, dth, du])


def _classify_from_eigenvalues(eigs, tol: float = 1e-12) -> tuple[Stability, bool]:
    re = [lam.real for lam in eigs]
    # for mu > 1 no exact eigenvalue has a zero real part: a zero or non-finite
    # one means the closed form under- or overflowed
    if not all(cmath.isfinite(lam) and lam.real != 0.0 for lam in eigs):
        raise ArithmeticError(f"eigenvalues {[complex(lam) for lam in eigs]} are not finite "
                              "or have a zero real part; the closed form under- or overflowed")
    spiral = any(abs(lam.imag) > tol for lam in eigs)
    if all(x > 0 for x in re):
        return (Stability.SPIRAL_SOURCE if spiral else Stability.SOURCE), spiral
    if all(x < 0 for x in re):
        return (Stability.SPIRAL_SINK if spiral else Stability.SINK), spiral
    return Stability.SADDLE, spiral


def equilibria(p: Params) -> list[EquilibriumReport]:
    """The eight collision-manifold equilibria A^+-_(0, pi/2, pi, 3pi/2).

    Each has r = 0, u = 0, v = +-sqrt(2b/Delta^(beta/2)).  For mu = 1 the
    pi/2-family is degenerate (a zero eigenvalue) and stability is left None.
    """
    p.require_beta_above(2.0)
    reports = []
    for name, theta in zip(_ANGLE_NAMES, EQUILIBRIUM_ANGLES):
        for sign, tag in ((1, "+"), (-1, "-")):
            loc = equilibrium_location(theta, sign, p)
            eigs = equilibrium_eigenvalues(theta, sign, p)
            if p.mu > 1.0:
                stab, spiral = _classify_from_eigenvalues(eigs)
            else:
                stab, spiral = None, False
            reports.append(EquilibriumReport(f"A{tag}_{name}", loc, eigs, stab, spiral))
    return reports


def classify(p: Params) -> list[EquilibriumReport]:
    """Stability classification of the eight equilibria (requires mu > 1).

    A_(0,pi) are saddles; A^+_(pi/2,3pi/2) sources and A^-_(pi/2,3pi/2) sinks,
    spiraling exactly when mu > (beta+2)^2/(8 beta).
    """
    p.require_beta_above(2.0)
    if p.mu <= 1.0:
        raise ValueError("classification requires mu > 1 (mu = 1 is degenerate)")
    return equilibria(p)


def spiral_threshold(beta: float) -> float:
    """Anisotropy above which the pi/2-family eigenvalues turn complex; independent of b."""
    return (beta + 2.0) ** 2 / (8.0 * beta)


# --- Collision basin sampling ---

@dataclass(frozen=True)
class BasinBox:
    """Sampling box on the energy level: (r, theta, u) ranges, v from the energy
    relation with the given sign branch."""

    r: tuple[float, float]
    theta: tuple[float, float]
    u: tuple[float, float]
    v_sign: int = -1

    @staticmethod
    def near_sink(p: Params, width: float = 0.3) -> "BasinBox":
        """Box around the sink A^-_(pi/2), inside its basin for moderate h < 0."""
        return BasinBox(r=(0.05, 0.05 + width), theta=(math.pi / 2 - width, math.pi / 2 + width),
                        u=(-width / 2, width / 2), v_sign=-1)


def basin_fraction(p: Params, n: int, horizon: float, box: BasinBox | None = None,
                   seed: int = 0, threshold: float = COLLISION_RADIUS,
                   dt: float = 0.02) -> float:
    """Monte-Carlo estimate of the collision fraction from a box on the energy level.

    Samples (r, theta, u) uniformly, closes v through the energy relation on the
    requested branch, and integrates the regularized flow (all samples marched
    together with a classical fixed-step fourth-order scheme; the field is
    analytic at r = 0, so no stiffness appears near collision).  Deterministic
    for a fixed seed.
    """
    p.require_beta_above(2.0)
    if n < 1:
        raise ValueError("sample count must satisfy n >= 1")
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    box = box or BasinBox.near_sink(p)
    rng = np.random.default_rng(seed)
    r = rng.uniform(*box.r, n)
    theta = rng.uniform(*box.theta, n)
    u = rng.uniform(*box.u, n)
    s2 = _v_squared(r, theta, u, p)
    valid = s2 > 0.0
    if not np.any(valid):
        raise ValueError("sampling box does not intersect the energy level")
    v = box.v_sign * np.sqrt(np.where(valid, s2, np.nan))

    y = np.stack([r, v, theta, u])[:, valid]
    collided = np.zeros(y.shape[1], dtype=bool)
    n_steps = int(math.ceil(horizon / dt))
    # escaping samples overflow; they are counted once after the loop instead
    # of warning at every step
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            active = ~collided
            if not np.any(active):
                break
            ya = y[:, active]
            k1 = np.stack(_field_arrays(*ya, p))
            k2 = np.stack(_field_arrays(*(ya + 0.5 * dt * k1), p))
            k3 = np.stack(_field_arrays(*(ya + 0.5 * dt * k2), p))
            k4 = np.stack(_field_arrays(*(ya + dt * k3), p))
            ya = ya + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            y[:, active] = ya
            collided[active] = ya[0] < threshold
    nonfinite = np.count_nonzero(~np.isfinite(y).all(axis=0))
    if nonfinite:
        raise ArithmeticError(f"{nonfinite} of {y.shape[1]} on-level samples overflowed before "
                              f"the horizon (escape orbits); the fraction is undecided")

    # samples off the level never started; they count as non-collisions of the box
    return float(np.count_nonzero(collided)) / float(n)


def min_field_norm_on_level(p: Params, n_r: int = 25, n_theta: int = 20, n_phi: int = 20,
                            r_range: tuple[float, float] = (1e-3, 5.0)) -> float:
    """Minimum field norm over a grid of on-level states with r > 0.

    Supports the no-equilibria-off-C check: on the energy level, a zero of the
    field with r > 0 would need u = v = 0 together with v' = 0, which the
    energy relation forbids.  Also serves as the numerical probe at beta = 4,
    where the two scalar conditions coincide.
    """
    p.require_beta_above(2.0)
    rs = np.geomspace(r_range[0], r_range[1], n_r)
    thetas = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    phis = np.linspace(0.0, TWO_PI, n_phi, endpoint=False)
    R, TH, PH = np.meshgrid(rs, thetas, phis, indexing="ij")
    s2 = _v_squared(R, TH, 0.0, p)
    ok = s2 > 0.0
    mag = np.sqrt(np.where(ok, s2, np.nan))
    U = mag * np.sin(PH)
    V = mag * np.cos(PH)
    f = np.stack(_field_arrays(R, V, TH, U, p))
    norms = np.sqrt(np.sum(f * f, axis=0))
    return float(np.nanmin(norms[ok])) if np.any(ok) else math.inf
