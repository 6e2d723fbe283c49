"""Flow on the collision torus in angle variables and saddle-connection splitting.

On the collision manifold, u = sqrt(2b)/Delta^(beta/4) sin(psi) and
v = sqrt(2b)/Delta^(beta/4) cos(psi) turn the flow into a two-dimensional
system on the (theta, psi) torus.  At mu = 1 the slope dpsi/dtheta is the
constant (beta-2)/2 and heteroclinic connections between saddles close up for
the exponent families beta = 2 + 2/(1+2k) and beta = 2 + 1/(1+k); for small
anisotropy epsilon = mu - 1 > 0 the connections split, and the splitting is
measured here for beta = 3 and beta = 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Params
from .integrate import Event, IntegratorConfig, integrate
from .mcgehee import McGeheeState, delta

__all__ = [
    "TorusState",
    "ManifoldBranch",
    "SplittingVerdict",
    "torus_field",
    "torus_rhs",
    "torus_to_collision",
    "torus_jacobian",
    "slope_field_F",
    "slope_eps_rate",
    "zeta0",
    "zeta1",
    "zeta1_quadrature",
    "comparison_section",
    "reversal_map",
    "trace_manifold",
    "splitting_gap",
    "splitting_verdict",
    "splitting_sign",
    "connection_beta",
]

SECTIONS = {3: 0.0, 4: -math.pi / 2}
ARC_LENGTH_CAP = 100.0
SEED_OFFSET = 1e-6


class TraceError(RuntimeError):
    """Branch failed to reach the comparison section within the arc-length cap."""


@dataclass(frozen=True)
class TorusState:
    theta: float
    psi: float

    def as_array(self) -> np.ndarray:
        return np.array([self.theta, self.psi])


class SplittingVerdict(Enum):
    BROKEN = "broken"
    CONNECTED = "connected-within-tolerance"


@dataclass(frozen=True)
class ManifoldBranch:
    """Numerically continued branch of an invariant manifold of a torus saddle."""

    origin: TorusState
    direction: str  # "stable" | "unstable"
    samples: np.ndarray  # (n, 2) rows of (theta, psi)

    @property
    def states(self) -> list[TorusState]:
        return [TorusState(th, ps) for th, ps in self.samples]

    @property
    def section_psi(self) -> float:
        return float(self.samples[-1, 1])


def torus_to_collision(t: TorusState, p: Params) -> McGeheeState:
    """Angle chart back to (r=0, v, theta, u); lands on the collision manifold."""
    D = delta(t.theta, p.mu)
    g = math.sqrt(2.0 * p.b) / D ** (p.beta / 4.0)
    return McGeheeState(0.0, g * math.cos(t.psi), t.theta % (2 * math.pi), g * math.sin(t.psi))


def torus_field(t: TorusState, p: Params) -> np.ndarray:
    return torus_rhs(p)(0.0, t.as_array())


def torus_rhs(p: Params):
    p.require_beta_above(2.0)
    beta, mu, b = p.beta, p.mu, p.b

    def rhs(tau: float, y: np.ndarray) -> np.ndarray:
        theta, psi = y
        D = delta(theta, mu)
        g = math.sqrt(2.0 * b) / D ** (beta / 4.0)
        sp = math.sin(psi)
        dth = g * sp
        dps = (0.5 * (beta - 2.0) * g * sp
               + 0.25 * beta * (mu - 1.0) * math.sqrt(2.0 * b)
               * math.sin(2.0 * theta) * math.cos(psi) / D ** ((beta + 4.0) / 4.0))
        return np.array([dth, dps])

    return rhs


def torus_jacobian(t: TorusState, p: Params) -> np.ndarray:
    """Analytic Jacobian of the torus field at an equilibrium (sin psi = sin 2theta = 0)."""
    D = delta(t.theta, p.mu)
    g = math.sqrt(2.0 * p.b) / D ** (p.beta / 4.0)
    c = math.cos(t.psi)
    k2 = (0.5 * p.beta * (p.mu - 1.0) * math.sqrt(2.0 * p.b)
          * math.cos(2.0 * t.theta) * c / D ** ((p.beta + 4.0) / 4.0))
    return np.array([[0.0, g * c], [k2, 0.5 * (p.beta - 2.0) * g * c]])


def slope_field_F(theta: float, psi: float, p: Params) -> float:
    """dpsi/dtheta off the lines sin(psi) = 0; equals (beta-2)/2 at mu = 1."""
    p.require_beta_above(2.0)
    sp = math.sin(psi)
    if sp == 0.0:
        raise ZeroDivisionError("slope field is singular where sin(psi) = 0")
    D = delta(theta, p.mu)
    return (0.5 * (p.beta - 2.0)
            + 0.25 * p.beta * (p.mu - 1.0) * math.sin(2.0 * theta) * math.cos(psi) / (sp * D))


def slope_eps_rate(theta: float, psi: float, beta: float) -> float:
    """d(slope)/d(epsilon) at epsilon = 0: (beta/2) cos(theta) sin(theta) cot(psi)."""
    return 0.5 * beta * math.cos(theta) * math.sin(theta) * math.cos(psi) / math.sin(psi)


def zeta0(beta: int, theta: float) -> float:
    """psi-coordinate of the unperturbed connection branch out of (-pi, 0)."""
    if beta == 3:
        return 0.5 * theta + math.pi / 2
    if beta == 4:
        return theta + math.pi
    raise ValueError("closed forms are implemented for beta in {3, 4} only")


def zeta1(beta: int, theta: float) -> float:
    """First-order displacement of the connection branch in epsilon (closed form)."""
    if beta == 3:
        ch, sh = math.cos(theta / 2), math.sin(theta / 2)
        return -4.5 * ch * sh + 0.75 * theta + 3.0 * ch ** 3 * sh + 0.75 * math.pi
    if beta == 4:
        return math.cos(theta) * math.sin(theta) + theta + math.pi
    raise ValueError("closed forms are implemented for beta in {3, 4} only")


def zeta1_quadrature(beta: int, theta: float) -> float:
    """Defining integral (beta/2) int_{-pi}^theta cos sin cos(zeta0)/sin(zeta0);
    cross-checks the closed form."""
    if beta not in (3, 4):
        raise ValueError("closed forms are implemented for beta in {3, 4} only")
    if theta == -math.pi:
        return 0.0
    from scipy.integrate import quad  # scipy loads on first use, not at package import

    slope0 = 0.5 if beta == 3 else 1.0  # d zeta0 / d theta

    def integrand(eta: float) -> float:
        z0 = zeta0(beta, eta)
        s = math.sin(z0)
        if s == 0.0:
            # both sin(eta) and sin(zeta0) vanish at the saddle endpoints;
            # the ratio has the finite limit cos(eta)/(slope0 cos(zeta0))
            return 0.5 * beta * math.cos(eta) ** 2 / slope0
        return 0.5 * beta * math.cos(eta) * math.sin(eta) * math.cos(z0) / s

    val, _ = quad(integrand, -math.pi, theta, limit=200, epsabs=1e-12, epsrel=1e-12)
    return val


def comparison_section(beta: int) -> float:
    return SECTIONS[beta]


def reversal_map(beta: int, t: TorusState) -> TorusState:
    """Time-reversing symmetry carrying unstable branches onto stable ones."""
    if beta == 3:
        return TorusState(-t.theta, math.pi - t.psi)
    if beta == 4:
        return TorusState(-t.theta - math.pi, math.pi - t.psi)
    raise ValueError("reversal maps are implemented for beta in {3, 4} only")


def _is_torus_saddle(t: TorusState) -> bool:
    return (abs(math.sin(t.psi)) < 1e-12 and abs(math.sin(2.0 * t.theta)) < 1e-12
            and math.cos(2.0 * t.theta) > 0.0)


def trace_manifold(origin: TorusState, direction: str, p: Params,
                   cfg: IntegratorConfig | None = None,
                   offset: float = SEED_OFFSET,
                   arc_cap: float = ARC_LENGTH_CAP) -> ManifoldBranch:
    """Continue a manifold branch from a torus saddle to the comparison section.

    Seeds ``offset`` along the stable/unstable eigenvector (toward increasing
    theta) and integrates until theta reaches the section for this beta, or the
    arc length exceeds ``arc_cap``.  mu = 1 is admitted: the branch then leaves
    along the limit eigendirection of slope (beta-2)/2.
    """
    beta = int(round(p.beta))
    if beta not in (3, 4) or p.beta != beta:
        raise ValueError("branch tracing is implemented for beta in {3, 4} only")
    if direction not in ("stable", "unstable"):
        raise ValueError("direction must be 'stable' or 'unstable'")
    if not _is_torus_saddle(origin):
        raise ValueError("origin is not a saddle of the torus flow")
    cfg = cfg or IntegratorConfig()

    section = comparison_section(beta)
    jac = torus_jacobian(origin, p)
    eigvals, eigvecs = np.linalg.eig(jac)
    want = np.argmax(eigvals.real) if direction == "unstable" else np.argmin(eigvals.real)
    vec = np.real(eigvecs[:, want])
    vec = vec / np.linalg.norm(vec)
    # seed the branch that heads toward the comparison section
    toward = 1.0 if section >= origin.theta else -1.0
    if vec[0] * toward < 0.0:
        vec = -vec

    y0 = origin.as_array() + offset * vec
    sign = 1.0 if direction == "unstable" else -1.0
    rhs2 = torus_rhs(p)

    def rhs(tau: float, y: np.ndarray) -> np.ndarray:
        f = rhs2(tau, y[:2])
        return np.array([f[0], f[1], math.hypot(f[0], f[1])])

    hit = Event(lambda t, y: y[0] - section, "section", terminal=True)
    capped = Event(lambda t, y: y[2] - arc_cap, "arc-cap", terminal=True)
    tau_max = sign * 1e5
    traj = integrate(rhs, np.append(y0, 0.0), (0.0, tau_max), cfg, events=[hit, capped])
    if not traj.event_times("section"):
        raise TraceError(f"branch from {origin} did not reach theta = {section} "
                         f"within arc length {arc_cap}")
    return ManifoldBranch(origin, direction, traj.states[:, :2].copy())


def splitting_gap(beta: int, p: Params, cfg: IntegratorConfig | None = None
                  ) -> tuple[float, float, float]:
    """(gap, psi_unstable, psi_stable) at the comparison section.

    The unstable branch out of (-pi, 0) is traced directly; the matching stable
    branch is its image under the reversal symmetry, which fixes the section, so
    psi_stable = pi - psi_unstable there.
    """
    if p.beta != beta:
        raise ValueError("beta argument must match p.beta")
    branch = trace_manifold(TorusState(-math.pi, 0.0), "unstable", p, cfg=cfg)
    psi_u = branch.section_psi
    psi_s = math.pi - psi_u
    return abs(psi_u - psi_s), psi_u, psi_s


def splitting_verdict(gap: float, cfg: IntegratorConfig | None = None) -> SplittingVerdict:
    """Broken iff the branch gap at the section exceeds 10x the integrator tolerance."""
    cfg = cfg or IntegratorConfig()
    tol = 10.0 * max(cfg.rel_tol, cfg.abs_tol)
    return SplittingVerdict.BROKEN if gap > tol else SplittingVerdict.CONNECTED


def splitting_sign(beta: int, p: Params, cfg: IntegratorConfig | None = None) -> SplittingVerdict:
    """Verdict on the gap that `splitting_gap` traces for these parameters."""
    return splitting_verdict(splitting_gap(beta, p, cfg)[0], cfg)


def connection_beta(family: str, k: int) -> float:
    """Exponents with unperturbed saddle connections: family 'a' gives
    beta = 2 + 2/(1+2k) (odd theta-span in pi), family 'b' gives
    beta = 2 + 1/(1+k) (even span)."""
    if k == -1:
        raise ValueError("k = -1 is excluded")
    if family == "a":
        return 2.0 + 2.0 / (1.0 + 2.0 * k)
    if family == "b":
        return 2.0 + 1.0 / (1.0 + k)
    raise ValueError("family must be 'a' or 'b'")
