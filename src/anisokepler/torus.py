"""Flow on the collision torus in angle variables and saddle-connection splitting.

On the collision manifold, u = sqrt(2b)/Delta^(beta/4) sin(psi) and
v = sqrt(2b)/Delta^(beta/4) cos(psi) turn the flow into a two-dimensional
system on the (theta, psi) torus.  At mu = 1 the slope dpsi/dtheta is the
constant (beta-2)/2 and heteroclinic connections between saddles close up for
the exponent families beta = 2 + 2/(1+2k) and beta = 2 + 1/(1+k); for small
anisotropy epsilon = mu - 1 > 0 the connections split, and the splitting is
measured here for beta = 3 and beta = 4, from the line psi = (beta-2)(theta+pi)/2
of the connection out of (-pi, 0): the section is where it crosses psi = pi/2,
the reversal reflects about the section, and `is_split_beta` gates beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Params, _jacobian, _on_floats
from .integrate import Event, IntegrationError, IntegratorConfig, integrate
from .mcgehee import delta
from .melnikov import _tanh_sinh

__all__ = [
    "TorusState",
    "SplittingVerdict",
    "torus_rhs",
    "is_split_beta",
    "zeta0",
    "zeta1",
    "zeta1_quadrature",
    "comparison_section",
    "reversal_map",
    "trace_manifold",
    "splitting_gap",
    "splitting_verdict",
    "connection_beta",
]

ARC_LENGTH_CAP = 100.0
SEED_OFFSET = 1e-6
SINK_RADIUS = 1e-3  # a branch this close to an attracting equilibrium has stalled


class TraceError(IntegrationError):
    """Branch failed to reach the comparison section: it exceeded the arc-length
    cap or fell into an attracting equilibrium."""


@dataclass(frozen=True)
class TorusState:
    theta: float
    psi: float

    def as_array(self) -> np.ndarray:
        return np.array([self.theta, self.psi])


class SplittingVerdict(Enum):
    BROKEN = "broken"
    CONNECTED = "connected-within-tolerance"


def _torus_arrays(xp, theta, psi, p: Params):
    """The one definition of the torus field, sines and cosines from xp."""
    beta, mu, b = p.beta, p.mu, p.b
    D = delta(theta, mu, xp)
    g = math.sqrt(2.0 * b) / D ** (beta / 4.0)
    sp = xp.sin(psi)
    dth = g * sp
    dps = (0.5 * (beta - 2.0) * g * sp
           + 0.25 * beta * (mu - 1.0) * math.sqrt(2.0 * b)
           * xp.sin(2.0 * theta) * xp.cos(psi) / D ** ((beta + 4.0) / 4.0))
    return dth, dps


def _branch_arrays(xp, theta, psi, arc, p: Params):
    """The torus field extended by the arc length of the path."""
    dth, dps = _torus_arrays(xp, theta, psi, p)
    return dth, dps, math.hypot(dth, dps)


def torus_rhs(p: Params):
    p.require_beta_above(2.0)

    def rhs(tau: float, y: np.ndarray) -> np.ndarray:
        return _on_floats(_torus_arrays, y, p)

    return rhs


def is_split_beta(beta: float) -> bool:
    """Whether the splitting is measured at this exponent: beta in {3, 4}."""
    return beta in (3, 4)


def _require_split_beta(beta: float) -> None:
    if not is_split_beta(beta):
        raise ValueError(f"connection geometry covers beta in {{3, 4}} only, got {float(beta)!r}")


def zeta0(beta: int, theta: float) -> float:
    """psi-coordinate of the unperturbed connection branch out of (-pi, 0)."""
    _require_split_beta(beta)
    return 0.5 * (beta - 2) * (theta + math.pi)


def zeta1(beta: int, theta: float) -> float:
    """First-order displacement of the connection branch in epsilon (closed form)."""
    _require_split_beta(beta)
    if beta == 3:
        ch, sh = math.cos(theta / 2), math.sin(theta / 2)
        return -4.5 * ch * sh + 0.75 * theta + 3.0 * ch ** 3 * sh + 0.75 * math.pi
    return math.cos(theta) * math.sin(theta) + theta + math.pi


def zeta1_quadrature(beta: int, theta: float) -> float:
    """Defining integral (beta/2) int_{-pi}^theta cos sin cos(zeta0)/sin(zeta0);
    cross-checks the closed form."""
    _require_split_beta(beta)
    slope0 = (beta - 2) / 2  # d zeta0 / d theta

    def integrand(eta: np.ndarray) -> np.ndarray:
        # sin and cos of zeta0 = eta/2 + pi/2 (beta = 3) or eta + pi (beta = 4)
        # by exact quarter-turn identities, so sin(zeta0) keeps full relative
        # precision next to its zeros, which are zeros of sin(eta) as well
        if beta == 3:
            s, c = np.cos(0.5 * eta), -np.sin(0.5 * eta)
        else:
            s, c = -np.sin(eta), -np.cos(eta)
        zero = s == 0.0
        # where both vanish the ratio sin(eta)/sin(zeta0) has the finite limit
        # cos(eta)/(slope0 cos(zeta0))
        return np.where(zero, 0.5 * beta * np.cos(eta) ** 2 / slope0,
                        0.5 * beta * np.cos(eta) * np.sin(eta) * c / np.where(zero, 1.0, s))

    return _tanh_sinh(integrand, -math.pi, theta)


def comparison_section(beta: int) -> float:
    """theta at which the connection line zeta0 crosses psi = pi/2."""
    _require_split_beta(beta)
    return math.pi / (beta - 2) - math.pi


def reversal_map(beta: int, t: TorusState) -> TorusState:
    """Time reversal carrying unstable onto stable branches: reflection about the section."""
    section = comparison_section(beta)
    return TorusState(2.0 * section - t.theta, math.pi - t.psi)


def _is_torus_saddle(t: TorusState) -> bool:
    return (abs(math.sin(t.psi)) < 1e-12 and abs(math.sin(2.0 * t.theta)) < 1e-12
            and math.cos(2.0 * t.theta) > 0.0)


def trace_manifold(origin: TorusState, direction: str, p: Params,
                   cfg: IntegratorConfig | None = None) -> np.ndarray:
    """Continue a manifold branch from a torus saddle to the comparison section,
    returned as its (n, 2) samples of (theta, psi); the last row is on the section.

    Seeds SEED_OFFSET along the stable/unstable eigenvector, toward the section,
    and integrates until theta reaches it.  Raises TraceError when the arc length
    exceeds ARC_LENGTH_CAP first, or when the branch comes within SINK_RADIUS of
    an equilibrium that attracts in the direction of tracing.  At mu = 1 the
    branch leaves along the limit eigendirection, of slope (beta-2)/2.
    """
    section = comparison_section(p.beta)
    if direction not in ("stable", "unstable"):
        raise ValueError("direction must be 'stable' or 'unstable'")
    if not _is_torus_saddle(origin):
        raise ValueError("origin is not a saddle of the torus flow")

    jac = _jacobian(_torus_arrays, origin.as_array(), p)
    eigvals, eigvecs = np.linalg.eig(jac)
    want = np.argmax(eigvals.real) if direction == "unstable" else np.argmin(eigvals.real)
    vec = np.real(eigvecs[:, want])
    vec = vec / np.linalg.norm(vec)
    # seed the branch that heads toward the comparison section
    toward = 1.0 if section >= origin.theta else -1.0
    if vec[0] * toward < 0.0:
        vec = -vec

    y0 = origin.as_array() + SEED_OFFSET * vec
    sign = 1.0 if direction == "unstable" else -1.0

    def rhs(tau: float, y: np.ndarray) -> np.ndarray:
        return _on_floats(_branch_arrays, y, p)

    hit = Event(lambda t, y: y[0] - section, "section", terminal=True)
    capped = Event(lambda t, y: y[2] - ARC_LENGTH_CAP, "arc-cap", terminal=True)
    events = [hit, capped]
    if p.mu > 1.0:
        # For mu > 1 the equilibria at theta = pi/2 (mod pi) attract: there the
        # field's Jacobian has a positive determinant and a trace with the sign
        # of cos(psi), so they are sinks at psi = pi and sources (attracting in
        # backward time) at psi = 0.  The arc-length cap cannot fire once the
        # branch settles into one, so the trace stops within SINK_RADIUS of it.
        psi_attractor = math.pi if sign > 0 else 0.0

        def sink_gap(t: float, y: np.ndarray) -> float:
            return math.hypot(math.remainder(y[0] - 0.5 * math.pi, math.pi),
                              math.remainder(y[1] - psi_attractor, 2 * math.pi)) - SINK_RADIUS

        events.append(Event(sink_gap, "sink", terminal=True))
    tau_max = sign * 1e5
    traj = integrate(rhs, np.append(y0, 0.0), (0.0, tau_max), cfg, events=events)
    if not traj.event_times("section"):
        if traj.event_times("sink"):
            raise TraceError(f"branch from {origin} fell into an attracting equilibrium at "
                             f"theta = {traj.states[-1, 0]:.6g}, psi = {traj.states[-1, 1]:.6g} "
                             f"before reaching theta = {section}")
        raise TraceError(f"branch from {origin} did not reach theta = {section} "
                         f"within arc length {ARC_LENGTH_CAP}")
    return traj.states[:, :2].copy()


def splitting_gap(beta: int, p: Params, cfg: IntegratorConfig | None = None
                  ) -> tuple[float, float, float]:
    """(gap, psi_unstable, psi_stable) at the comparison section.

    The unstable branch out of (-pi, 0) is traced directly; the matching stable
    branch is its image under `reversal_map`, which fixes the section.
    """
    if p.beta != beta:
        raise ValueError("beta argument must match p.beta")
    samples = trace_manifold(TorusState(-math.pi, 0.0), "unstable", p, cfg=cfg)
    end = TorusState(*samples[-1].tolist())
    psi_s = reversal_map(beta, end).psi
    return abs(end.psi - psi_s), end.psi, psi_s


def splitting_verdict(gap: float, cfg: IntegratorConfig | None = None) -> SplittingVerdict:
    """Broken iff the branch gap at the section exceeds 10x the integrator tolerance."""
    cfg = cfg or IntegratorConfig()
    tol = 10.0 * max(cfg.rel_tol, cfg.abs_tol)
    return SplittingVerdict.BROKEN if gap > tol else SplittingVerdict.CONNECTED


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
