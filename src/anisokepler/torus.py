"""Flow on the collision torus in angle variables and saddle-connection splitting.

On the collision manifold, u = sqrt(2b)/Delta^(beta/4) sin(psi) and
v = sqrt(2b)/Delta^(beta/4) cos(psi) turn the flow into a two-dimensional
system on the (theta, psi) torus.  At mu = 1 the slope dpsi/dtheta is the
constant (beta-2)/2, so the branch out of the saddle (-pi, 0) is the line
psi = (theta+pi)/j, j = 2/(beta-2), which reaches the saddle (-pi + j pi, pi)
exactly when j is a positive integer: the connection family beta = 2 + 2/j,
gated by `connection_index`.  For small anisotropy epsilon = mu - 1 > 0 the
connection splits, and the splitting is measured where the line crosses
psi = pi/2, at theta = -pi + j pi/2.  `trace_manifold` integrates the branch
out of (-pi, 0) only: the reversal, a reflection about the section, carries it
onto its stable partner into (-pi + j pi, pi).
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
    "connection_index",
    "zeta0",
    "zeta1",
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


def connection_index(beta: float) -> int:
    """j of a connection exponent beta = 2 + 2/j, j = 1, 2, ...: the connection
    out of (-pi, 0) spans j pi in theta.  Raises ValueError for any other beta.
    2/(beta-2) counts as j within 1e-9 of it, relative: the float 2 + 2/3 gives
    3.000000000000001."""
    span = 2.0 / (beta - 2.0) if beta > 2.0 else 0.0
    j = round(span)
    if j < 1 or abs(span - j) > 1e-9 * j:
        raise ValueError("saddle connections exist at beta = 2 + 2/j for a positive "
                         f"integer j only, got {float(beta)!r}")
    return j


def zeta0(beta: float, theta: float) -> float:
    """psi-coordinate of the unperturbed connection branch out of (-pi, 0)."""
    return (theta + math.pi) / connection_index(beta)


def zeta1(beta: float, theta: float) -> float:
    """First-order displacement of the connection branch in epsilon:
    (beta/2) int_0^(theta+pi) sin x cos x / tan(x/j) dx, the epsilon-derivative
    of the slope integrated along psi = zeta0.  At the section it is (j+1) pi/4."""
    j = connection_index(beta)

    def integrand(x: np.ndarray) -> np.ndarray:
        t = np.tan(x / j)
        zero = t == 0.0  # x = 0, where the integrand tends to j
        return np.where(zero, j, np.sin(x) * np.cos(x) / np.where(zero, 1.0, t))

    return 0.5 * beta * _tanh_sinh(integrand, 0.0, theta + math.pi)


def comparison_section(beta: float) -> float:
    """theta at which the connection line zeta0 crosses psi = pi/2."""
    return -math.pi + connection_index(beta) * math.pi / 2


def reversal_map(beta: float, t: TorusState) -> TorusState:
    """Time reversal, the reflection about the section: carries the branch out of
    (-pi, 0) onto its stable partner into (-pi + j pi, pi)."""
    section = comparison_section(beta)
    return TorusState(2.0 * section - t.theta, math.pi - t.psi)


def trace_manifold(p: Params, cfg: IntegratorConfig | None = None) -> np.ndarray:
    """Continue the unstable branch of the saddle (-pi, 0) to the comparison
    section, returned as its (n, 2) samples of (theta, psi); the last row is on
    the section.  `reversal_map` carries it onto its stable partner, the branch
    into the saddle (-pi + j pi, pi).

    Seeds SEED_OFFSET along the unstable eigenvector, toward larger theta, where
    the section -pi + j pi/2 lies, and integrates until theta reaches it.  Raises
    TraceError when the arc length exceeds ARC_LENGTH_CAP first, or when the
    branch comes within SINK_RADIUS of a sink.  At mu = 1 the branch leaves
    along the limit eigendirection, of slope (beta-2)/2.
    """
    section = comparison_section(p.beta)
    origin = TorusState(-math.pi, 0.0)
    eigvals, eigvecs = np.linalg.eig(_jacobian(_torus_arrays, origin.as_array(), p))
    vec = np.real(eigvecs[:, np.argmax(eigvals.real)])
    vec = vec / np.linalg.norm(vec)
    if vec[0] < 0.0:
        vec = -vec
    y0 = origin.as_array() + SEED_OFFSET * vec

    def rhs(tau: float, y: np.ndarray) -> np.ndarray:
        return _on_floats(_branch_arrays, y, p)

    hit = Event(lambda t, y: y[0] - section, "section", terminal=True)
    capped = Event(lambda t, y: y[2] - ARC_LENGTH_CAP, "arc-cap", terminal=True)
    events = [hit, capped]
    if p.mu > 1.0:
        # For mu > 1 the equilibria at theta = pi/2 (mod pi), psi = pi are sinks:
        # there the field's Jacobian has a positive determinant and a trace with
        # the sign of cos(psi).  The arc-length cap cannot fire once the branch
        # settles into one, so the trace stops within SINK_RADIUS of it.
        def sink_gap(t: float, y: np.ndarray) -> float:
            return math.hypot(math.remainder(y[0] - 0.5 * math.pi, math.pi),
                              math.remainder(y[1] - math.pi, 2 * math.pi)) - SINK_RADIUS

        events.append(Event(sink_gap, "sink", terminal=True))
    traj = integrate(rhs, np.append(y0, 0.0), (0.0, 1e5), cfg, events=events)
    if not traj.event_times("section"):
        if traj.event_times("sink"):
            raise TraceError(f"branch from {origin} fell into an attracting equilibrium at "
                             f"theta = {traj.states[-1, 0]:.6g}, psi = {traj.states[-1, 1]:.6g} "
                             f"before reaching theta = {section}")
        raise TraceError(f"branch from {origin} did not reach theta = {section} "
                         f"within arc length {ARC_LENGTH_CAP}")
    return traj.states[:, :2].copy()


def splitting_gap(beta: float, p: Params, cfg: IntegratorConfig | None = None
                  ) -> tuple[float, float, float]:
    """(gap, psi_unstable, psi_stable) at the comparison section.

    The unstable branch out of (-pi, 0) is traced directly; the matching stable
    branch is its image under `reversal_map`, which fixes the section.
    """
    if p.beta != beta:
        raise ValueError("beta argument must match p.beta")
    samples = trace_manifold(p, cfg)
    end = TorusState(*samples[-1].tolist())
    psi_s = reversal_map(beta, end).psi
    return abs(end.psi - psi_s), end.psi, psi_s


def splitting_verdict(gap: float, cfg: IntegratorConfig | None = None) -> SplittingVerdict:
    """Broken iff the branch gap at the section exceeds 10x the integrator tolerance."""
    cfg = cfg or IntegratorConfig()
    tol = 10.0 * max(cfg.rel_tol, cfg.abs_tol)
    return SplittingVerdict.BROKEN if gap > tol else SplittingVerdict.CONNECTED


def connection_beta(j: int) -> float:
    """The exponent 2 + 2/j whose connection out of (-pi, 0) spans j pi in theta."""
    if not j >= 1:
        raise ValueError(f"j must be a positive integer, got {j!r}")
    return 2.0 + 2.0 / j
