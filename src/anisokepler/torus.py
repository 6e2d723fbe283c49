"""Flow on the collision torus in angle variables and saddle-connection splitting.

On the collision manifold, u = sqrt(2b)/Delta^(beta/4) sin(psi) and
v = sqrt(2b)/Delta^(beta/4) cos(psi) turn the flow into a two-dimensional
system on the (theta, psi) torus.  At mu = 1 the slope dpsi/dtheta is the
constant (beta-2)/2, so the branch out of the saddle (-pi, 0) is the line
psi = (theta+pi)/j, j = 2/(beta-2), which reaches the saddle (-pi + j pi, pi)
exactly when j is a positive integer: the connection family beta = 2 + 2/j,
gated by `connection_index` up to j = MAX_CONNECTION_INDEX.  For small
anisotropy epsilon = mu - 1 > 0 the connection splits, and the splitting is
measured where the line crosses psi = pi/2, at theta = -pi + j pi/2.
`trace_manifold` traces the branch out of (-pi, 0) only: the reversal, a
reflection about the section, carries it onto its stable partner into
(-pi + j pi, pi).  Along that branch theta' > 0, so it is traced as a graph
psi(theta), by the slope dpsi/dtheta of the field, in which the amplitude
sqrt(2b)/Delta^(beta/4) cancels.  Where sin(2 theta)
changes sign, on the lines theta = pi/2 (mod pi), the slope has a layer of
width about epsilon^(-1/2).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Params, _chart_rhs, _on_floats
from .integrate import Event, IntegrationError, IntegratorConfig, StepSizeUnderflow, integrate
from .mcgehee import _delta_and_half_sin2

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

SEED_OFFSET = 1e-6
TURN_BACK = 1e-6  # psi this close to pi: theta' = g sin(psi) is about to change sign
MAX_CONNECTION_INDEX = 2 ** 12  # the trace cost grows linearly in j


class _NoConnection(ValueError):
    """beta is not a connection exponent 2 + 2/j: there is no branch to trace."""


class TraceError(IntegrationError):
    """Branch failed to reach the comparison section: it turns back in theta
    first, the stepper stalls on it, or it would cross a layer narrower than the
    spacing of the doubles."""


@dataclass(frozen=True)
class TorusState:
    theta: float
    psi: float

    def as_array(self) -> np.ndarray:
        return np.array([self.theta, self.psi])


class SplittingVerdict(Enum):
    BROKEN = "broken"
    CONNECTED = "connected-within-tolerance"


def _torus_bracket(xp, theta, psi, p: Params):
    """(Delta, sin psi, B): the torus field is g (sin psi, B), with the amplitude
    g = sqrt(2b)/Delta^(beta/4) and
    B = (beta-2)/2 sin psi + (beta/4) epsilon sin(2 theta) cos psi / Delta."""
    D, half_sin2 = _delta_and_half_sin2(theta, p.mu, xp)
    sp = xp.sin(psi)
    tilt = (p.mu - 1.0) * half_sin2 / D
    return D, sp, 0.5 * (p.beta - 2.0) * sp + 0.5 * p.beta * tilt * xp.cos(psi)


def _torus_arrays(xp, theta, psi, p: Params):
    """The one definition of the torus field, sines and cosines from xp.  The
    amplitude multiplies both components, so a power of Delta beyond the floats
    drops neither."""
    D, sp, bracket = _torus_bracket(xp, theta, psi, p)
    g = math.sqrt(2.0 * p.b) / D ** (p.beta / 4.0)
    return g * sp, g * bracket


def _graph_arrays(xp, theta, psi, p: Params):
    """dpsi/dtheta = B / sin psi of the torus field: g, and with it b, cancels."""
    _, sp, bracket = _torus_bracket(xp, theta, psi, p)
    return (bracket / sp,)


def _graph_rhs(p: Params):
    """The closure `trace_manifold` integrates: dpsi/dtheta, with theta the time.
    As a chart closure (`core._chart_rhs`) does, it carries the definition on
    Python floats as ``on_floats(theta, ys)``, and it evaluates the definition
    through `_on_floats`."""

    def rhs(theta: float, y: np.ndarray) -> np.ndarray:
        return _on_floats(_graph_arrays, [theta, *y.tolist()], p)

    rhs.on_floats = lambda theta, ys: _graph_arrays(math, theta, *ys, p)
    return rhs


def torus_rhs(p: Params):
    p.require_beta_above(2.0)
    return _chart_rhs(_torus_arrays, p)


def connection_index(beta: float) -> int:
    """j of a connection exponent beta = 2 + 2/j, j = 1, 2, ..., MAX_CONNECTION_INDEX:
    the connection out of (-pi, 0) spans j pi in theta.  Raises ValueError for
    any other beta.  2/(beta-2) counts as j within 1e-9 of it, relative: the
    float 2 + 2/3 gives 3.000000000000001.  The bound comes before any O(j) work:
    a trace builds j/2 layer lines, and at j = MAX_CONNECTION_INDEX the default
    `splitting` run (four traces) takes about 3 s on a 2-core Xeon."""
    span = 2.0 / (beta - 2.0) if beta > 2.0 else 0.0
    j = round(span)
    if j < 1 or abs(span - j) > 1e-9 * j:
        raise _NoConnection("saddle connections exist at beta = 2 + 2/j for a positive "
                            f"integer j only, got {float(beta)!r}")
    if j > MAX_CONNECTION_INDEX:
        raise ValueError(f"beta = {float(beta)!r} is the connection exponent of j = {j}, "
                         f"above the traced bound j <= {MAX_CONNECTION_INDEX}")
    return j


def zeta0(beta: float, theta: float) -> float:
    """psi-coordinate of the unperturbed connection branch out of (-pi, 0)."""
    return (theta + math.pi) / connection_index(beta)


def zeta1(beta: float, theta: float) -> float:
    """First-order displacement of the connection branch in epsilon:
    (beta/2) int_0^(theta+pi) sin x cos x / tan(x/j) dx, the epsilon-derivative
    of the slope integrated along psi = zeta0.  With x = j y the integrand is the
    Dirichlet kernel 1/2 + sum_{k=1}^{j-1} cos(2 k y) + cos(2 j y)/2, so zeta1 is
    (beta j/4) (Y + sum_{k=1}^{j-1} sin(2 k Y)/k + sin(2 j Y)/(2 j)), Y = (theta+pi)/j:
    j terms, exact.  At the section Y = pi/2, every sine vanishes and zeta1 is
    beta j pi/8 = (j+1) pi/4."""
    j = connection_index(beta)
    y = (theta + math.pi) / j
    k = np.arange(1.0, j)
    return 0.25 * beta * j * (y + float(np.sum(np.sin(2.0 * k * y) / k))
                              + math.sin(2.0 * j * y) / (2.0 * j))


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

    Integrates dpsi/dtheta in theta from SEED_OFFSET along the unstable
    direction, of slope s > 0 with s^2 - ((beta-2)/2) s - beta epsilon/(2 mu)
    = 0, in one piece up to each line theta = pi/2 (mod pi) the branch crosses
    and one up to the section, so that no step jumps a layer.  Raises
    TraceError when psi comes within TURN_BACK of pi, where the branch turns
    back in theta, when the stepper stalls on a piece, and, before tracing,
    when a layer to be crossed is narrower than the spacing of the doubles on
    its line (epsilon ulp(line)^2 > 1).
    """
    j = connection_index(p.beta)
    section = comparison_section(p.beta)
    lines = [-0.5 * math.pi + k * math.pi for k in range(j // 2)]
    if lines and p.epsilon * math.ulp(lines[-1]) ** 2 > 1.0:
        raise TraceError(f"at epsilon = {p.epsilon:.3g} the layer at theta = {lines[-1]:.6g} "
                         "is narrower than the spacing of the doubles")
    half = 0.25 * (p.beta - 2.0)
    s = half + math.sqrt(half * half + 0.5 * p.beta * p.epsilon / p.mu)
    step = SEED_OFFSET / math.hypot(1.0, s)
    thetas, psis = [-math.pi + step], [s * step]
    rhs = _graph_rhs(p)
    turn_back = Event(lambda t, y: y[0] - (math.pi - TURN_BACK), "turn-back")
    for end in (*lines, section):
        try:
            traj = integrate(rhs, psis[-1:], (thetas[-1], end), cfg, events=[turn_back])
        except StepSizeUnderflow as exc:
            raise TraceError(f"branch from (-pi, 0) stalls between theta = {thetas[-1]:.6g} and "
                             f"{end:.6g}, before the section theta = {section}: {exc}") from exc
        thetas += traj.times[1:].tolist()
        psis += traj.states[1:, 0].tolist()
        if traj.events:
            raise TraceError(f"branch from (-pi, 0) turns back in theta: psi reaches pi - "
                             f"{TURN_BACK:g} at theta = {thetas[-1]:.6g}, before the section "
                             f"theta = {section}")
    return np.column_stack((thetas, psis))


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
    if not math.isfinite(gap):
        raise ValueError(f"the gap must be finite, got {gap!r}")
    cfg = cfg or IntegratorConfig()
    tol = 10.0 * max(cfg.rel_tol, cfg.abs_tol)
    return SplittingVerdict.BROKEN if gap > tol else SplittingVerdict.CONNECTED


def connection_beta(j: int) -> float:
    """The exponent 2 + 2/j whose connection out of (-pi, 0) spans j pi in theta,
    for an integer j = 1, ..., MAX_CONNECTION_INDEX: the range `connection_index`
    maps back."""
    if not (isinstance(j, numbers.Integral) and 1 <= j <= MAX_CONNECTION_INDEX):
        raise ValueError(f"j must be an integer from 1 to {MAX_CONNECTION_INDEX}, got {j!r}")
    return 2.0 + 2.0 / j
