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
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import CartesianState, DomainError, Params, _chart_rhs, _check_off_origin, _on_floats
from .integrate import IntegrationError, IntegratorConfig, StepSizeUnderflow, _DormandPrince

__all__ = [
    "COLLISION_RADIUS",
    "delta",
    "McGeheeState",
    "Stability",
    "EquilibriumReport",
    "to_mcgehee",
    "from_mcgehee",
    "mcgehee_rhs",
    "energy_residual",
    "level_through",
    "equilibria",
    "linearize_at",
    "spiral_threshold",
    "BasinBox",
    "basin_fraction",
    "min_field_norm_on_level",
]

TWO_PI = 2.0 * math.pi
COLLISION_RADIUS = 1e-6  # collision detection threshold in rescaled coordinates

EQUILIBRIUM_ANGLES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
_ANGLE_NAMES = ("0", "pi/2", "pi", "3pi/2")


def delta(theta, mu, xp=np):
    """Anisotropy profile Delta(theta) = mu cos^2 + sin^2, in [1, mu] for mu >= 1;
    sine and cosine from the namespace xp (`math` on Python floats)."""
    return _delta_and_half_sin2(theta, mu, xp)[0]


def _delta_and_half_sin2(theta, mu, xp):
    """Delta(theta) and sin(2 theta)/2 = sin * cos, from one sine-cosine pair."""
    c = xp.cos(theta)
    s = xp.sin(theta)
    return mu * c * c + s * s, s * c


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


def to_mcgehee(s: CartesianState, p: Params) -> McGeheeState:
    """Regularizing transform; inverts under from_mcgehee and lands on the
    energy relation for h = hamiltonian(s)."""
    _check_off_origin(s.x, s.y)
    r = math.hypot(s.x, s.y)
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


def _field_arrays(xp, r, v, theta, u, p: Params):
    """The one definition of the field, with sines and cosines from the namespace
    xp: `math` on Python floats for one state, `numpy` for equal-shape arrays.

    One sine-cosine pair, one power of r and one of Delta per call:
    sin(2 theta)/2 = sin cos, r^beta = r^(beta-1) r and
    Delta^((beta+2)/2) = Delta^(beta/2) Delta."""
    D, sc = _delta_and_half_sin2(theta, p.mu, xp)
    rb1 = r ** (p.beta - 1.0)
    Db = D ** (p.beta / 2.0)
    dr = r * v
    dv = 0.5 * (p.beta - 2.0) * v * v + rb1 + 2.0 * p.h * (rb1 * r) - p.b * (p.beta - 2.0) / Db
    dth = u
    du = 0.5 * (p.beta - 2.0) * u * v + p.b * p.beta * (p.mu - 1.0) * sc / (Db * D)
    return dr, dv, dth, du


def mcgehee_rhs(p: Params):
    p.require_beta_above(2.0, strict=False)
    return _chart_rhs(_field_arrays, p)


def energy_residual(m: McGeheeState, p: Params) -> float:
    """u^2 + v^2 - 2 r^(beta-1) - 2b/Delta^(beta/2) - 2 h r^beta; a first integral,
    zero on the energy level."""
    return float(_on_floats(_residual, [float(m.r), float(m.v), float(m.theta), float(m.u)], p))


def _residual(xp, r, v, theta, u, p: Params):
    """`energy_residual` on floats or equal-shape arrays, sines and cosines from xp;
    one power of r, r^beta = r^(beta-1) r, as in the field."""
    D = delta(theta, p.mu, xp)
    rb1 = r ** (p.beta - 1.0)
    return u * u + v * v - 2.0 * rb1 - 2.0 * p.b / D ** (p.beta / 2.0) - 2.0 * p.h * (rb1 * r)


def _v_squared(r, theta, u, p: Params):
    """v^2 on the energy level: the residual at v = 0, negated (0.0 - x keeps a zero +0)."""
    return 0.0 - _residual(np, r, 0.0, theta, u, p)


def level_through(m: McGeheeState, p: Params) -> Params:
    """p with h moved to the level through m: the residual has slope -2 r^beta in h."""
    if not m.r > 0.0:
        raise DomainError("every energy level passes through r = 0")
    out_of_range = f"the energy level through r = {m.r} is out of the float range"
    try:
        slope = 2.0 * m.r ** p.beta
    except OverflowError:
        raise ArithmeticError(f"{out_of_range}: r^beta overflows at beta = {p.beta}") from None
    h = p.h + energy_residual(m, p) / slope
    if not math.isfinite(h):
        raise ArithmeticError(f"{out_of_range}: the energy residual overflows to h = {h}")
    return replace(p, h=h)


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

    @property
    def spiraling(self) -> bool:
        return self.stability in (Stability.SPIRAL_SOURCE, Stability.SPIRAL_SINK)


def linearize_at(m: McGeheeState, p: Params) -> np.ndarray:
    """Linearization on the energy level in the (r, theta, u) basis: v on the
    diagonal, then the (theta, u) block [[0, 1], [c, e]] with e = (beta-2) v/2
    and c = b beta (mu-1) cos(2 theta) / Delta^((beta+2)/2).

    At an equilibrium (r = u = 0) this is the (r, theta, u) block of the field's
    Jacobian: there no r, theta or u component depends on v, the direction off the level.
    """
    D = delta(m.theta, p.mu, np)
    e = 0.5 * (p.beta - 2.0) * m.v
    c = p.b * p.beta * (p.mu - 1.0) * math.cos(2.0 * m.theta) / D ** ((p.beta + 2.0) / 2.0)
    return np.array([[m.v, 0.0, 0.0],
                     [0.0, 0.0, 1.0],
                     [0.0, c, e]])


def _classify_from_eigenvalues(eigs) -> Stability:
    re = [lam.real for lam in eigs]
    # for mu > 1 no exact eigenvalue has a zero real part: a zero one means the
    # closed form under- or overflowed
    if any(x == 0.0 for x in re):
        raise ArithmeticError(f"eigenvalues {[complex(lam) for lam in eigs]} have a zero "
                              "real part; the closed form under- or overflowed")
    spiral = any(abs(lam.imag) > 1e-12 for lam in eigs)
    if all(x > 0 for x in re):
        return Stability.SPIRAL_SOURCE if spiral else Stability.SOURCE
    if all(x < 0 for x in re):
        return Stability.SPIRAL_SINK if spiral else Stability.SINK
    return Stability.SADDLE


def equilibria(p: Params) -> list[EquilibriumReport]:
    """The eight collision-manifold equilibria A^+-_(0, pi/2, pi, 3pi/2).

    Each has r = 0, u = 0, v = +-sqrt(2b/Delta^(beta/2)).  For mu > 1, A_(0,pi)
    are saddles, A^+_(pi/2,3pi/2) sources and A^-_(pi/2,3pi/2) sinks, spiraling
    exactly when mu > (beta+2)^2/(8 beta).  For mu = 1 the pi/2-family is
    degenerate (a zero eigenvalue) and stability is left None.

    Each spectrum is read from `linearize_at`: the radial direction decouples
    with eigenvalue v*, and the (theta, u) block [[0, 1], [c, e]] contributes
    e/2 +- sqrt(e^2/4 + c).
    """
    p.require_beta_above(2.0)
    reports = []
    for name, theta in zip(_ANGLE_NAMES, EQUILIBRIUM_ANGLES):
        for sign, tag in ((1, "+"), (-1, "-")):
            # an extreme b or mu over- or underflows the closed forms; that is
            # reported once here instead of as numpy warnings
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                loc = McGeheeState(0.0, sign * math.sqrt(_v_squared(0.0, theta, 0.0, p)),
                                   theta % TWO_PI, 0.0)
                (vstar, _, _), _, (_, c, e) = linearize_at(loc, p).tolist()
                root = np.sqrt(complex(e * e / 4.0 + c))
                eigs = (complex(vstar), complex(e / 2.0) + root, complex(e / 2.0) - root)
            if not (math.isfinite(loc.v) and all(cmath.isfinite(lam) for lam in eigs)):
                raise ArithmeticError(
                    f"equilibrium A{tag}_{name} overflowed: v = {float(loc.v)}, eigenvalues "
                    f"{[complex(lam) for lam in eigs]}")
            stab = _classify_from_eigenvalues(eigs) if p.mu > 1.0 else None
            reports.append(EquilibriumReport(f"A{tag}_{name}", loc, eigs, stab))
    return reports


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

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (*self.r, *self.theta, *self.u)):
            raise ValueError(f"sampling box bounds must be finite: {self}")
        for name, (lo, hi) in (("r", self.r), ("theta", self.theta), ("u", self.u)):
            if lo > hi:
                raise ValueError(f"sampling box range of {name} is reversed: {lo}..{hi}")
        if self.r[0] < 0.0:
            raise ValueError("sampling box range of r must satisfy r >= 0: "
                             f"{self.r[0]}..{self.r[1]}")
        if self.v_sign not in (1, -1):
            raise ValueError(f"v_sign must be +1 or -1, got {self.v_sign}")

    @staticmethod
    def near_sink(p: Params) -> "BasinBox":
        """Box around the sink A^-_(pi/2), inside its basin for moderate h < 0; the
        same box for every p."""
        return BasinBox(r=(0.05, 0.35), theta=(math.pi / 2 - 0.3, math.pi / 2 + 0.3),
                        u=(-0.15, 0.15), v_sign=-1)


# relative slack of the collision certificate: its coupling constant c and the
# kinetic term v^2/2 each give up this share, which covers rounding and the
# energy drift of a stepped sample (about 1e-10 at the default tolerances); a
# residual below slack * c moves d(x.p)/dt by less than the slack takes off
_CERTIFICATE_SLACK = 1e-6


def _certified_collision(y, p: Params) -> np.ndarray:
    """The samples of the states y that the Lagrange-Jacobi bound proves to collide;
    y[0] and y[1] are the r and v rows, of a (4, m) array or an (r, v) pair.  With
    c = (1 - slack)(beta-2) b mu^(-beta/2) and k = c^(1/(beta-1)), a state with
    r > 0 and v < 0 is certified when it lies below the barrier,
    r^(beta-1) + 2 h r^beta < c and, for h < 0, r < (1 - slack)(beta-1)/(2|h| beta),
    or when it crosses it, (1 - slack) v^2/2 > max(h, 0) r^beta + r^(beta-1)
    + (c - (beta-1) k r^(beta-2))/(beta-2).  The crossing test runs only on the
    inbound states that the first test leaves undecided.  A NaN or overflowed
    state is never certified.  `basin_fraction` says why both hold."""
    r, v = y[0], y[1]
    rb1 = r ** (p.beta - 1.0)
    bound = (1.0 - _CERTIFICATE_SLACK) * (p.beta - 2.0) * p.b * p.mu ** (-p.beta / 2.0)
    below = rb1 + 2.0 * p.h * (rb1 * r) < bound
    if p.h < 0.0:
        below &= r < (1.0 - _CERTIFICATE_SLACK) * (p.beta - 1.0) / (-2.0 * p.h * p.beta)
    certified = (r > 0.0) & (v < 0.0)
    rest = np.flatnonzero(certified & ~below)
    certified &= below
    if rest.size:
        r, v, rb1 = r[rest], v[rest], rb1[rest]
        k = bound ** (1.0 / (p.beta - 1.0))
        barrier = (max(p.h, 0.0) * (rb1 * r) + rb1
                   + (bound - (p.beta - 1.0) * k * r ** (p.beta - 2.0)) / (p.beta - 2.0))
        certified[rest] = (1.0 - _CERTIFICATE_SLACK) * 0.5 * (v * v) > barrier
    return certified


def basin_fraction(p: Params, n: int, horizon: float, box: BasinBox | None = None,
                   seed: int = 0) -> float:
    """Monte-Carlo estimate of the collision fraction from a box on the energy level.

    Samples (r, theta, u) uniformly and closes v through the energy relation on
    the requested branch.  The draws are uniform in (r, theta, u), not in the
    Liouville measure of the level; on the box the two have positive densities
    with respect to each other (v is closed away from 0), so a positive fraction
    still means a set of collisions of positive measure.  A sample has collided
    once it is certified to collide or once r < COLLISION_RADIUS at an accepted
    step, before the horizon.

    The certificate is the Lagrange-Jacobi identity for w = x.p,
    dw/dt = 2h + 1/r - (beta-2) b q^(-beta/2), q = mu x^2 + y^2.  As q <= mu r^2,
    dw/dt <= F(r) = 2h + 1/r - c r^(-beta) with c = (beta-2) b mu^(-beta/2).  Below
    the barrier, F(r) = r^(-beta) G(r) with G(r) = 2h r^beta + r^(beta-1) - c < 0,
    and G increases in r for h >= 0, and below r = (beta-1)/(2|h| beta) for
    h < 0; so a state with w < 0 (v has its sign) there keeps w negative and
    falling while r shrinks.  Across the barrier: with I' = r F, that is
    I(r) = h r^2 + r + c r^(2-beta)/(beta-2), w^2/2 - I(r) does not decrease
    while w < 0, and I >= min(h, 0) r0^2 + (beta-1)/(beta-2) c^(1/(beta-1)) on
    (0, r0]; so a state whose w^2/2 exceeds I(r0) minus that bound keeps w
    bounded away from 0.  Multiplied by r^(beta-2), this is the second
    inequality of `_certified_collision`.  Either way r reaches 0 in finite
    Cartesian time.  The certificate takes a relative slack of 1e-6 off c and off
    v^2/2, which covers rounding and the energy drift of a stepped sample.

    The certificate is checked at tau = 0 on the drawn (r, v) of the on-level
    samples; if it decides every one, no ensemble is built.  Otherwise only the
    m undecided samples advance together as one system with the package's DOP853
    stepper at the default tolerances (the field is analytic at r = 0, so no
    stiffness appears near collision), and both tests run after every accepted
    step, until every sample has collided or the horizon is reached.  The step
    is controlled by one RMS error norm over all 4m entries, so one sample's
    local error can exceed the tolerance by up to sqrt(4m).  Each field call
    over the (4, m) samples takes one sine-cosine pair, one power of r and one
    of Delta per sample.  The stepper's step limit binds the shared step: past
    it, MaxStepsExceeded.  Deterministic for a fixed seed.
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
    # a sample beyond the float range overflows the energy relation and is off
    # the level; an escaping one overflows and stalls the shared step, which is
    # reported once below: neither prints numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        s2 = _v_squared(r, theta, u, p)
        valid = s2 > 0.0
        on_level = int(np.count_nonzero(valid))
        if on_level == 0:
            raise ValueError("sampling box does not intersect the energy level")
        if on_level < n:  # samples off the level never start
            r, theta, u, s2 = r[valid], theta[valid], u[valid], s2[valid]
        v = box.v_sign * np.sqrt(s2)
        certified = _certified_collision((r, v), p)
        undecided = np.flatnonzero(~certified)
        m = undecided.size
        if m == 0:  # decided at tau = 0: nothing to step
            return on_level / n

        y0 = np.stack([r[undecided], v[undecided], theta[undecided], u[undecided]])

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            return np.concatenate(_field_arrays(np, *y.reshape(4, m), p))

        cfg = IntegratorConfig()
        try:
            stepper = _DormandPrince(rhs, 0.0, y0.ravel(), horizon, cfg)
        except IntegrationError:
            # name one sample, not all 4m entries: the one of largest weighted field
            f = np.abs(np.stack(_field_arrays(np, *y0, p)))
            worst = y0[:, np.argmax((f / (cfg.abs_tol + np.abs(y0) * cfg.rel_tol)).max(axis=0))]
            raise IntegrationError(
                f"the {m} undecided samples could not start at tau = 0.0: their weighted field "
                f"overflows the floats, the most at (r, v, theta, u) = {worst.tolist()}") from None
        collided = np.zeros(m, dtype=bool)
        try:
            while not (stepper.finished or collided.all()):
                stepper.step()
                y = stepper.y.reshape(4, m)
                collided |= (y[0] < COLLISION_RADIUS) | _certified_collision(y, p)
        except StepSizeUnderflow as exc:
            raise ArithmeticError(f"the undecided samples stalled the step at tau = {stepper.t} "
                                  "(escape orbits); the fraction is undecided") from exc

    # samples off the level never started; they count as non-collisions of the box
    return float(on_level - m + np.count_nonzero(collided)) / float(n)


def min_field_norm_on_level(p: Params) -> float:
    """Minimum field norm over a grid of on-level states with 1e-3 <= r <= 5.

    Supports the no-equilibria-off-C check: on the energy level, a zero of the
    field with r > 0 would need u = v = 0 together with v' = 0, which the
    energy relation forbids.  Also serves as the numerical probe at beta = 4,
    where the two scalar conditions coincide.
    """
    p.require_beta_above(2.0)
    rs = np.geomspace(1e-3, 5.0, 25)
    thetas = np.linspace(0.0, TWO_PI, 20, endpoint=False)
    phis = np.linspace(0.0, TWO_PI, 20, endpoint=False)
    R, TH, PH = np.meshgrid(rs, thetas, phis, indexing="ij")
    s2 = _v_squared(R, TH, 0.0, p)
    ok = s2 > 0.0
    mag = np.sqrt(np.where(ok, s2, np.nan))
    U = mag * np.sin(PH)
    V = mag * np.cos(PH)
    f = np.stack(_field_arrays(np, R, V, TH, U, p))
    norms = np.sqrt(np.sum(f * f, axis=0))
    return float(np.nanmin(norms[ok])) if np.any(ok) else math.inf
