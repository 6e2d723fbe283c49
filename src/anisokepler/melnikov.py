"""Melnikov analysis along zero-energy parabolic orbits of the Kepler problem.

The anisotropic part of the potential acts as the perturbation
W2(r, theta) = beta cos^2(theta) / (2 r^beta) (profile only; callers scale by
eps*b).  Along the parabolic family r = (p/2)(1 + eta^2), eta = tan(theta/2),
the splitting of the asymptotic manifolds of the point at infinity is governed
by M2(theta0) = I2 sin(2 theta0): simple zeros of M2 indicate transversal
intersections, hence chaotic dynamics, whenever I2 != 0.  I2 vanishes exactly
at beta = 2 and beta = 3 (the factor (beta-2)(beta-3) of the closed form).

Improper integrals are evaluated after the exact substitution eta = tan(w),
which compactifies the line to (-pi/2, pi/2): the integrand of I2 becomes
cos(4w) cos^(2 beta - 4)(w), removing any truncation error (a truncated
eta-range cannot reach high accuracy for beta near 3/2, where the integrand
decays only like |eta|^(2 - 2 beta)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Params

__all__ = [
    "ParabolicOrbit",
    "MelnikovResult",
    "ChaosVerdict",
    "parabolic_rt",
    "parabolic_velocities",
    "perturbation_W2",
    "perturbation_W2_partials",
    "melnikov_M2",
    "i1_parity_check",
    "i1_integrand_eta",
    "m1_vanishes",
    "m1_direct_quadrature",
    "i2_quadrature",
    "i2_closed_form",
    "i2_amplitude",
    "i2_beta_roots",
    "chaos_verdict",
    "melnikov_analysis",
    "THETA_NORMALIZATION_OFFSET",
]

# angle offset realizing Theta(0) = pi on the branch theta in (-pi, pi);
# the sin(2 .) integrands are invariant under it
THETA_NORMALIZATION_OFFSET = math.pi

_QUAD_OPTS = dict(limit=300, epsabs=1e-13, epsrel=1e-12)


def _require_melnikov_beta(beta: float) -> None:
    if not beta > 1.5:
        raise ValueError(f"perturbative analysis requires beta > 3/2, got {beta}")


@dataclass(frozen=True)
class ParabolicOrbit:
    """Zero-energy Kepler orbit with parameter p = k^2 (k the angular momentum)."""

    p_param: float

    def __post_init__(self):
        if not self.p_param > 0.0:
            raise ValueError("orbit parameter p must be positive")

    @property
    def k(self) -> float:
        return math.sqrt(self.p_param)

    @property
    def r_min(self) -> float:
        return self.p_param / 2.0


def parabolic_rt(eta: float, orbit: ParabolicOrbit, normalized: bool = False
                 ) -> tuple[float, float, float]:
    """(r, t, theta) on the parabolic orbit at parameter eta = tan(theta/2).

    r is even and t odd in eta; theta lies on the branch (-pi, pi), shifted by
    pi when ``normalized`` to place the perihelion angle at pi.
    """
    p = orbit.p_param
    r = 0.5 * p * (1.0 + eta * eta)
    t = 0.5 * p ** 1.5 * eta * (1.0 + eta * eta / 3.0)
    theta = 2.0 * math.atan(eta)
    if normalized:
        theta += THETA_NORMALIZATION_OFFSET
    return r, t, theta


def parabolic_velocities(eta: float, orbit: ParabolicOrbit) -> tuple[float, float]:
    """(dr/dt, dtheta/dt) along the orbit; matches dr/dt = +-sqrt(2r - k^2)/r
    and dtheta/dt = k/r^2 with the sign carried by eta."""
    p = orbit.p_param
    one = 1.0 + eta * eta
    return 2.0 * eta / (math.sqrt(p) * one), 4.0 / (p ** 1.5 * one * one)


def perturbation_W2(r: float, theta: float, p: Params) -> float:
    """Anisotropy profile beta cos^2(theta) / (2 r^beta); vanishes as r -> infinity."""
    _require_melnikov_beta(p.beta)
    if not r > 0.0:
        raise ValueError("W2 requires r > 0")
    c = math.cos(theta)
    return p.beta * c * c / (2.0 * r ** p.beta)


def perturbation_W2_partials(r: float, theta: float, p: Params) -> tuple[float, float]:
    """(dW2/dr, dW2/dtheta)."""
    _require_melnikov_beta(p.beta)
    c = math.cos(theta)
    beta = p.beta
    return (-(beta * beta) * c * c / (2.0 * r ** (beta + 1.0)),
            -beta * math.sin(2.0 * theta) / (2.0 * r ** beta))


def _quad_checked(f, a: float, b: float) -> float:
    from scipy.integrate import quad  # scipy loads on first use, not at package import

    out = quad(f, a, b, full_output=1, **_QUAD_OPTS)
    val, abserr = out[0], out[1]
    if len(out) > 3 and abserr > 1e-9 * max(1.0, abs(val)):
        raise ArithmeticError(f"quadrature did not converge: {out[3]}")
    return val


def _prefactor(p_param: float, beta: float) -> float:
    return 2.0 ** (beta - 2.0) * beta * p_param ** (1.5 - beta)


def melnikov_M2(theta0: float, orbit: ParabolicOrbit, p: Params) -> float:
    """M2(theta0) = (beta/2) int sin[2(Theta(t) + theta0)] / R(t)^beta dt.

    Quadrature in w = theta/2 (eta = tan w); equals I2 sin(2 theta0) since the
    cos-component I1 is suppressed by parity.
    """
    _require_melnikov_beta(p.beta)
    beta = p.beta
    phase = 2.0 * theta0 + 2.0 * THETA_NORMALIZATION_OFFSET

    def integrand(w: float) -> float:
        return math.cos(w) ** (2.0 * beta - 4.0) * math.sin(4.0 * w + phase)

    return _prefactor(orbit.p_param, beta) * _quad_checked(integrand, -math.pi / 2, math.pi / 2)


def i1_integrand_eta(eta: float, orbit: ParabolicOrbit, p: Params) -> float:
    """Integrand of I1 in the eta parameter (including dt/deta); odd in eta."""
    r, _, theta = parabolic_rt(eta, orbit, normalized=True)
    dt_deta = 0.5 * orbit.p_param ** 1.5 * (1.0 + eta * eta)
    return 0.5 * p.beta * math.sin(2.0 * theta) / r ** p.beta * dt_deta


def i1_parity_check(orbit: ParabolicOrbit, p: Params) -> float:
    """Quadrature of I1 = (beta/2) int sin(2 Theta)/R^beta dt; zero by parity."""
    _require_melnikov_beta(p.beta)
    beta = p.beta

    def integrand(w: float) -> float:
        return math.cos(w) ** (2.0 * beta - 4.0) * math.sin(4.0 * w)

    return _prefactor(orbit.p_param, beta) * _quad_checked(integrand, -math.pi / 2, math.pi / 2)


def _far_eta(orbit: ParabolicOrbit, beta: float, decay: float = 1e-12) -> float:
    # radius at which beta / (2 r^beta) drops below `decay`
    r_far = (beta / (2.0 * decay)) ** (1.0 / beta)
    return math.sqrt(max(2.0 * r_far / orbit.p_param, 1.0))


def m1_vanishes(orbit: ParabolicOrbit, p: Params, theta0: float = 0.0) -> float:
    """Residual of M1, the integral of the total time derivative of W2.

    Equals the difference of the endpoint limits of W2 along the orbit, which
    vanish like R^(-beta); the returned value is that difference evaluated far
    out on both ends.
    """
    _require_melnikov_beta(p.beta)
    H = _far_eta(orbit, p.beta)
    vals = []
    for eta in (H, -H):
        r, _, theta = parabolic_rt(eta, orbit, normalized=True)
        vals.append(perturbation_W2(r, theta + theta0, p))
    return vals[0] - vals[1]


def m1_direct_quadrature(orbit: ParabolicOrbit, p: Params, theta0: float = 0.0) -> float:
    """M1 as the quadrature of Rdot dW2/dr + Thetadot dW2/dtheta along the orbit."""
    _require_melnikov_beta(p.beta)
    p_par = orbit.p_param

    def integrand(w: float) -> float:
        eta = math.tan(w)
        r, _, theta = parabolic_rt(eta, orbit, normalized=True)
        rdot, thdot = parabolic_velocities(eta, orbit)
        wr, wth = perturbation_W2_partials(r, theta + theta0, p)
        dt_dw = 0.5 * p_par ** 1.5 * (1.0 + eta * eta) ** 2
        return (rdot * wr + thdot * wth) * dt_dw

    return _quad_checked(integrand, -math.pi / 2, math.pi / 2)


def i2_quadrature(p_param: float, beta: float) -> float:
    """I2 = (beta/2) int cos(2 Theta)/R^beta dt by quadrature in w = theta/2."""
    _require_melnikov_beta(beta)

    def integrand(w: float) -> float:
        return math.cos(w) ** (2.0 * beta - 4.0) * math.cos(4.0 * w)

    return _prefactor(p_param, beta) * _quad_checked(integrand, -math.pi / 2, math.pi / 2)


def i2_amplitude(p_param: float, beta: float) -> float:
    """Scale A = 2^(beta-2) p^(3/2-beta) of the closed form."""
    return 2.0 ** (beta - 2.0) * p_param ** (1.5 - beta)


def _i2_gamma_bracket(p_param: float, beta: float) -> float:
    from scipy.special import gamma

    pref = (2.0 ** (beta - 1.0) * p_param ** (1.5 - beta) * beta
            / (2.0 * gamma(beta - 1.0)) * math.sqrt(math.pi))
    t1 = gamma(beta - 1.5) * (3.0 / (2.0 * (beta - 1.0) * beta) - 1.0)
    t2 = 2.0 * (gamma(beta + 0.5) - gamma(beta - 0.5)) / ((beta - 1.0) * beta)
    return pref * (t1 + t2)


def _i2_factored(p_param: float, beta: float) -> float:
    from scipy.special import gamma

    A = i2_amplitude(p_param, beta)
    return (A * math.sqrt(math.pi) * gamma(beta + 0.5) * (beta * beta - 5.0 * beta + 6.0)
            / ((beta - 1.0) * (beta - 1.5) * (beta - 0.5) * gamma(beta - 1.0)))


def i2_closed_form(p_param: float, beta: float) -> float:
    """Closed form of I2; evaluates both Gamma expressions (the bracketed one and
    the factored one with the (beta-2)(beta-3) zero structure), asserts their
    mutual agreement to 1e-10 relative, and returns the factored value.  Raises
    ArithmeticError where the Gamma products overflow (beta above about 148)."""
    if not beta > 1.5:
        raise ValueError(f"Gamma closed forms require beta > 3/2, got {beta}")
    v1 = _i2_gamma_bracket(p_param, beta)
    v2 = _i2_factored(p_param, beta)
    if not (math.isfinite(v1) and math.isfinite(v2)):
        raise ArithmeticError(f"Gamma closed forms overflow at beta = {beta}: "
                              f"{float(v1)}, {float(v2)}")
    if abs(v1 - v2) > 1e-10 * max(1.0, abs(v1), abs(v2)):
        raise ArithmeticError(f"closed forms disagree: {v1!r} vs {v2!r}")
    return v2


def i2_beta_roots(beta_lo: float = 1.502, beta_hi: float = 10.0,
                  grid_step: float = 0.01, xtol: float = 1e-10,
                  p_param: float = 1.0) -> list[float]:
    """Zeros of beta -> I2(p, beta) on (3/2, 10], bisection-refined.

    Independent of p by the scaling I2(p, beta) = p^(3/2-beta) I2(1, beta).
    """
    grid = np.arange(beta_lo, beta_hi + grid_step / 2, grid_step)
    vals = np.array([i2_closed_form(p_param, b) for b in grid])
    roots: list[float] = []
    for i in range(len(grid) - 1):
        a, b = float(grid[i]), float(grid[i + 1])
        fa, fb = float(vals[i]), float(vals[i + 1])
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0.0:
            while b - a > xtol:
                mid = 0.5 * (a + b)
                fm = i2_closed_form(p_param, mid)
                if fm == 0.0:
                    a = b = mid
                    break
                if fa * fm < 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    if float(vals[-1]) == 0.0:
        roots.append(float(grid[-1]))
    return roots


class ChaosVerdict(Enum):
    SIMPLE_ZEROS = "simple-zeros (chaotic indicator)"
    ZERO_M2 = "identically-zero-M2"


def chaos_verdict(beta: float, p_param: float = 1.0) -> ChaosVerdict:
    """Melnikov indicator: simple zeros of M2 at theta0 in {0, pi/2, pi, 3pi/2}
    whenever I2 != 0; inconclusive (M2 identically zero) at beta = 2 and 3.

    An indicator only: it reports the first-order transversality condition,
    not a full dynamical certificate.
    """
    from scipy.special import gamma

    _require_melnikov_beta(beta)
    i2 = i2_closed_form(p_param, beta)
    scale = (i2_amplitude(p_param, beta) * math.sqrt(math.pi) * gamma(beta + 0.5)
             / ((beta - 1.0) * (beta - 1.5) * (beta - 0.5) * gamma(beta - 1.0)))
    return ChaosVerdict.ZERO_M2 if abs(i2) <= 1e-9 * abs(scale) else ChaosVerdict.SIMPLE_ZEROS


@dataclass(frozen=True)
class MelnikovResult:
    i1: float
    i2_quadrature: float
    i2_closed_form: float
    theta0_zeros: tuple[float, ...]


def melnikov_analysis(orbit: ParabolicOrbit, p: Params) -> MelnikovResult:
    """I1, I2 (both routes) and the zeros of M2 on [0, 2 pi) when I2 != 0."""
    _require_melnikov_beta(p.beta)
    i1 = i1_parity_check(orbit, p)
    i2q = i2_quadrature(orbit.p_param, p.beta)
    i2c = i2_closed_form(orbit.p_param, p.beta)
    if chaos_verdict(p.beta, orbit.p_param) is ChaosVerdict.SIMPLE_ZEROS:
        zeros = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
    else:
        zeros = ()
    return MelnikovResult(i1, i2q, i2c, zeros)
