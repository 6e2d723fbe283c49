"""Melnikov analysis along zero-energy parabolic orbits of the Kepler problem.

The anisotropic part of the potential acts as the perturbation
W2(r, theta) = beta cos^2(theta) / (2 r^beta) (profile only; callers scale by
eps*b).  The parabolic family is walked in one variable, w = phi/2 with phi the
angle from the perihelion: r = p / (2 cos^2 w) on w in (-pi/2, pi/2), which
carries the whole orbit with no truncation error (a truncated range cannot reach
high accuracy for beta near 3/2, where the integrands decay only like
cos^(2 beta - 4) w at the ends).  The splitting of the asymptotic manifolds of
the point at infinity is governed by M2(theta0) = I2 sin(2 theta0): simple
zeros of M2 indicate transversal intersections, hence chaotic dynamics,
whenever I2 != 0.  I2 vanishes exactly at beta = 2 and beta = 3 (the factor
(beta-2)(beta-3) of the closed form).
Every function takes the orbit parameter p and the exponent beta as floats.
I2(p, beta) = p^(3/2 - beta) I2(1, beta), as is M2: every route evaluates at
p = 1 and scales once, raising where the scale p^(3/2 - beta) overflows or, on
a nonzero value, falls below the normal floats.

Every quadrature here uses one rule: tanh-sinh (Takahasi & Mori 1974, Publ.
RIMS 9:721), refined by halving the step until two levels agree.  M2 is
I2 sin(2 theta0), its I1 part vanishing by parity; the closed form of I2 takes
its Gamma ratio from `math.lgamma`.  The checks that I1 and M1 vanish avoid
nodes mirrored about the perihelion, on which an odd integrand would cancel
whatever its values.
"""

from __future__ import annotations

import functools
import math
import sys
from enum import Enum

import numpy as np

from .integrate import _bisect

__all__ = [
    "ChaosVerdict",
    "perturbation_W2",
    "melnikov_M2",
    "i1_parity_check",
    "m1_direct_quadrature",
    "i2_quadrature",
    "i2_closed_form",
    "i2_amplitude",
    "i2_beta_roots",
    "chaos_verdict",
]

# angle offset realizing Theta(0) = pi on the branch theta in (-pi, pi);
# the sin(2 .) integrands are invariant under it
THETA_NORMALIZATION_OFFSET = math.pi

# tanh-sinh rule: level k steps by 2^-k in u over [0, _TS_U_MAX), where the
# distance of a node from its end has fallen below 1e-22 of the interval; the
# integrals here converge at levels 4-6, so the rule starts at level 3
_TS_U_MAX = 3.5
_TS_FIRST_LEVEL = 3
_TS_LEVELS = 9
_TS_RTOL = 1e-13


def _require_melnikov_beta(beta: float) -> None:
    if not beta > 1.5:
        raise ValueError(f"perturbative analysis requires beta > 3/2, got {beta}")


def _require_orbit_param(p_param: float) -> None:
    if not (p_param > 0.0 and math.isfinite(p_param)):
        raise ValueError(f"orbit parameter p must be positive and finite, got {p_param}")


def _parabola(w: np.ndarray, p_param: float) -> tuple[np.ndarray, ...]:
    """(r, theta, dr/dw, dt/dw) on the zero-energy Kepler orbit with parameter
    p = k^2 (k the angular momentum) at w = phi/2, phi the angle from the
    perihelion; elementwise on an array of w in (-pi/2, pi/2).

    r is even and theta - pi odd in w: theta = 2 w + THETA_NORMALIZATION_OFFSET,
    with the perihelion r = p/2 at theta = pi.  Time runs as
    t = (p^(3/2)/2)(tan w + tan^3 w / 3).
    """
    _require_orbit_param(p_param)
    c = np.cos(w)
    return (0.5 * p_param / (c * c), 2.0 * w + THETA_NORMALIZATION_OFFSET,
            p_param * np.sin(w) / c ** 3, 0.5 * p_param ** 1.5 / c ** 4)


def perturbation_W2(r: float, theta: float, beta: float) -> float:
    """Anisotropy profile beta cos^2(theta) / (2 r^beta); vanishes as r -> infinity."""
    _require_melnikov_beta(beta)
    if not r > 0.0:
        raise ValueError("W2 requires r > 0")
    c = math.cos(theta)
    return beta * c * c / (2.0 * r ** beta)


def perturbation_W2_partials(r: float, theta: float, beta: float) -> tuple[float, float]:
    """(dW2/dr, dW2/dtheta); elementwise on arrays of r and theta."""
    _require_melnikov_beta(beta)
    c = np.cos(theta)
    return (-(beta * beta) * c * c / (2.0 * r ** (beta + 1.0)),
            -beta * np.sin(2.0 * theta) / (2.0 * r ** beta))


@functools.cache
def _tanh_sinh_level(level: int) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, omega): the nodes that level `level` adds to the rule on [0, 1].

    u runs over the multiples of h = 2^-level in [0, _TS_U_MAX) that no coarser
    level from _TS_FIRST_LEVEL on has.  sigma = 1 / (1 + exp(pi sinh u)) is the
    distance of the node x(u) = (1 + tanh(pi/2 sinh u)) / 2 from the nearer end,
    free of cancellation; omega = dx/du.  Each sigma stands for the pair of nodes sigma
    and 1 - sigma, so the midpoint (u = 0) carries half its weight.
    """
    h = 2.0 ** -level
    first = level == _TS_FIRST_LEVEL
    u = np.arange(0.0, _TS_U_MAX, h) if first else np.arange(h, _TS_U_MAX, 2.0 * h)
    sigma = 1.0 / (1.0 + np.exp(math.pi * np.sinh(u)))
    omega = math.pi * np.cosh(u) * sigma * (1.0 - sigma)
    if first:
        omega[0] *= 0.5
    return sigma, omega


def _tanh_sinh(f, a: float, b: float) -> float:
    """Integral of f over [a, b] by the tanh-sinh rule.

    f maps an array of nodes to the array of its values.  The first level steps
    by h = 2^-_TS_FIRST_LEVEL = 1/8 in u; each further level halves the step and
    adds only the new nodes.  Stops when two successive levels agree to 1e-13
    of the integral of |f|, and raises ArithmeticError on a non-finite value or
    when the finest level is reached first.
    """
    length = b - a
    total = abs_total = 0.0
    for level in range(_TS_FIRST_LEVEL, _TS_LEVELS):
        sigma, omega = _tanh_sinh_level(level)
        fx = f(np.concatenate((a + length * sigma, b - length * sigma)))
        weights = np.concatenate((omega, omega)) * (length * 2.0 ** -level)
        previous = total
        total = 0.5 * total + float(np.sum(fx * weights))
        abs_total = 0.5 * abs_total + float(np.sum(np.abs(fx) * weights))
        if not math.isfinite(total):
            raise ArithmeticError(f"quadrature met a non-finite integrand on [{a}, {b}]")
        if level > _TS_FIRST_LEVEL and abs(total - previous) <= _TS_RTOL * abs_total:
            return total
    raise ArithmeticError(f"quadrature on [{a}, {b}] did not converge: the last two levels "
                          f"differ by {abs(total - previous):.3g} of {abs_total:.3g}")


def _unit_orbit_integral(beta: float) -> float:
    """I2 at p = 1, (beta/2) int cos(2 Theta) / R^beta dt, for beta > 3/2:
    2^(beta-2) beta times the integral of cos^(2 beta - 4)(w) cos(4 w) on
    (-pi/2, pi/2), w = theta/2.  The integrand is even, so this is 2^(beta-1)
    beta times the integral over one half, written in the distance d = pi/2 - |w|
    to its endpoint; for beta < 2, t = d^s with s = 2 beta - 3 absorbs the
    endpoint singularity (sin d = d sinc d), else s = 1.
    """
    a = 2.0 * beta - 4.0
    s = min(a + 1.0, 1.0)

    def integrand(t: np.ndarray) -> np.ndarray:
        d = t ** (1.0 / s)
        # past beta ~ 788, d^(a+1-s) = inf meets sinc^a = 0: a NaN, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            core = np.sinc(d / math.pi) ** a * d ** (a + 1.0 - s) / s
        return core * np.cos(4.0 * (0.5 * math.pi - d))

    try:
        scale = 2.0 ** (beta - 1.0) * beta
    except OverflowError:  # from beta = 1025 on, before any quadrature node
        raise ArithmeticError("2^(beta-1) overflows the floats") from None
    return scale * _tanh_sinh(integrand, 0.0, (0.5 * math.pi) ** s)


def _at_p(p_param: float, beta: float, unit: float) -> float:
    """p^(3/2 - beta) times `unit`, an integral of W2 at p = 1: r and t scale as p
    and p^(3/2) at fixed w.  Checks p; raises ArithmeticError on overflow, and
    where a nonzero unit meets a scale below the normal floats, whose product
    would keep fewer digits than the tolerances assume, or none."""
    _require_orbit_param(p_param)
    try:
        scale = p_param ** (1.5 - beta)
    except OverflowError:  # the scale itself exceeds the float range
        scale = math.inf
    value = scale * unit
    if scale < sys.float_info.min and unit != 0.0:
        bound = "below 2.2e-308"
    elif not math.isfinite(value):
        bound = "above 1.8e308"
    else:
        return value
    raise ArithmeticError(f"the p^(3/2 - beta) scaling at p = {p_param!r}, beta = {beta!r} "
                          f"leaves the float range (magnitude {bound})")


def melnikov_M2(theta0: float, p_param: float, beta: float) -> float:
    """M2(theta0) = (beta/2) int sin[2(Theta(t) + theta0)] / R(t)^beta dt
    = I2 sin(2 theta0): the cos(2 theta0) part carries I1, which vanishes by
    parity (`i1_parity_check` measures it)."""
    return i2_quadrature(p_param, beta) * math.sin(2.0 * theta0)


def i1_parity_check(p_param: float, beta: float) -> float:
    """Quadrature of I1 = (beta/2) int sin(2 Theta)/R^beta dt = -int dW2/dtheta dt;
    zero by parity.

    Integrates in w over (-pi/2, pi/2), split at w = 0.3 so that no node has its
    mirror image about w = 0: on mirrored nodes any odd integrand cancels to
    roundoff, and the check could not fail.
    """
    _require_melnikov_beta(beta)

    def integrand(w: np.ndarray) -> np.ndarray:
        r, theta, _, dt_dw = _parabola(w, p_param)
        # r^beta overflows only at nodes next to w = +-pi/2, where the
        # integrand is 0 to working precision
        with np.errstate(over="ignore"):
            return -perturbation_W2_partials(r, theta, beta)[1] * dt_dw

    return _tanh_sinh(integrand, -math.pi / 2, 0.3) + _tanh_sinh(integrand, 0.3, math.pi / 2)


def m1_direct_quadrature(p_param: float, beta: float, theta0: float) -> float:
    """M1 as the quadrature of Rdot dW2/dr + Thetadot dW2/dtheta along the orbit,
    in w: dW2/dr dr/dw + 2 dW2/dtheta, since dtheta/dw = 2.

    M1 integrates the total time derivative of W2, so it vanishes with W2 at
    both ends.  At theta0 = 0 the integrand is odd and cancels on the mirrored
    nodes whatever W2 is, so theta0 has no default: a check needs theta0 != 0.
    """
    _require_melnikov_beta(beta)

    def integrand(w: np.ndarray) -> np.ndarray:
        r, theta, dr_dw, _ = _parabola(w, p_param)
        # r^beta overflows only at nodes next to w = +-pi/2, where the partials
        # of W2 are 0 to working precision
        with np.errstate(over="ignore"):
            wr, wth = perturbation_W2_partials(r, theta + theta0, beta)
        return wr * dr_dw + 2.0 * wth

    return _tanh_sinh(integrand, -math.pi / 2, math.pi / 2)


def i2_quadrature(p_param: float, beta: float) -> float:
    """I2 = (beta/2) int cos(2 Theta)/R^beta dt by quadrature in w = theta/2."""
    _require_melnikov_beta(beta)
    try:
        unit = _unit_orbit_integral(beta)
    except ArithmeticError as exc:  # a NaN integrand, or 2^(beta-1) overflows
        raise ArithmeticError(f"the quadrature of I2 fails at beta = {beta}: {exc}") from exc
    return _at_p(p_param, beta, unit)


def i2_amplitude(p_param: float, beta: float) -> float:
    """Scale A = 2^(beta-2) p^(3/2-beta) of the closed form."""
    return _at_p(p_param, beta, 2.0 ** (beta - 2.0))


def i2_closed_form(p_param: float, beta: float) -> float:
    """Closed form of I2 at p = 1, scaled to p:
    2^(beta-2) sqrt(pi) Gamma(beta+1/2) (beta-2)(beta-3)
    / ((beta-1)(beta-3/2)(beta-1/2) Gamma(beta-1)), the Gamma ratio taken as
    exp(lgamma(beta+1/2) - lgamma(beta-1)) so that it stays finite where either
    Gamma overflows.  Raises ArithmeticError where the product at p = 1 overflows
    (beta above 990.35) or the scaled value leaves the float range."""
    _require_melnikov_beta(beta)
    try:
        unit = (2.0 ** (beta - 2.0) * math.sqrt(math.pi)
                * math.exp(math.lgamma(beta + 0.5) - math.lgamma(beta - 1.0))
                * (beta * beta - 5.0 * beta + 6.0)
                / ((beta - 1.0) * (beta - 1.5) * (beta - 0.5)))
    except OverflowError:  # 2^(beta-2) or the Gamma ratio exceeds the float range
        unit = math.inf
    if not math.isfinite(unit):
        raise ArithmeticError(f"the closed form of I2 overflows at beta = {beta}")
    return _at_p(p_param, beta, unit)


def i2_beta_roots() -> list[float]:
    """Zeros of beta -> I2(p, beta) on (3/2, 10], refined by bisection.

    A 0.01 grid from beta = 1.502, which never lands on 2 or 3, brackets the
    sign changes.  Independent of p, which only scales I2 (`_at_p`).
    """
    grid = [float(b) for b in np.arange(1.502, 10.005, 0.01)]
    vals = [i2_closed_form(1.0, b) for b in grid]
    return [_bisect(lambda beta: i2_closed_form(1.0, beta), a, b)
            for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]) if fa * fb < 0.0]


class ChaosVerdict(Enum):
    SIMPLE_ZEROS = "simple-zeros (chaotic indicator)"
    ZERO_M2 = "identically-zero-M2"


def chaos_verdict(beta: float) -> ChaosVerdict:
    """Melnikov indicator: simple zeros of M2 at theta0 in {0, pi/2, pi, 3pi/2}
    whenever I2 != 0; inconclusive (M2 identically zero) at beta = 2 and 3.

    I2 is a nonzero Gamma product times (beta-2)(beta-3) for every p, so the
    verdict reads that factor.  An indicator only: it reports the first-order
    transversality condition, not a full dynamical certificate.
    """
    _require_melnikov_beta(beta)
    if abs((beta - 2.0) * (beta - 3.0)) <= 1e-9:
        return ChaosVerdict.ZERO_M2
    return ChaosVerdict.SIMPLE_ZEROS
