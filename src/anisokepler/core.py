"""Planar two-body problem with a Kepler term plus an anisotropic inverse-power term.

The potential is U(x, y) = -1/sqrt(x^2 + y^2) - b/(mu*x^2 + y^2)^(beta/2) with
anisotropy mu >= 1, coupling b > 0 and exponent beta.  This module holds the
unregularized Hamiltonian system and the discrete symmetry group of the flow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DomainError",
    "Params",
    "CartesianState",
    "SymmetryId",
    "potential",
    "cartesian_rhs",
    "hamiltonian",
    "apply_symmetry",
]

ORIGIN_RADIUS = 1e-12  # states closer to collision than this are rejected


class DomainError(ValueError):
    """Evaluation requested at a singular point (e.g. the collision at the origin)."""


@dataclass(frozen=True)
class Params:
    """Problem constants: exponent beta, anisotropy mu, coupling b, energy level h.

    mu >= 1 and b > 0 are enforced here; bounds on beta differ between the
    regularized analyses (beta > 2, beta >= 2 or beta = 2), so each operation
    checks the bound it needs.
    """

    beta: float
    mu: float
    b: float
    h: float = 0.0

    def __post_init__(self):
        for name in ("beta", "mu", "b", "h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.mu < 1.0:
            raise ValueError("mu must satisfy mu >= 1")
        if self.b <= 0.0:
            raise ValueError("b must be positive")

    @property
    def epsilon(self) -> float:
        """Anisotropy strength mu - 1 (never stored independently)."""
        return self.mu - 1.0

    def require_beta_above(self, bound: float, strict: bool = True) -> None:
        ok = self.beta > bound if strict else self.beta >= bound
        if not ok:
            op = ">" if strict else ">="
            raise ValueError(f"operation requires beta {op} {bound}, got beta={self.beta}")

    def require_beta_equal(self, value: float) -> None:
        if self.beta != value:
            raise ValueError(f"operation requires beta = {value}, got beta={self.beta}")


@dataclass(frozen=True)
class CartesianState:
    x: float
    y: float
    px: float
    py: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.px, self.py])


def _check_off_origin(x: float, y: float) -> None:
    if math.hypot(x, y) < ORIGIN_RADIUS:
        raise DomainError("state at the collision singularity (x, y) = (0, 0)")


def potential(s: CartesianState, p: Params) -> float:
    return float(_on_floats(_potential, [float(s.x), float(s.y)], p))


def _potential(xp, x, y, p: Params):
    """U(x, y), guarding the origin.  Through `_on_floats`, a pull whose power is
    above the floats is 0, as on numpy."""
    _check_off_origin(x, y)
    return -1.0 / math.hypot(x, y) - p.b / (p.mu * x * x + y * y) ** (p.beta / 2.0)


def _cartesian_arrays(xp, x, y, px, py, p: Params):
    """The one definition of (dx, dy, dpx, dpy) = (px, py, -dU/dx, -dU/dy), on
    Python floats or numpy scalars alike: math.hypot takes both (numpy's differs
    in the last bit), and a radius cubed above the floats is inf, as on numpy."""
    _check_off_origin(x, y)
    try:
        r3 = math.hypot(x, y) ** 3
    except OverflowError:
        r3 = math.inf
    q = p.mu * x * x + y * y
    aniso = p.b * p.beta * q ** (-(p.beta + 2.0) / 2.0)
    return px, py, -(x / r3 + aniso * p.mu * x), -(y / r3 + aniso * y)


def cartesian_rhs(p: Params):
    """Vector-field closure for the integrator, guarding the origin."""
    return _chart_rhs(_cartesian_arrays, p)


def _chart_rhs(definition, p: Params):
    """The integrator closure of a chart: its one definition on a state array,
    through `_on_floats`, as an ndarray.

    The closure's ``on_floats(t, ys)`` is the definition on the state as Python
    floats and nothing else: no array, no fallback; the stepper takes every
    stage through it (the stage rule of the `anisokepler.integrate` docstring).
    It takes the definition's module, so that tracers and profilers attribute
    it to its chart."""

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return _on_floats(definition, y.tolist(), p)

    rhs.on_floats = lambda t, ys: definition(math, *ys, p)
    rhs.__module__ = definition.__module__
    return rhs


def _on_floats(field, ys, p: Params) -> np.ndarray:
    """field(math, *ys, p) as a float array (0-d for a scalar field), for a state
    ys of Python floats.

    `field` takes the namespace (`math` or `numpy`) its sines and cosines come
    from.  Float arithmetic and `math` give the doubles numpy's scalar
    arithmetic gives, at a fraction of its per-operation cost
    (tests/test_float_fields.py holds every closure to that).  Where a float
    operation raises instead (an overflowing power, a division by zero, the sine
    of inf) or turns complex, so that the float array refuses it (a negative
    base at a non-integral power, from a trial stage just past r = 0), the same
    definition is evaluated again on numpy scalars, which give numpy's NaN or
    inf without a RuntimeWarning: the stepper rejects a non-finite trial stage,
    and the CLI exits 3 rather than write a NaN or inf cell.
    """
    try:
        return np.array(field(math, *ys, p), dtype=float)
    except (ArithmeticError, ValueError, TypeError):
        with np.errstate(all="ignore"):
            return np.array(field(np, *map(np.float64, ys), p))


def _jacobian(field, y, p: Params) -> np.ndarray:
    """d field(xp, *y, p) / dy by the complex step (Squire & Trapp 1998): column j
    is Im field(y + i h e_j) / h with h = 2^-100, exact to roundoff for a field
    analytic in y.  `field` is a namespace definition, as for `_on_floats`: it
    takes its sines and cosines from xp, so it runs on Python complex through
    `cmath`, and on numpy complex scalars without a RuntimeWarning where that
    raises.  A scalar field gives its gradient, a tuple of k fields its k-row
    Jacobian; a NaN or inf entry raises ArithmeticError."""
    h = 2.0 ** -100
    columns = []
    for j in range(len(y)):
        z = [complex(v) for v in y]
        z[j] += h * 1j
        try:
            columns.append(field(cmath, *z, p))
        except (ArithmeticError, ValueError):
            with np.errstate(all="ignore"):
                columns.append(field(np, *map(np.complex128, z), p))
    with np.errstate(over="ignore"):  # an overflow is an inf entry, refused below
        jac = np.array(columns, dtype=complex).imag.T / h
    if not np.isfinite(jac).all():
        raise ArithmeticError(f"complex-step derivative at {list(map(float, y))} not finite")
    return jac


def hamiltonian(s: CartesianState, p: Params) -> float:
    return 0.5 * (s.px * s.px + s.py * s.py) + potential(s, p)


class SymmetryId(Enum):
    """Sign actions on (x, y, px, py, t); the eight maps form a Z2 x Z2 x Z2 group,
    g1 after g2 being SymmetryId of the componentwise product of their values."""

    ID = (1, 1, 1, 1, 1)
    S0 = (1, 1, -1, -1, -1)
    S1 = (1, -1, -1, 1, -1)
    S2 = (-1, 1, 1, -1, -1)
    S3 = (-1, -1, -1, -1, 1)
    S4 = (-1, 1, -1, 1, 1)
    S5 = (1, -1, 1, -1, 1)
    S6 = (-1, -1, 1, 1, -1)


def apply_symmetry(g: SymmetryId, s: CartesianState, t: float) -> tuple[CartesianState, float]:
    sx, sy, spx, spy, st = g.value
    return CartesianState(sx * s.x, sy * s.y, spx * s.px, spy * s.py), st * t
