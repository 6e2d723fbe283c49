"""Adaptive Runge-Kutta integration with event location and invariant monitoring.

The stepper is the Dormand-Prince 5(4) pair (Dormand & Prince 1980, J. Comput.
Appl. Math. 6:19), advanced with the fifth-order solution, with a quartic
dense output and the step-size control of Hairer, Norsett & Wanner, *Solving
ODEs I*, Sec. II.4.  It uses the coefficients and rules of
``scipy.integrate.RK45`` and performs the same floating-point operations in the
same order, so every step, state and field call agrees with that solver bit
for bit; its stage sums call ``ndarray.dot``, the product scipy's ``np.dot``
computes, without the dispatch frame.  Event times are refined on the dense
output by Brent's method, a line-for-line port of ``scipy.optimize.brentq``
that agrees with it bit for bit as well.  The test suite checks both against
scipy.

The stepper enforces the hard step-count limit itself, so every driver stops
there.  Around it the driver adds the bookkeeping the rest of the package
relies on: detection of sign changes of event functions with root refinement,
and the drift of first integrals over the accepted samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "IntegrationError",
    "MaxStepsExceeded",
    "StepSizeUnderflow",
    "EventRootError",
    "IntegratorConfig",
    "Event",
    "Trajectory",
    "integrate",
]

_EPS = float(np.finfo(float).eps)
_EVENT_TIME_TOL = 1e-12
_EVENT_REL_TOL = 4 * _EPS
_EVENT_MAX_ITER = 100

# Dormand-Prince 5(4) in scipy's RK45 layout: stage s evaluates the field at
# t + C[s] h from the stages K[:s] weighted by A[s, :s]; B gives the
# fifth-order solution, E the error estimate from all seven rows of K (the
# last is the field at the new point) and P the quartic dense output.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 5  # the error estimate is of order 4


class IntegrationError(RuntimeError):
    """Base class for integration failures."""


class MaxStepsExceeded(IntegrationError):
    pass


class StepSizeUnderflow(IntegrationError):
    """Raised when the stepper stalls (stiffness or an unguarded singularity)."""


class EventRootError(IntegrationError):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.rel_tol < 100 * _EPS:
            raise ValueError(f"rel_tol must be at least 100 eps = {100 * _EPS:.3g}, "
                             f"got {self.rel_tol!r}")
        if not self.max_steps > 0:
            raise ValueError("max_steps must be positive")


@dataclass(frozen=True)
class Event:
    """Scalar event function g(t, y); a sign change of g along the solution fires
    the event.  A terminal event truncates the trajectory at the refined event
    time.
    """

    fn: Callable[[float, np.ndarray], float]
    label: str
    terminal: bool = False


@dataclass
class Trajectory:
    """Accepted-step samples, located events, and max drift per monitored invariant."""

    times: np.ndarray
    states: np.ndarray
    events: list[tuple[float, str]]
    invariant_drift: dict[str, float]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def event_times(self, label: str) -> list[float]:
        return [t for t, lab in self.events if lab == label]


def _rms_norm(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x)) / x.size ** 0.5


class _DormandPrince:
    """State of one trajectory: the current point, its field value, the next step
    size and the accepted steps taken, at most ``cfg.max_steps``."""

    def __init__(self, fun, t0: float, y0: np.ndarray, t_bound: float, cfg: IntegratorConfig):
        self.fun = fun
        self.t_bound = t_bound
        self.direction = 1.0 if t_bound > t0 else -1.0
        self.rtol, self.atol = cfg.rel_tol, cfg.abs_tol
        self.max_steps, self.n_steps = cfg.max_steps, 0
        self.t, self.y = t0, y0
        self.t_old = self.y_old = None
        self.f = np.asarray(fun(t0, y0), dtype=float)
        self.K = np.empty((7, y0.size))
        # views of K made once: per stage (earlier stages, their weights, time
        # fraction); then the six stages B weighs and all seven rows E weighs.
        # K keeps scipy's (7, n) layout, so the .dot products sum in the same
        # order as scipy's np.dot.
        self._stages = [(self.K[:s].T, _A[s, :s], _C[s]) for s in range(1, 6)]
        self._KT_B, self._KT = self.K[:-1].T, self.K.T
        self.h_abs = self._initial_step()

    def _initial_step(self) -> float:
        """Starting step size (Hairer, Norsett & Wanner, Sec. II.4)."""
        t0, y0, f0, direction = self.t, self.y, self.f, self.direction
        interval_length = abs(self.t_bound - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms_norm(y0 / scale)
        d1 = _rms_norm(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = np.asarray(self.fun(t0 + h0 * direction, y0 + h0 * direction * f0), dtype=float)
        d2 = _rms_norm((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        elif max(d1, d2) == 0:  # d1 = 0 and d2 NaN: scipy's numpy division gives inf
            h1 = math.inf
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        return min(100 * h0, h1, interval_length)

    @property
    def finished(self) -> bool:
        return self.t == self.t_bound

    def step(self) -> None:
        """Take one accepted step, shrinking the step size after each rejection;
        raise MaxStepsExceeded in place of the step past ``max_steps``."""
        self.n_steps += 1
        if self.n_steps > self.max_steps:
            raise MaxStepsExceeded(f"exceeded {self.max_steps} steps at t={self.t}")
        fun, t, y, K, direction = self.fun, self.t, self.y, self.K, self.direction
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(self.h_abs, min_step)

        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step size, from a NaN field, too
                raise StepSizeUnderflow(
                    f"step size is NaN at t = {t}, y = {y.tolist()}: the field or the "
                    "state is not finite there" if math.isnan(h_abs) else
                    "Required step size is less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)

            K[0] = self.f
            for s, (K_prev, a, c) in enumerate(self._stages, start=1):
                dy = K_prev.dot(a) * h
                K[s] = fun(t + c * h, y + dy)
            y_new = y + h * self._KT_B.dot(_B)
            f_new = np.asarray(fun(t + h, y_new), dtype=float)
            K[-1] = f_new

            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = _rms_norm(self._KT.dot(_E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True

        self.t_old, self.y_old = t, y
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs

    def dense_output(self) -> Callable[[float], np.ndarray]:
        """The quartic interpolant of the last step."""
        Q = self._KT.dot(_P)
        t_old, y_old = self.t_old, self.y_old
        h = self.t - t_old

        def y_at(t: float) -> np.ndarray:
            x = (t - t_old) / h
            x2 = x * x
            x3 = x2 * x
            return h * Q.dot(np.array((x, x2, x3, x3 * x))) + y_old

        return y_at


def _brentq(f: Callable[[float], float], xa: float, xb: float) -> float:
    """Root of f on [xa, xb] by Brent's method (Brent 1973, Ch. 4).

    A line-for-line port of the C routine behind ``scipy.optimize.brentq``,
    with its stopping rule 2 delta = xtol + rtol |x|.  Raises ValueError when
    f is NaN or has the same sign at both ends, EventRootError when it does
    not converge.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_EVENT_MAX_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_EVENT_TIME_TOL + _EVENT_REL_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C yields inf or NaN, which forces bisection
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise EventRootError(f"no convergence after {_EVENT_MAX_ITER} iterations, value is {xcur}")


def integrate(
    field: Callable[[float, np.ndarray], np.ndarray],
    s0: Sequence[float],
    t_span: tuple[float, float],
    cfg: IntegratorConfig | None = None,
    events: Sequence[Event] = (),
    monitors: Mapping[str, Callable[[float, np.ndarray], float]] | None = None,
) -> Trajectory:
    """Integrate ``y' = field(t, y)`` over ``t_span`` with an embedded 5(4) pair.

    Event times are refined on the dense output to 1e-12 in time.  After the run,
    each monitor reports its largest absolute deviation over the samples from its
    value at (t0, y0).  Either time direction is allowed; samples are strictly
    monotone in the direction of integration.
    """
    cfg = cfg or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got ({t0}, {t1})")
    if t0 == t1:
        raise ValueError("degenerate t_span")
    y0 = np.asarray(s0, dtype=float)
    if y0.ndim != 1 or y0.size == 0 or not np.isfinite(y0).all():
        raise ValueError("the initial state must be a non-empty 1-D array of finite values")

    stepper = _DormandPrince(field, t0, y0, t1, cfg)

    times = [t0]
    states = [y0.copy()]
    fired: list[tuple[float, str]] = []
    g_old = [ev.fn(t0, y0) for ev in events]
    direction = stepper.direction

    while not stepper.finished:
        stepper.step()

        t_new, y_new = stepper.t, stepper.y
        dense = None
        t_old = stepper.t_old
        step_events: list[tuple[float, int]] = []
        for i, ev in enumerate(events):
            g_new = ev.fn(t_new, y_new)
            if g_old[i] < 0.0 <= g_new or g_old[i] > 0.0 >= g_new:
                dense = dense or stepper.dense_output()
                lo, hi = (t_old, t_new) if t_old < t_new else (t_new, t_old)
                try:
                    t_ev = _brentq(lambda t: ev.fn(t, dense(t)), lo, hi)
                except ValueError as exc:
                    raise EventRootError(f"event '{ev.label}' root refinement failed") from exc
                step_events.append((t_ev, i))
            g_old[i] = g_new

        step_events.sort(key=lambda te: direction * te[0])
        terminal_at: float | None = None
        for t_ev, i in step_events:
            if terminal_at is not None and direction * t_ev > direction * terminal_at:
                break
            fired.append((t_ev, events[i].label))
            if events[i].terminal and terminal_at is None:
                terminal_at = t_ev

        if terminal_at is not None:
            times.append(terminal_at)
            states.append(dense(terminal_at))
            break

        times.append(t_new)
        states.append(y_new)

    drift = {}
    for k, f in (monitors or {}).items():
        ref = f(t0, y0)
        drift[k] = max(0.0, *(abs(f(t, y) - ref) for t, y in zip(times[1:], states[1:])))
    fired.sort(key=lambda te: te[0])
    return Trajectory(np.array(times), np.array(states), fired, drift)
