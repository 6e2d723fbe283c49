"""Adaptive Runge-Kutta integration with event location and invariant monitoring.

The stepper is DOP853, the explicit 8(5,3) Runge-Kutta pair of Dormand and
Prince in the form of Hairer, Norsett & Wanner, *Solving ODEs I*, Sec. II.10:
twelve stages advance the eighth-order solution, a fifth-order error estimate
damped by a third-order one drives the step-size control, and three more
stages, taken only when an event needs them, give a 7-term dense output of
order 7.  It uses the coefficients and rules of ``scipy.integrate.DOP853`` and
performs the same floating-point operations in the same order, so every step,
state and field call agrees with that solver bit for bit; its stage sums call
``ndarray.dot``, the product scipy's ``np.dot`` computes, without the dispatch
frame; the test suite checks it against scipy.  Event times are refined on
the dense output by bisection, to within 1e-12 + 4 eps |t| of the sign
change.

Every field value but the start-up's two (at t0 and at the probe sizing the
first step) is a stage: row s of K is the field at t + c_s h on the state
y + (K^T a_s) h, and an attempt's stage 12, its end point, is the next step's
stage 0.  A field may carry a hook ``on_floats(t, ys)``, its value at time t
on the state ys as a list of Python floats.  Given one, the stepper builds
each stage state as Python floats, y_i + (K^T a)_i h entry by entry (the two
IEEE operations of the array sum, after the same ``.dot``), and writes the
hook's value into its row of K; only where the hook raises ArithmeticError,
ValueError or TypeError (a complex value, which K refuses, among them) does a
stage call the field itself, on the state as an array.  A field without the
hook takes that path at every stage; one with it must give the same bits.

The stepper enforces the hard step-count limit itself, so every driver stops
there.  Around it the driver adds the bookkeeping the rest of the package
relies on: detection of sign changes of event functions with root refinement,
where the earliest crossing in a step ends the run, and the drift of first
integrals over the accepted samples.
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

# DOP853 in scipy's layout (Hairer, Norsett & Wanner, Sec. II.10; their Fortran
# code DOP853).  Row s of _A weighs the stages K[:s] for stage s, evaluated at
# t + _C[s] h: rows 1-11 are the step's trial stages, row 12 is B (the
# eighth-order solution, whose field value K[12] is the next step's K[0]: first
# same as last) and rows 13-15 are the three extra stages of the dense output.
# _E5 and _E3 weigh the 13 rows K[:13] for the fifth- and third-order error
# estimates; _D weighs all 16 rows for the four highest coefficients of the
# 7-term interpolant.  The literals are scipy.integrate._ivp.dop853_coefficients.
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2, 0.7777777777777778,
])


def _lower_triangular(rows) -> np.ndarray:
    """Square array whose row s holds rows[s] in its first s columns."""
    a = np.zeros((len(rows), len(rows)))
    for s, row in enumerate(rows):
        a[s, :s] = row
    return a


_A = _lower_triangular((
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
))
_E3 = np.array([
    -0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0,
])
_E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0,
])
_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 8  # the error estimate is of order 7


class IntegrationError(RuntimeError):
    """Base class for integration failures."""


class MaxStepsExceeded(IntegrationError):
    pass


class StepSizeUnderflow(IntegrationError):
    """Raised when the stepper stalls (stiffness or an unguarded singularity)."""


class EventRootError(IntegrationError):
    """Raised when an event's refinement meets a NaN event value, or event values
    of the same sign at the two ends of the step."""


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
    the event, and every event ends the run at its refined time.  ``terminal``
    states that rule and takes only True.
    """

    fn: Callable[[float, np.ndarray], float]
    label: str
    terminal: bool = True

    def __post_init__(self):
        if not self.terminal:
            raise ValueError(f"event '{self.label}': every event ends the run, "
                             "so terminal must be True")


@dataclass
class Trajectory:
    """Accepted-step samples, the event that ended the run (none if the run reached
    the end of its span), and max drift per monitored invariant."""

    times: np.ndarray
    states: np.ndarray
    events: list[tuple[float, str]]
    invariant_drift: dict[str, float]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def event_times(self, label: str) -> list[float]:
        return [t for t, lab in self.events if lab == label]


def _norm(x: np.ndarray) -> float:
    """Euclidean norm, as ``np.linalg.norm`` computes it for a 1-D array."""
    return math.sqrt(x.dot(x))


def _rms_norm(x: np.ndarray) -> float:
    return _norm(x) / x.size ** 0.5


class _DormandPrince:
    """State of one trajectory: the current point, its field value K[12], the
    next step size and the accepted steps taken, at most ``cfg.max_steps``."""

    def __init__(self, fun, t0: float, y0: np.ndarray, t_bound: float, cfg: IntegratorConfig):
        self.fun = fun
        self.t_bound = t_bound
        self.direction = 1.0 if t_bound > t0 else -1.0
        self.rtol, self.atol = cfg.rel_tol, cfg.abs_tol
        self.max_steps, self.n_steps = cfg.max_steps, 0
        self.t, self.y = t0, y0
        self.t_old = self.y_old = None
        self.on_floats = getattr(fun, "on_floats", None)
        self.K = np.empty((16, y0.size))
        self.K[12] = fun(t0, y0)
        # views of K made once: per stage (its row, earlier stages, their
        # weights, time fraction), an attempt's 1-12 and the dense output's
        # 13-15; then the 13 rows the error estimates weigh.  K keeps scipy's
        # (16, n) layout, so the .dot products sum in scipy's np.dot order.
        self._stages, self._extra_stages = (
            [(s, self.K[:s].T, _A[s, :s], float(_C[s])) for s in stages]
            for stages in (range(1, 13), range(13, 16)))
        self._KT_E = self.K[:13].T
        self.h_abs = self._initial_step()

    def _initial_step(self) -> float:
        """Starting step size (Hairer, Norsett & Wanner, Sec. II.4)."""
        t0, y0, f0, direction = self.t, self.y, self.K[12], self.direction
        interval_length = abs(self.t_bound - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms_norm(y0 / scale)
        with np.errstate(over="ignore"):
            d1 = _rms_norm(f0 / scale)
        if d1 == math.inf:  # else h0 = 0, and d2 divides by it; a NaN field fails in step
            raise IntegrationError(f"the weighted norm of the field at t = {t0}, "
                                   f"y = {y0.tolist()} overflows the floats")
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = np.asarray(self.fun(t0 + h0 * direction, y0 + h0 * direction * f0), dtype=float)
        d2 = _rms_norm((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        elif max(d1, d2) == 0:  # d1 = 0 and d2 NaN: scipy's numpy division gives inf
            h1 = math.inf
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return min(100 * h0, h1, interval_length)

    def _fill_stages(self, stages, t: float, y: np.ndarray, h: float) -> np.ndarray:
        """K[s] = fun(t + c h, y + (K[:s]^T a) h) for each stage (s, K[:s]^T, a, c),
        through the field's ``on_floats`` hook where it has one (see the module
        docstring); returns the last stage's state."""
        K, fun, on_floats = self.K, self.fun, self.on_floats
        if on_floats is None:
            for s, K_prev, a, c in stages:
                y_s = y + K_prev.dot(a) * h
                K[s] = fun(t + c * h, y_s)
            return y_s
        y_floats = y.tolist()
        for s, K_prev, a, c in stages:
            ys = [yi + di * h for yi, di in zip(y_floats, K_prev.dot(a).tolist())]
            try:
                K[s] = on_floats(t + c * h, ys)
            except (ArithmeticError, ValueError, TypeError):
                K[s] = fun(t + c * h, np.array(ys))
        return np.array(ys)

    @property
    def finished(self) -> bool:
        return self.t == self.t_bound

    def _error_norm(self, h: float, scale: np.ndarray) -> float:
        """The 8(5,3) error estimate: the fifth-order error, damped where the
        third-order one is larger, in the weighted RMS norm."""
        err5_sq = _norm(self._KT_E.dot(_E5) / scale) ** 2
        err3_sq = _norm(self._KT_E.dot(_E3) / scale) ** 2
        if err5_sq == 0 and err3_sq == 0:
            return 0.0
        return abs(h) * err5_sq / math.sqrt((err5_sq + 0.01 * err3_sq) * scale.size)

    def step(self) -> None:
        """Take one accepted step, shrinking the step size after each rejection;
        raise MaxStepsExceeded in place of the step past ``max_steps``."""
        self.n_steps += 1
        if self.n_steps > self.max_steps:
            raise MaxStepsExceeded(f"exceeded {self.max_steps} steps at t={self.t}")
        t, y, K, direction = self.t, self.y, self.K, self.direction
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        K[0] = K[12]

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

            y_new = self._fill_stages(self._stages, t, y, h)

            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self._error_norm(h, scale)
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
        self.t, self.y, self.h_abs = t_new, y_new, h_abs

    def dense_output(self) -> Callable[[float], np.ndarray]:
        """The 7-term interpolant of the last step, from three more field calls."""
        K, t_old, y_old = self.K, self.t_old, self.y_old
        h = self.t - t_old
        self._fill_stages(self._extra_stages, t_old, y_old, h)
        delta_y = self.y - y_old
        F = np.empty((7, y_old.size))
        F[0] = delta_y
        F[1] = h * K[0] - delta_y  # K[0] and K[12]: the field at the two ends
        F[2] = 2 * delta_y - h * (K[12] + K[0])
        F[3:] = h * _D.dot(K)
        F = F[::-1]

        def y_at(t: float) -> np.ndarray:
            x = (t - t_old) / h
            y = np.zeros_like(y_old)
            for i, f in enumerate(F):
                y += f
                y *= x if i % 2 == 0 else 1 - x
            return y + y_old

        return y_at


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """A zero of f on [lo, hi] by bisection.

    An end where f is 0 is returned at once.  Otherwise the bracket of the sign
    change is halved until its width is at most 1e-12 + 4 eps |x|, x its
    midpoint, and x is returned, within half that width of the sign change.
    Two adjacent doubles near x lie closer than that width, so the rule ends
    every bracket.  Raises ValueError when f is NaN or has the same sign at
    both ends.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    f_lo, f_hi = value(lo), value(hi)
    if f_lo == 0:
        return lo
    if f_hi == 0:
        return hi
    if (f_lo < 0) == (f_hi < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    while True:
        x = lo / 2 + hi / 2  # halved first, so no finite bracket overflows
        if hi - lo <= _EVENT_TIME_TOL + _EVENT_REL_TOL * abs(x):
            return x
        if (value(x) < 0) == (f_lo < 0):
            lo = x
        else:
            hi = x


def integrate(
    field: Callable[[float, np.ndarray], np.ndarray],
    s0: Sequence[float],
    t_span: tuple[float, float],
    cfg: IntegratorConfig | None = None,
    events: Sequence[Event] = (),
    monitors: Mapping[str, Callable[[float, np.ndarray], float]] | None = None,
) -> Trajectory:
    """Integrate ``y' = field(t, y)`` over ``t_span`` with the embedded 8(5,3) pair.

    After each accepted step every event is evaluated, and each sign change is
    refined on the dense output to 1e-12 + 4 eps |t| in time.  The run ends at
    the earliest of them in the direction of integration, its last sample the
    dense output there, and ``Trajectory.events`` records that one event.
    After the run, each monitor reports its largest absolute deviation over
    the samples from its value at (t0, y0).  Either time direction is allowed; samples are strictly
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
    fired: list[tuple[float, str]] = []  # the earliest crossing, which ends the run
    g_old = [ev.fn(t0, y0) for ev in events]
    direction = stepper.direction

    while not (fired or stepper.finished):
        stepper.step()

        t_new, y_new = stepper.t, stepper.y
        dense = None
        t_old = stepper.t_old
        for i, ev in enumerate(events):
            g_new = ev.fn(t_new, y_new)
            if g_old[i] < 0.0 <= g_new or g_old[i] > 0.0 >= g_new:
                dense = dense or stepper.dense_output()
                lo, hi = (t_old, t_new) if t_old < t_new else (t_new, t_old)
                try:
                    t_ev = _bisect(lambda t: ev.fn(t, dense(t)), lo, hi)
                except ValueError as exc:
                    raise EventRootError(f"event '{ev.label}' root refinement failed") from exc
                if not fired or direction * t_ev < direction * fired[0][0]:
                    fired = [(t_ev, ev.label)]
            g_old[i] = g_new

        if fired:
            t_new, y_new = fired[0][0], dense(fired[0][0])
        times.append(t_new)
        states.append(y_new)

    drift = {}
    for k, f in (monitors or {}).items():
        ref = f(t0, y0)
        drift[k] = max(0.0, *(abs(f(t, y) - ref) for t, y in zip(times[1:], states[1:])))
    return Trajectory(np.array(times), np.array(states), fired, drift)
