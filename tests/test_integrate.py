"""Shared integrator."""

import dataclasses
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq

from anisokepler import cli, core, torus
from anisokepler.beta2 import beta2_mcgehee_rhs, polar_rhs
from anisokepler.core import Params, cartesian_rhs
from anisokepler.infinity import infinity_rhs
from anisokepler.integrate import (
    Event,
    EventRootError,
    IntegratorConfig,
    MaxStepsExceeded,
    StepSizeUnderflow,
    _A,
    _C,
    _D,
    _DormandPrince,
    _E3,
    _E5,
    _bisect,
    integrate,
)
from anisokepler.mcgehee import mcgehee_rhs
from anisokepler.torus import _graph_rhs, torus_rhs


def harmonic(t, y):
    return np.array([y[1], -y[0]])


def test_harmonic_period_return():
    y0 = [1.0, 0.0]
    traj = integrate(harmonic, y0, (0.0, 2 * math.pi))
    assert np.linalg.norm(traj.final_state - y0) < 1e-9


def test_linear_growth():
    traj = integrate(lambda t, y: y, [1.0], (0.0, 1.0))
    assert abs(traj.final_state[0] - math.e) < 1e-10


def test_tolerance_scaling_on_harmonic():
    # over seven decades of rel_tol the error after one period stays below
    # rel_tol, and its log-log slope against rel_tol is 1: the controller
    # tracks the tolerance, whatever the order of the pair
    rtols = np.geomspace(1e-4, 1e-11, 29)
    errs = []
    for rtol in rtols:
        cfg = IntegratorConfig(rel_tol=rtol, abs_tol=1e-14)
        traj = integrate(harmonic, [1.0, 0.0], (0.0, 2 * math.pi), cfg)
        errs.append(np.linalg.norm(traj.final_state - [1.0, 0.0]))
    assert np.all(np.array(errs) <= rtols)
    slope = np.polyfit(np.log(rtols), np.log(errs), 1)[0]
    assert abs(slope - 1.0) <= 0.05


def test_event_located_and_terminal():
    # x(t) = sin(t) crosses 0.5 rising at t = pi/6
    ev = Event(lambda t, y: y[0] - 0.5, "half", terminal=True)
    traj = integrate(harmonic, [0.0, 1.0], (0.0, 10.0), events=[ev])
    assert len(traj.events) == 1
    t_ev, label = traj.events[0]
    assert label == "half"
    assert abs(t_ev - math.pi / 6) < 1e-10
    assert abs(traj.times[-1] - t_ev) == 0.0


def test_event_after_a_terminal_one_in_the_same_step_is_not_recorded():
    # y' = 1, so y = t: one step, from |t| = 0.1111 to 1.1111, crosses
    # |y| = 0.3 and 0.6; the run ends at the earlier crossing in the direction
    # of integration, whichever order the events are listed in
    def field(t, y):
        return np.ones(1)

    for sign in (1.0, -1.0):
        free = integrate(field, [0.0], (0.0, 5.0 * sign))
        assert not np.any((np.abs(free.times) > 0.3) & (np.abs(free.times) < 0.6))
        first = Event(lambda t, y: y[0] - 0.3 * sign, "first")
        second = Event(lambda t, y: y[0] - 0.6 * sign, "second")
        for events in ([first, second], [second, first]):
            stopped = integrate(field, [0.0], (0.0, 5.0 * sign), events=events)
            assert [label for _, label in stopped.events] == ["first"]
            assert stopped.times[-1] == stopped.events[0][0] == pytest.approx(0.3 * sign)
            assert stopped.final_state[0] == pytest.approx(0.3 * sign)


def test_every_event_is_terminal():
    def g(t, y):
        return y[0]

    for ev in (Event(g, "a"), Event(g, "a", terminal=True)):
        assert ev.terminal is True
        assert dataclasses.replace(ev, fn=abs) == Event(abs, "a")
    with pytest.raises(ValueError, match="every event ends the run"):
        Event(g, "a", terminal=False)


def test_event_function_nan_inside_the_step_fails_the_refinement():
    # finite and of opposite signs at the ends of the step, NaN near the root
    def g(t, y):
        return y[0] - 0.45 if abs(y[0] - 0.45) > 0.01 else math.nan

    with pytest.raises(EventRootError, match="event 'nan' root refinement failed"):
        integrate(lambda t, y: np.ones(1), [0.0], (0.0, 5.0), events=[Event(g, "nan")])


def test_collision_event_fires_exactly_once():
    # radial infall in regularized coordinates: r decreases through the
    # collision threshold exactly once
    from anisokepler.core import Params
    from anisokepler.mcgehee import McGeheeState, delta, mcgehee_rhs

    p = Params(beta=3, mu=1.2, b=0.5, h=-0.25)
    th = 1.0
    v0 = -math.sqrt(2 * 0.5 ** 2 + 2 * p.b / delta(th, p.mu) ** 1.5 + 2 * p.h * 0.5 ** 3)
    m0 = McGeheeState(0.5, v0, th, 0.0)
    ev = Event(lambda t, y: y[0] - 1e-6, "collision", terminal=True)
    traj = integrate(mcgehee_rhs(p), m0.as_array(), (0.0, 50.0), events=[ev])
    assert len(traj.event_times("collision")) == 1
    assert traj.final_state[0] == pytest.approx(1e-6, rel=1e-6)
    assert np.all(np.diff(traj.states[:, 0]) < 0)


def test_event_determinism_bitwise():
    ev = Event(lambda t, y: y[0] - 0.5, "half")
    t1 = integrate(harmonic, [0.0, 1.0], (0.0, 10.0), events=[ev])
    t2 = integrate(harmonic, [0.0, 1.0], (0.0, 10.0), events=[ev])
    assert [t for t, _ in t1.events] == [t for t, _ in t2.events]
    assert np.array_equal(t1.times, t2.times)


def test_monitor_completeness_and_drift():
    mons = {
        "energy": lambda t, y: 0.5 * (y[0] ** 2 + y[1] ** 2),
        "const": lambda t, y: 1.0,
    }
    traj = integrate(harmonic, [1.0, 0.0], (0.0, 5.0), monitors=mons)
    assert set(traj.invariant_drift) == {"energy", "const"}
    assert traj.invariant_drift["energy"] < 1e-9
    assert traj.invariant_drift["const"] == 0.0


def test_max_steps_exceeded():
    cfg = IntegratorConfig(max_steps=3)
    with pytest.raises(MaxStepsExceeded):
        integrate(harmonic, [1.0, 0.0], (0.0, 100.0), cfg)
    # exactly max_steps accepted steps are allowed; the next one raises at the
    # time the run stopped, in integrate() as in the bare stepper
    n = len(integrate(harmonic, [1.0, 0.0], (0.0, 10.0)).times) - 1
    integrate(harmonic, [1.0, 0.0], (0.0, 10.0), IntegratorConfig(max_steps=n))
    stepper = _DormandPrince(harmonic, 0.0, np.array([1.0, 0.0]), 10.0,
                             IntegratorConfig(max_steps=n - 1))
    for _ in range(n - 1):
        stepper.step()
    message = f"exceeded {n - 1} steps at t={stepper.t}"
    with pytest.raises(MaxStepsExceeded, match=f"^{re.escape(message)}$"):
        stepper.step()
    with pytest.raises(MaxStepsExceeded, match=f"^{re.escape(message)}$"):
        integrate(harmonic, [1.0, 0.0], (0.0, 10.0), IntegratorConfig(max_steps=n - 1))


def test_backward_integration():
    traj = integrate(lambda t, y: y, [math.e], (1.0, 0.0))
    assert abs(traj.final_state[0] - 1.0) < 1e-10
    assert np.all(np.diff(traj.times) < 0)


def test_times_strictly_increasing_forward():
    traj = integrate(harmonic, [1.0, 0.0], (0.0, 3.0))
    assert np.all(np.diff(traj.times) > 0)


def test_config_validation():
    for rel_tol in (0.0, 1e-16, 99 * np.finfo(float).eps):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=rel_tol)
    IntegratorConfig(rel_tol=100 * np.finfo(float).eps)
    with pytest.raises(ValueError, match="max_steps must be positive"):
        IntegratorConfig(max_steps=0)
    for bad in ([[1.0, 0.0]], [], [1.0, math.nan]):
        with pytest.raises(ValueError, match="non-empty 1-D array of finite values"):
            integrate(harmonic, bad, (0.0, 1.0))
    with pytest.raises(ValueError):
        integrate(harmonic, [1.0, 0.0], (1.0, 1.0))
    for bad in ((0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError):
            integrate(harmonic, [1.0, 0.0], bad)


def test_collision_in_cartesian_coordinates_underflows():
    # radial infall onto the unregularized singularity at the origin
    rhs = cartesian_rhs(Params(beta=2, mu=1, b=0.5))
    with pytest.raises(StepSizeUnderflow):
        integrate(rhs, [1.0, 0.0, -1.0, 0.0], (0.0, 5.0))


def test_field_turning_nan_after_a_zero_start_underflows():
    # the start-up probe sees f0 = 0 and a NaN slope; scipy's DOP853 continues to
    # the same step-size underflow instead of dividing by zero
    def field(t, y):
        return np.zeros(2) if t == 0.0 else np.full(2, np.nan)

    with pytest.raises(StepSizeUnderflow):
        integrate(field, [1.0, 1.0], (0.0, 1.0))


def test_nan_field_underflows_instead_of_hanging():
    # a field NaN from the start makes the first step size NaN, which no
    # comparison with the smallest step catches unless NaN fails it; the child
    # process turns a regression into a timeout instead of a hung suite
    code = ("import math, numpy as np\n"
            "from anisokepler.integrate import StepSizeUnderflow, integrate\n"
            "try:\n"
            "    integrate(lambda t, y: np.array([math.nan]), [1.0], (0, 1))\n"
            "except StepSizeUnderflow as exc:\n"
            "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    # the message names the NaN, the time and the state
    assert proc.stdout.strip() == ("step size is NaN at t = 0.0, y = [1.0]: "
                                   "the field or the state is not finite there")


def test_package_import_loads_no_scipy_subpackage():
    # the runtime needs no scipy at all; the import loads neither scipy nor any
    # of its subpackages
    code = ("import sys, anisokepler.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


EPS = np.finfo(float).eps


def _tolerance(x):
    return 1e-12 + 4 * EPS * abs(x)


def _scipy_reference(field, y0, t_span, cfg, event_fn):
    """scipy's DOP853 stepped until ``event_fn`` changes sign, the crossing refined
    by scipy's brentq on the step's dense output and the samples ended with the
    dense output at the event time; to the end of the span if it never does.
    Returns the samples, the event times, the field calls and that step's dense
    output (None without an event)."""
    calls = [0]

    def counted(t, y):
        calls[0] += 1
        return field(t, y)

    solver = DOP853(counted, t_span[0], np.asarray(y0, float), t_span[1], rtol=cfg.rel_tol,
                    atol=cfg.abs_tol)
    times, states, events, dense = [t_span[0]], [np.asarray(y0, float)], [], None
    g_old = event_fn(t_span[0], states[0])
    while solver.status == "running":
        solver.step()
        assert solver.status != "failed"
        times.append(solver.t)
        states.append(solver.y.copy())
        g_new = event_fn(solver.t, solver.y)
        if g_old < 0.0 <= g_new or g_old > 0.0 >= g_new:
            dense = solver.dense_output()
            lo, hi = sorted((solver.t_old, solver.t))
            events.append(brentq(lambda t: event_fn(t, dense(t)), lo, hi,
                                 xtol=1e-12, rtol=4 * EPS))
            times[-1], states[-1] = events[-1], dense(events[-1])
            break
        g_old = g_new
    return np.array(times), np.array(states), events, calls[0], dense


def _assert_matches_scipy(traj, reference, event_fn):
    """Every accepted step and state is scipy's, bit for bit.  Where an event
    ends the run, the last sample is at the package's own event time t instead,
    with scipy's dense output there as its state: t lies within the tolerance
    1e-12 + 4 eps |t| of a sign change of the event on that dense output, and
    within twice the tolerance of scipy's brentq root."""
    times, states, events, _, dense = reference
    assert len(traj.events) == len(events)
    if not events:
        assert traj.times.tobytes() == times.tobytes()
        assert traj.states.tobytes() == states.tobytes()
        return
    (t_ev, _), = traj.events
    assert type(t_ev) is float
    assert traj.times[:-1].tobytes() == times[:-1].tobytes()
    assert traj.states[:-1].tobytes() == states[:-1].tobytes()
    assert traj.times[-1] == t_ev
    assert traj.states[-1].tobytes() == dense(t_ev).tobytes()
    tol = _tolerance(t_ev)
    assert abs(t_ev - events[0]) <= 2 * tol
    g = [event_fn(t, dense(t)) for t in (t_ev - tol, t_ev + tol)]
    assert min(g) <= 0.0 <= max(g)


def _forced_oscillator(t, y):
    return np.array([y[1], -y[0] + 0.3 * math.sin(t)])


FIELDS = {
    # a bound orbit of the regularized flow, r and u away from their limits
    "mcgehee": (mcgehee_rhs(Params(beta=3, mu=1.2, b=0.5, h=-0.25)), [0.8, -0.1, 0.4, 0.05]),
    # a weakly coupled Kepler ellipse in Cartesian coordinates
    "cartesian": (cartesian_rhs(Params(beta=3, mu=1.2, b=0.02)), [1.0, 0.0, 0.0, 1.1]),
    "forced": (_forced_oscillator, [1.0, 0.0]),
}


def test_tables_are_scipys_dop853_coefficients():
    c = dop853_coefficients
    # the weights of the eighth-order solution are the row of its stage, 12
    for ours, theirs in ((_A, c.A), (_A[12, :12], c.B), (_C, c.C), (_E3, c.E3), (_E5, c.E5),
                         (_D, c.D)):
        assert np.array_equal(ours, theirs)


class TestMatchesScipy:
    """The own DOP853 stepper reproduces scipy bitwise, and its event times meet
    the refinement's tolerance."""

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(FIELDS)),
           t0=st.floats(-3.0, 3.0),
           length=st.floats(0.5, 8.0),
           backward=st.booleans(),
           rel_exp=st.floats(-12.0, -4.0),
           abs_exp=st.floats(-14.0, -6.0),
           level=st.floats(-0.5, 0.5))
    def test_steps_states_field_calls_and_events(self, name, t0, length, backward,
                                                 rel_exp, abs_exp, level):
        field, y0 = FIELDS[name]
        cfg = IntegratorConfig(rel_tol=10.0 ** rel_exp, abs_tol=10.0 ** abs_exp)
        t_span = (t0, t0 - length if backward else t0 + length)

        def event_fn(t, y):
            return y[1] - level

        reference = _scipy_reference(field, y0, t_span, cfg, event_fn)
        n = [0]

        def counted(t, y):
            n[0] += 1
            return field(t, y)

        traj = integrate(counted, y0, t_span, cfg, events=[Event(event_fn, "level")])
        _assert_matches_scipy(traj, reference, event_fn)
        assert n[0] == reference[3]


@settings(max_examples=300, deadline=None)
@given(coef=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
       ends=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2, unique=True))
@example(coef=[0.0, 0.0, 1.0, 0.0], ends=[-1.0, 0.0])  # a zero at the right end
@example(coef=[0.0, 0.0, 1.0, 0.0], ends=[0.0, 1.0])  # a zero at the left end
@example(coef=[1.0, 0.0, 0.0, 0.0], ends=[-1.0, 2.0])  # x^3: a root of zero slope
@example(coef=[1e-110, 0.0, 0.0, -1e-111], ends=[0.0, 1.0])  # values near underflow
# near |x| = 1e12, where 4 eps |x| dominates the tolerance
@example(coef=[0.0, 0.0, 1.0, -1e12 - 0.3], ends=[1e12 - 5.0, 1e12 + 3.0])
# two adjacent doubles, a bracket the width rule ends at once
@example(coef=[0.0, 0.0, 2.0, -2.0 - 2.0 ** -52], ends=[1.0, 1.0 + 2.0 ** -52])
def test_bisection_on_cubic_brackets(coef, ends):
    """The returned x lies within the tolerance of a sign change of the cubic on
    the bracket; ends of the same sign raise."""
    def cubic(x):
        return ((coef[0] * x + coef[1]) * x + coef[2]) * x + coef[3]

    lo, hi = sorted(ends)
    f_lo, f_hi = cubic(lo), cubic(hi)
    if f_lo != 0 and f_hi != 0 and (f_lo < 0) == (f_hi < 0):
        with pytest.raises(ValueError, match="must have different signs"):
            _bisect(cubic, lo, hi)
        return
    x = _bisect(cubic, lo, hi)
    assert type(x) is float and lo <= x <= hi
    g = [cubic(max(lo, x - _tolerance(x))), cubic(x), cubic(min(hi, x + _tolerance(x)))]
    assert min(g) <= 0.0 <= max(g)


def test_bisection_ends_a_bracket_of_adjacent_doubles_without_halving():
    for lo in (1.0, -3.0, 1e12, 1e300, 2.0 ** -1070):
        hi = math.nextafter(lo, math.inf)
        calls = []

        def f(x):
            calls.append(x)
            return -1.0 if x == lo else 1.0

        assert _bisect(f, lo, hi) in (lo, hi)
        assert calls == [lo, hi]


def test_zero_slope_crossing_ends_the_run_at_its_root():
    # (y - 0.45)^3 crosses zero with zero slope; y = t, so the event is at 0.45
    traj = integrate(lambda t, y: np.ones(1), [0.0], (0.0, 5.0),
                     events=[Event(lambda t, y: (y[0] - 0.45) ** 3, "flat")])
    (t_ev, label), = traj.events
    assert label == "flat"
    assert abs(t_ev - 0.45) <= 1e-12
    assert abs(traj.final_state[0] - 0.45) <= 1e-12


# every closure the package hands to `integrate` one state at a time, with a
# start its flow keeps regular for 6 time units either way; the branch closure
# of `trace_manifold` takes theta as the time and psi as its one coordinate
CHART_CLOSURES = {
    "cartesian": (cartesian_rhs(Params(beta=3, mu=1.2, b=0.02)), [1.0, 0.0, 0.0, 1.1]),
    "mcgehee": (mcgehee_rhs(Params(beta=3, mu=1.2, b=0.5, h=-0.25)), [0.8, -0.1, 0.4, 0.05]),
    # a start on the I0 circle rho = 0, vbar^2 + ubar^2 = 2
    "infinity": (infinity_rhs(Params(beta=3, mu=1.4, b=0.5)),
                 [0.0, math.sqrt(2) * math.cos(1.0), 0.5, math.sqrt(2) * math.sin(1.0)]),
    "polar": (polar_rhs(Params(beta=2, mu=1.5, b=0.5)), [1.5, 0.3, 0.1, 1.5]),
    "torus": (torus_rhs(Params(beta=3, mu=1.2, b=0.5)), [-2.0, 0.9]),
    "branch": (_graph_rhs(Params(beta=2.25, mu=1.2, b=0.5)), [math.pi / 2]),
}


@pytest.mark.parametrize("t_final", [6.0, -6.0])
@pytest.mark.parametrize("name", CHART_CLOSURES)
def test_unwrapped_chart_closures_take_the_float_stages_and_match_scipy(name, t_final,
                                                                       monkeypatch):
    """A chart closure passed as it is carries the `on_floats` hook, and the
    stepper evaluates every stage of every attempt and of the dense output
    through it on Python floats: the same times, states and event as scipy and
    as the array path, which the closure takes inside a plain wrapper.  The
    event ends the run near |t| = 5, so the run covers most of the span and
    ends on the dense output."""
    rhs, y0 = CHART_CLOSURES[name]
    cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11)
    t_span = (0.0, t_final)

    def event_fn(t, y):
        return abs(t) - 5.0 + 0.1 * y[-1]

    reference = _scipy_reference(rhs, y0, t_span, cfg, event_fn)
    assert len(reference[2]) == 1 and abs(reference[0][-1]) > 4.0
    closure_calls = [0]
    on_floats = core._on_floats

    def counted_on_floats(field, y, p):
        closure_calls[0] += 1
        return on_floats(field, y, p)

    hook_calls = [0]
    hook = rhs.on_floats

    def counted_hook(t, ys):
        hook_calls[0] += 1
        return hook(t, ys)

    monkeypatch.setattr(core, "_on_floats", counted_on_floats)
    monkeypatch.setattr(torus, "_on_floats", counted_on_floats)
    monkeypatch.setattr(rhs, "on_floats", counted_hook)
    runs = {}
    for path, field in (("float", rhs), ("array", lambda t, y: rhs(t, y))):
        closure_calls[0] = 0
        runs[path] = (integrate(field, y0, t_span, cfg,
                                events=[Event(event_fn, "level")]), closure_calls[0])

    for traj, _ in runs.values():
        _assert_matches_scipy(traj, reference, event_fn)
    (_, float_calls), (_, array_calls) = runs["float"], runs["array"]
    # the float run calls the closure only at the start (twice), and the hook
    # at every other stage; the array run calls the closure at all of them
    assert float_calls == 2
    assert array_calls - 2 == hook_calls[0]


# (field, its path): each field of FIELDS as it is, on the float path where it
# carries the hook, and inside a plain wrapper, on the array path
LOCKSTEP = [(name, path) for name in sorted(FIELDS) for path in ("float", "array")
            if path == "array" or hasattr(FIELDS[name][0], "on_floats")]


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("name, path", LOCKSTEP)
def test_dense_output_matches_scipy_inside_every_step(name, path, backward):
    """Stepped in lockstep with scipy's DOP853 over a whole span, the stepper
    lands on scipy's bits at every step, and its dense output gives scipy's
    bits at 1/4, 1/2 and 3/4 of every step.  Each span takes rejected
    attempts, so the field value at the start of a step must outlast the
    attempts that overwrite the end point's."""
    rhs, y0 = FIELDS[name]
    field = rhs if path == "float" else (lambda t, y: rhs(t, y))
    cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11)
    t_bound = -8.0 if backward else 8.0
    ours = _DormandPrince(field, 0.0, np.array(y0, dtype=float), t_bound, cfg)
    theirs = DOP853(field, 0.0, np.array(y0, dtype=float), t_bound, rtol=cfg.rel_tol,
                    atol=cfg.abs_tol)
    points = steps = 0
    while theirs.status == "running":
        theirs.step()
        ours.step()
        steps += 1
        assert (ours.t, ours.y.tobytes()) == (theirs.t, theirs.y.tobytes())
        dense, reference = ours.dense_output(), theirs.dense_output()
        for x in (0.25, 0.5, 0.75):
            t = ours.t_old + x * (ours.t - ours.t_old)
            assert dense(t).tobytes() == reference(t).tobytes()
            points += 1
    assert theirs.status == "finished" and ours.finished
    assert points >= 30
    # scipy's nfev counts 2 start-up calls, 12 per attempt and 3 per dense output
    attempts, rest = divmod(theirs.nfev - 2 - 3 * steps, 12)
    assert rest == 0 and attempts > steps


def test_zero_field_takes_scipys_start_up_and_growth_branches():
    # a zero field gives zero norms: the start-up step h1 = max(1e-6, h0 1e-3),
    # a zero error norm and the largest growth factor at every step
    traj = integrate(lambda t, y: np.zeros(1), [1.0], (0.0, 1.0))
    solver = DOP853(lambda t, y: np.zeros(1), 0.0, np.array([1.0]), 1.0, rtol=1e-10,
                    atol=1e-12)
    times = [0.0]
    while solver.status == "running":
        solver.step()
        times.append(solver.t)
    assert traj.times.tobytes() == np.array(times).tobytes()
    assert len(times) - 1 == 7
    assert np.all(traj.states == 1.0)


# (factory, its parameters, a state): the six chart closures and the branch closure
CLOSURE_FACTORIES = {
    "cartesian": (cartesian_rhs, Params(beta=3, mu=1.2, b=0.5), [0.7, -0.4, 1.1, 0.3]),
    "mcgehee": (mcgehee_rhs, Params(beta=3, mu=1.2, b=0.5), [0.7, -0.4, 1.1, 0.3]),
    "beta2_mcgehee": (beta2_mcgehee_rhs, Params(beta=2, mu=1.2, b=0.5), [0.7, -0.4, 1.1, 0.3]),
    "infinity": (infinity_rhs, Params(beta=3, mu=1.2, b=0.5), [0.7, -0.4, 1.1, 0.3]),
    "polar": (polar_rhs, Params(beta=2, mu=1.2, b=0.5), [0.7, -0.4, 1.1, 0.3]),
    "torus": (torus_rhs, Params(beta=3, mu=1.2, b=0.5), [0.7, -0.4]),
    "branch": (_graph_rhs, Params(beta=3, mu=1.2, b=0.5), [1.1]),
}


@pytest.mark.parametrize("name", CLOSURE_FACTORIES)
def test_every_closure_integrated_one_state_at_a_time_carries_the_hook(name):
    """The six chart closures and the branch closure each carry ``on_floats``,
    which gives on a list of floats the values the closure gives on the array."""
    make, p, y = CLOSURE_FACTORIES[name]
    rhs = make(p)
    want = rhs(0.4, np.array(y))
    assert np.array(rhs.on_floats(0.4, y)).tobytes() == want.tobytes()


def test_every_field_the_package_integrates_carries_the_hook(monkeypatch, tmp_path):
    """Every field the CLI and `trace_manifold` hand to `integrate` carries the
    hook, so none of their runs takes the array path for its stages."""
    fields = []

    def recording(field, *args, **kwargs):
        fields.append(field)
        return integrate(field, *args, **kwargs)

    monkeypatch.setattr(cli, "integrate", recording)
    monkeypatch.setattr(torus, "integrate", recording)
    out = str(tmp_path / "out.csv")
    for argv in (["simulate", "--coords", "cartesian", "--b", "0.02", "--t-final", "1"],
                 ["simulate", "--t-final", "1"],
                 ["infinity-flow", "--orbits", "1", "--s-final", "2"],
                 ["beta2-verify", "--n-states", "1", "--n-orbits", "1", "--tau", "1"],
                 ["collision-flow", "--grid", "1"],
                 ["splitting", "--eps-list", "1e-3"]):
        assert cli.main([*argv, "--out", out]) == cli.EXIT_OK
    modules = {field.__module__ for field in fields}
    assert modules == {"anisokepler.core", "anisokepler.mcgehee", "anisokepler.infinity",
                       "anisokepler.beta2", "anisokepler.torus"}
    assert all(callable(getattr(field, "on_floats", None)) for field in fields)
