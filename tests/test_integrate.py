"""Shared integrator."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import RK45
from scipy.optimize import brentq

from anisokepler.core import Params, cartesian_rhs
from anisokepler.integrate import (
    Event,
    ForbiddenRegion,
    IntegratorConfig,
    MaxStepsExceeded,
    StepSizeUnderflow,
    _brentq,
    integrate,
)
from anisokepler.mcgehee import mcgehee_rhs


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
    errs = []
    for rtol in (1e-6, 5e-7):
        cfg = IntegratorConfig(rel_tol=rtol, abs_tol=1e-14)
        traj = integrate(harmonic, [1.0, 0.0], (0.0, 2 * math.pi), cfg)
        errs.append(np.linalg.norm(traj.final_state - [1.0, 0.0]))
    assert errs[1] <= errs[0] / 2.0


def test_event_located_and_terminal():
    # x(t) = sin(t) crosses 0.5 rising at t = pi/6
    ev = Event(lambda t, y: y[0] - 0.5, "half", terminal=True, direction=1)
    traj = integrate(harmonic, [0.0, 1.0], (0.0, 10.0), events=[ev])
    assert len(traj.events) == 1
    t_ev, label = traj.events[0]
    assert label == "half"
    assert abs(t_ev - math.pi / 6) < 1e-10
    assert abs(traj.times[-1] - t_ev) == 0.0


def test_collision_event_fires_exactly_once():
    # radial infall in regularized coordinates: r decreases through the
    # collision threshold exactly once
    from anisokepler.core import Params
    from anisokepler.mcgehee import McGeheeState, delta, mcgehee_rhs

    p = Params(beta=3, mu=1.2, b=0.5, h=-0.25)
    th = 1.0
    v0 = -math.sqrt(2 * 0.5 ** 2 + 2 * p.b / delta(th, p.mu) ** 1.5 + 2 * p.h * 0.5 ** 3)
    m0 = McGeheeState(0.5, v0, th, 0.0)
    ev = Event(lambda t, y: y[0] - 1e-6, "collision", terminal=True, direction=-1)
    traj = integrate(mcgehee_rhs(p), m0.as_array(), (0.0, 50.0), events=[ev])
    assert len(traj.event_times("collision")) == 1
    assert traj.final_state[0] == pytest.approx(1e-6, rel=1e-6)
    assert np.all(np.diff(traj.states[:, 0]) < 0)


def test_event_direction_filter():
    # falling-only event never fires on the rising crossing of the first quarter period
    ev = Event(lambda t, y: y[0] - 0.5, "falling", direction=-1)
    traj = integrate(harmonic, [0.0, 1.0], (0.0, 1.0), events=[ev])
    assert traj.events == []


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


def test_forbidden_region_guard():
    with pytest.raises(ForbiddenRegion):
        integrate(lambda t, y: np.array([-1.0]), [1.0], (0.0, 10.0),
                  forbidden=lambda t, y: y[0] < 0.0)


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
    # the start-up probe sees f0 = 0 and a NaN slope; scipy's RK45 continues to
    # the same step-size underflow instead of dividing by zero
    def field(t, y):
        return np.zeros(2) if t == 0.0 else np.full(2, np.nan)

    with pytest.raises(StepSizeUnderflow):
        integrate(field, [1.0, 1.0], (0.0, 1.0))


def test_package_import_loads_no_scipy_subpackage():
    code = ("import sys, anisokepler.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special', "
            "'scipy.linalg') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


EPS = np.finfo(float).eps


def _scipy_reference(field, y0, t_span, cfg, event_fn, terminal):
    """scipy's RK45 stepped to the end, with sign changes of ``event_fn`` refined
    by scipy's brentq on the step's dense output; a terminal event ends the
    samples with the dense output at the event time."""
    calls = [0]

    def counted(t, y):
        calls[0] += 1
        return field(t, y)

    solver = RK45(counted, t_span[0], np.asarray(y0, float), t_span[1], rtol=cfg.rel_tol,
                  atol=cfg.abs_tol, max_step=cfg.max_step)
    times, states, events = [t_span[0]], [np.asarray(y0, float)], []
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
            if terminal:
                times[-1], states[-1] = events[-1], dense(events[-1])
                break
        g_old = g_new
    return np.array(times), np.array(states), sorted(events), calls[0]


def _forced_oscillator(t, y):
    return np.array([y[1], -y[0] + 0.3 * math.sin(t)])


FIELDS = {
    # a bound orbit of the regularized flow, r and u away from their limits
    "mcgehee": (mcgehee_rhs(Params(beta=3, mu=1.2, b=0.5, h=-0.25)), [0.8, -0.1, 0.4, 0.05]),
    # a weakly coupled Kepler ellipse in Cartesian coordinates
    "cartesian": (cartesian_rhs(Params(beta=3, mu=1.2, b=0.02)), [1.0, 0.0, 0.0, 1.1]),
    "forced": (_forced_oscillator, [1.0, 0.0]),
}


class TestMatchesScipy:
    """The own Dormand-Prince stepper and Brent refinement reproduce scipy bitwise."""

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(FIELDS)),
           t0=st.floats(-3.0, 3.0),
           length=st.floats(0.5, 8.0),
           backward=st.booleans(),
           max_step=st.sampled_from([math.inf, 0.7, 0.05]),
           rel_exp=st.floats(-12.0, -4.0),
           abs_exp=st.floats(-14.0, -6.0),
           level=st.floats(-0.5, 0.5),
           terminal=st.booleans())
    def test_steps_states_field_calls_and_events(self, name, t0, length, backward, max_step,
                                                 rel_exp, abs_exp, level, terminal):
        field, y0 = FIELDS[name]
        cfg = IntegratorConfig(rel_tol=10.0 ** rel_exp, abs_tol=10.0 ** abs_exp,
                               max_step=max_step)
        t_span = (t0, t0 - length if backward else t0 + length)

        def event_fn(t, y):
            return y[1] - level

        times, states, events, calls = _scipy_reference(field, y0, t_span, cfg, event_fn,
                                                        terminal)
        n = [0]

        def counted(t, y):
            n[0] += 1
            return field(t, y)

        traj = integrate(counted, y0, t_span, cfg,
                         events=[Event(event_fn, "level", terminal=terminal)])
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)
        assert n[0] == calls
        assert [t for t, _ in traj.events] == events
        assert all(type(t) is float for t, _ in traj.events)

    @settings(max_examples=300, deadline=None)
    @given(coef=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
           ends=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2, unique=True))
    def test_brent_on_cubic_brackets(self, coef, ends):
        def cubic(x):
            return ((coef[0] * x + coef[1]) * x + coef[2]) * x + coef[3]

        def outcome(solve):
            try:
                root = solve(cubic, *sorted(ends))
            except ValueError:
                return "no sign change"
            except RuntimeError:
                return "no convergence"
            assert type(root) is float
            return root

        assert outcome(_brentq) == outcome(
            lambda f, a, b: brentq(f, a, b, xtol=1e-12, rtol=4 * EPS))
