"""Shared integrator."""

import math

import numpy as np
import pytest

from anisokepler.integrate import (
    Event,
    ForbiddenRegion,
    IntegratorConfig,
    MaxStepsExceeded,
    integrate,
)


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
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        integrate(harmonic, [1.0, 0.0], (1.0, 1.0))
    for bad in ((0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError):
            integrate(harmonic, [1.0, 0.0], bad)

