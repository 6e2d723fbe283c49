"""Adaptive Runge-Kutta integration with event location and invariant monitoring.

The driver wraps scipy's Dormand-Prince 5(4) stepper and adds the bookkeeping
the rest of the package relies on: a hard step-count limit, a caller-declared
forbidden region (so singular states surface as a domain error instead of NaN
propagation), event detection with root refinement on the dense output, and
per-step drift tracking for first integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.integrate import RK45
from scipy.optimize import brentq

__all__ = [
    "IntegrationError",
    "MaxStepsExceeded",
    "StepSizeUnderflow",
    "ForbiddenRegion",
    "EventRootError",
    "IntegratorConfig",
    "Event",
    "Trajectory",
    "integrate",
]

_EVENT_TIME_TOL = 1e-12


class IntegrationError(RuntimeError):
    """Base class for integration failures."""


class MaxStepsExceeded(IntegrationError):
    pass


class StepSizeUnderflow(IntegrationError):
    """Raised when the stepper stalls (stiffness or an unguarded singularity)."""


class ForbiddenRegion(IntegrationError):
    """Raised when the solution enters a caller-declared forbidden region."""


class EventRootError(IntegrationError):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not (self.max_step > 0 and self.max_steps > 0):
            raise ValueError("max_step and max_steps must be positive")


@dataclass(frozen=True)
class Event:
    """Scalar event function g(t, y); a root of g along the solution fires the event.

    direction: 0 fires on any sign change, +1 only when g increases through 0,
    -1 only when it decreases. A terminal event truncates the trajectory at the
    refined event time.
    """

    fn: Callable[[float, np.ndarray], float]
    label: str
    terminal: bool = False
    direction: int = 0


@dataclass
class Trajectory:
    """Accepted-step samples, located events, and max drift per monitored invariant."""

    times: np.ndarray
    states: np.ndarray
    events: list[tuple[float, str]] = field(default_factory=list)
    invariant_drift: dict[str, float] = field(default_factory=dict)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def event_times(self, label: str) -> list[float]:
        return [t for t, lab in self.events if lab == label]


def _crossed(g_old: float, g_new: float, direction: int) -> bool:
    if direction >= 0 and g_old < 0.0 <= g_new:
        return True
    if direction <= 0 and g_old > 0.0 >= g_new:
        return True
    return False


def integrate(
    field: Callable[[float, np.ndarray], np.ndarray],
    s0: Sequence[float],
    t_span: tuple[float, float],
    cfg: IntegratorConfig | None = None,
    events: Sequence[Event] = (),
    monitors: Mapping[str, Callable[[float, np.ndarray], float]] | None = None,
    forbidden: Callable[[float, np.ndarray], bool] | None = None,
) -> Trajectory:
    """Integrate ``y' = field(t, y)`` over ``t_span`` with an embedded 5(4) pair.

    Event times are refined on the dense output to 1e-12 in time.  Monitors are
    evaluated at every accepted step; the trajectory reports the maximum
    absolute deviation of each from its initial value.  Either time direction
    is allowed; samples are strictly monotone in the direction of integration.
    """
    cfg = cfg or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got ({t0}, {t1})")
    if t0 == t1:
        raise ValueError("degenerate t_span")
    y0 = np.asarray(s0, dtype=float)
    if forbidden is not None and forbidden(t0, y0):
        raise ForbiddenRegion(f"initial state lies in the forbidden region at t={t0}")

    solver = RK45(field, t0, y0, t_bound=t1, rtol=cfg.rel_tol, atol=cfg.abs_tol,
                  max_step=cfg.max_step)

    monitors = dict(monitors or {})
    mon_ref = {k: f(t0, y0) for k, f in monitors.items()}
    drift = {k: 0.0 for k in monitors}

    times = [t0]
    states = [y0.copy()]
    fired: list[tuple[float, str]] = []
    g_old = [ev.fn(t0, y0) for ev in events]

    n_steps = 0
    while solver.status == "running":
        n_steps += 1
        if n_steps > cfg.max_steps:
            raise MaxStepsExceeded(f"exceeded {cfg.max_steps} steps at t={solver.t}")
        msg = solver.step()
        if solver.status == "failed":
            raise StepSizeUnderflow(msg or "step size underflow")

        t_new, y_new = solver.t, solver.y
        if forbidden is not None and forbidden(t_new, y_new):
            raise ForbiddenRegion(f"state entered the forbidden region at t={t_new}")

        dense = solver.dense_output() if events else None
        t_old = times[-1]
        step_events: list[tuple[float, int]] = []
        for i, ev in enumerate(events):
            g_new = ev.fn(t_new, y_new)
            if _crossed(g_old[i], g_new, ev.direction):
                lo, hi = (t_old, t_new) if t_old < t_new else (t_new, t_old)
                try:
                    t_ev = brentq(lambda t: events[i].fn(t, dense(t)), lo, hi,
                                  xtol=_EVENT_TIME_TOL, rtol=4 * np.finfo(float).eps)
                except ValueError as exc:  # pragma: no cover - bracket guaranteed
                    raise EventRootError(f"event '{ev.label}' root refinement failed") from exc
                step_events.append((t_ev, i))
            g_old[i] = g_new

        direction = 1.0 if t1 > t0 else -1.0
        step_events.sort(key=lambda te: direction * te[0])
        terminal_at: float | None = None
        for t_ev, i in step_events:
            if terminal_at is not None and direction * t_ev > direction * terminal_at:
                break
            fired.append((t_ev, events[i].label))
            if events[i].terminal and terminal_at is None:
                terminal_at = t_ev

        if terminal_at is not None:
            y_end = dense(terminal_at)
            times.append(terminal_at)
            states.append(y_end)
            for k, f in monitors.items():
                drift[k] = max(drift[k], abs(f(terminal_at, y_end) - mon_ref[k]))
            break

        times.append(t_new)
        states.append(y_new.copy())
        for k, f in monitors.items():
            drift[k] = max(drift[k], abs(f(t_new, y_new) - mon_ref[k]))

    fired.sort(key=lambda te: te[0])
    return Trajectory(np.array(times), np.array(states), fired, drift)
