"""Workload inputs, the tasks of one pass, and the checks on their outputs.

A workload is a list of tasks that one caller runs one after another (a closed
loop, one task in flight). Every input is generated from the benchmark seed;
the package receives only the generated values. `orbits` and `basin` tasks
call the public API in this process; `cli` tasks are commands, each run in a
fresh interpreter by `run.py`.

Checks run outside the timed region. Each returns a list of `Check` records;
a check whose `limit`/`error` pair comes from an acceptance-gate tolerance
also yields a margin, log10(limit / error) in decades, which feeds the
`tol_margin_dec` metric.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from anisokepler import integrate
from anisokepler.beta2 import (
    PolarState,
    beta2_energy_residual,
    beta2_mcgehee_rhs,
    classify_heteroclinic,
    integral_G,
    polar_hamiltonian,
    polar_rhs,
)
from anisokepler.core import CartesianState, Params, cartesian_rhs, hamiltonian
from anisokepler.infinity import SQRT2, InfinityState, i0_flow_closed_form, infinity_rhs, limit_circle
from anisokepler.integrate import Event, IntegratorConfig
from anisokepler.mcgehee import BasinBox, McGeheeState, basin_fraction, delta, energy_residual, mcgehee_rhs
from anisokepler.torus import comparison_section, splitting_gap, zeta1

# acceptance-gate integrator settings (tests/test_acceptance.py)
TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
HETEROCLINIC_CFG = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
DEFAULT_CFG = IntegratorConfig()

# acceptance-gate tolerances
DRIFT_TOL = 1e-8          # H2 / G drift, I0 line and vbar residuals (criteria 5, 6)
SLOPE_REL_TOL = 0.05      # splitting slope against 2 zeta1 (criterion 4)
V_LIMIT_TOL = 1e-3        # heteroclinic limit velocity (criterion 7)
QUAD_TOL = 1e-6           # I2 quadrature against the closed form (criterion 8)
BASIN_MISS_TOL = 0.1      # criterion 9: fraction > 0.9
# The Cartesian and McGehee energy monitors have no gate tolerance; this bound
# catches a broken field or stepper, not a lost digit, and yields no margin.
SANITY_DRIFT = 1e-6
# A margin cannot exceed the digits a double carries.
MAX_MARGIN_DEC = 16.0

SPLIT_EPS = (0.0, 1e-3, 2e-3, 4e-3)
BASIN_N = 10_000
BASIN_SWEEP_N = 1_000
BASIN_SWEEP_MU = (1.05, 1.2, 1.5, 2.0, 3.0)
BASIN_HORIZON = 40.0
CLI_BASIN_N = 1_000
CLI_SEEDS = 4  # cli commands take --seed (benchmark seed mod 4); cli_reference.json covers each


@dataclass
class Task:
    """One call into the package: `layer` names the module it exercises."""

    layer: str
    name: str
    run: Callable[[], object]
    samples: int = 1  # Monte-Carlo samples decided (basin) or 1


@dataclass
class Check:
    name: str
    ok: bool
    limit: float | None = None  # gate tolerance the error is held to
    error: float | None = None

    @property
    def margin(self) -> float | None:
        if self.limit is None or self.error is None or not math.isfinite(self.error):
            return None
        return min(math.log10(self.limit / max(self.error, 1e-300)), MAX_MARGIN_DEC)


def gated(name: str, error: float, limit: float) -> Check:
    return Check(name, bool(error <= limit), limit, float(error))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# --- orbits: single trajectories through integrate() ---

def _i0_tasks(seed: int) -> list[Task]:
    p = Params(3.0, 1.4, 0.5, h=0.0)
    rng = _rng(seed, 1)
    tasks = []
    for i in range(20):
        th0 = float(rng.uniform(0, 2 * math.pi))
        ps0 = float(rng.uniform(0.3, math.pi - 0.3))
        s0 = InfinityState(0.0, SQRT2 * math.cos(ps0), th0, SQRT2 * math.sin(ps0)).as_array()
        for t1 in (40.0, -40.0):
            def run(s0=s0, t1=t1, th0=th0, ps0=ps0):
                traj = integrate(infinity_rhs(p), s0, (0.0, t1), TIGHT)
                return traj, i0_flow_closed_form(th0, ps0), t1
            tasks.append(Task("infinity", f"i0-{i}{'+' if t1 > 0 else '-'}", run))
    return tasks


def _polar_tasks(seed: int) -> list[Task]:
    p = Params(2.0, 1.5, 0.5)
    rng = _rng(seed, 2)
    monitors = {"H2": lambda t, y: polar_hamiltonian(PolarState(*y), p),
                "G": lambda t, y: integral_G(PolarState(*y), p)}
    tasks = []
    for i in range(20):
        s0 = PolarState(float(rng.uniform(1.0, 2.5)), float(rng.uniform(0, 2 * math.pi)),
                        float(rng.uniform(-0.2, 0.2)), float(rng.uniform(1.3, 1.8))).as_array()
        tasks.append(Task("beta2", f"polar-{i}",
                          lambda s0=s0: integrate(polar_rhs(p), s0, (0.0, 10.0), TIGHT,
                                                  monitors=monitors)))
    return tasks


def _heteroclinic_tasks() -> list[Task]:
    """The three short backward flows of criterion 7 (its long equator leg is left out)."""
    p = Params(2.0, 2.0, 0.5, h=0.0)
    vb0 = 1.5
    hit = Event(lambda t, y: y[0] - 1e-6, "collision", terminal=True)
    tasks = []
    for k, th0 in ((1.0 / (2 * p.b), math.pi / 2), (p.mu / (2 * p.b), 0.9), (3.5, 0.9)):
        rho0 = k * (vb0 ** 2 - 2)
        cls = classify_heteroclinic(rho0, vb0, p)
        ub2 = max(2 + 2 * p.b * rho0 / delta(th0, p.mu) - vb0 ** 2, 0.0)
        m0 = McGeheeState(1 / rho0, vb0 / math.sqrt(rho0), th0, math.sqrt(ub2) / math.sqrt(rho0))
        if abs(beta2_energy_residual(m0, p)) >= 1e-9:
            raise ValueError("heteroclinic start is off the energy level")
        s0 = m0.as_array()
        tasks.append(Task("beta2", f"heteroclinic-{cls.target.name.lower()}",
                          lambda s0=s0, v=cls.v_limit: (
                              integrate(beta2_mcgehee_rhs(p), s0, (0.0, -200.0),
                                        HETEROCLINIC_CFG, events=[hit]), v)))
    return tasks


def _mcgehee_tasks(seed: int) -> list[Task]:
    """Bound (h < 0) orbits of the regularized flow near collision, level from the state."""
    beta, mu, b = 3.0, 1.2, 0.5
    probe = Params(beta, mu, b)
    rng = _rng(seed, 3)
    tasks = []
    for i in range(20):
        r = float(rng.uniform(0.3, 1.0))
        th = float(rng.uniform(0, 2 * math.pi))
        frac = float(rng.uniform(0.2, 0.8))
        phi = float(rng.uniform(0, 2 * math.pi))
        speed = math.sqrt(frac * (2 * r ** (beta - 1) + 2 * b / delta(th, mu) ** (beta / 2)))
        m0 = McGeheeState(r, speed * math.cos(phi), th, speed * math.sin(phi))
        p = Params(beta, mu, b, h=energy_residual(m0, probe) / (2 * r ** beta))
        mon = {"energy_relation": lambda t, y, p=p: energy_residual(McGeheeState(*y), p)}
        tasks.append(Task("mcgehee", f"mcgehee-{i}",
                          lambda s0=m0.as_array(), p=p, mon=mon: integrate(
                              mcgehee_rhs(p), s0, (0.0, 20.0), DEFAULT_CFG, monitors=mon)))
    return tasks


def _cartesian_tasks(seed: int) -> list[Task]:
    """Weak-coupling (b = 0.02) near-Kepler orbits in the unregularized chart."""
    p = Params(3.0, 1.2, 0.02)
    rng = _rng(seed, 4)
    mon = {"energy": lambda t, y: hamiltonian(CartesianState(*y), p)}
    tasks = []
    for i in range(10):
        r0 = float(rng.uniform(0.8, 1.5))
        ph = float(rng.uniform(0, 2 * math.pi))
        vt = math.sqrt(1.0 / r0) * float(rng.uniform(0.85, 1.1))
        vr = float(rng.uniform(-0.1, 0.1))
        s0 = CartesianState(r0 * math.cos(ph), r0 * math.sin(ph),
                            vr * math.cos(ph) - vt * math.sin(ph),
                            vr * math.sin(ph) + vt * math.cos(ph)).as_array()
        tasks.append(Task("core", f"cartesian-{i}",
                          lambda s0=s0: integrate(cartesian_rhs(p), s0, (0.0, 20.0),
                                                  DEFAULT_CFG, monitors=mon)))
    return tasks


def _splitting_tasks() -> list[Task]:
    tasks = []
    for beta in (3, 4):
        for eps in SPLIT_EPS:
            p = Params(float(beta), 1.0 + eps, 0.5)
            tasks.append(Task("torus", f"splitting-{beta}-{eps:g}",
                              lambda beta=beta, p=p: splitting_gap(beta, p, TIGHT)))
    return tasks


def orbits_tasks(seed: int) -> list[Task]:
    return (_splitting_tasks() + _i0_tasks(seed) + _polar_tasks(seed) + _heteroclinic_tasks()
            + _mcgehee_tasks(seed) + _cartesian_tasks(seed))


def _splitting_slope(beta: int, gaps: list[float], name: str) -> Check:
    """Criterion 4: the gap over SPLIT_EPS grows with slope 2 zeta1, to 5%."""
    eps = np.array(SPLIT_EPS[1:])
    slope = float(np.dot(eps, gaps[1:]) / np.dot(eps, eps))
    predicted = 2.0 * zeta1(beta, comparison_section(beta))
    return gated(name, abs(slope - predicted) / predicted, SLOPE_REL_TOL)


def _i0_residuals(traj, curve) -> tuple[float, float]:
    vb, th, ub = traj.states[:, 1], traj.states[:, 2], traj.states[:, 3]
    psi = np.unwrap(np.arctan2(ub / SQRT2, vb / SQRT2))
    return (float(np.max(np.abs(th - curve.theta_of_psi(psi)))),
            float(np.max(np.abs(vb - curve.vbar_of_theta(th)))))


def check_orbits(tasks: list[Task], outputs: list) -> list[Check]:
    checks: list[Check] = []
    split: dict[int, list[float]] = {3: [], 4: []}
    for task, out in zip(tasks, outputs):
        if out is None:
            continue
        if task.layer == "torus":
            split[int(task.name.split("-")[1])].append(out[0])
        elif task.layer == "infinity":
            traj, curve, t1 = out
            want = "+" if t1 > 0 else "-"
            checks.append(Check(f"{task.name}-limit",
                                limit_circle(np.abs(traj.times), traj.states) == want))
            line, vbar = _i0_residuals(traj, curve)
            checks.append(gated(f"{task.name}-line", line, DRIFT_TOL))
            checks.append(gated(f"{task.name}-vbar", vbar, DRIFT_TOL))
        elif task.name.startswith("polar"):
            for k in ("H2", "G"):
                checks.append(gated(f"{task.name}-{k}", out.invariant_drift[k], DRIFT_TOL))
        elif task.name.startswith("heteroclinic"):
            traj, v_limit = out
            checks.append(Check(f"{task.name}-collision", bool(traj.event_times("collision"))))
            checks.append(gated(f"{task.name}-v", abs(traj.final_state[1] - v_limit), V_LIMIT_TOL))
        else:  # mcgehee, core: one energy monitor each
            (drift,) = out.invariant_drift.values()
            checks.append(Check(f"{task.name}-energy", bool(drift <= SANITY_DRIFT)))
    for beta, gaps in split.items():
        if len(gaps) == len(SPLIT_EPS):
            checks.append(gated(f"splitting-{beta}-connected", gaps[0],
                                10 * max(TIGHT.rel_tol, TIGHT.abs_tol)))
            checks.append(_splitting_slope(beta, gaps, f"splitting-{beta}-slope"))
    return checks


# --- basin: batched Monte-Carlo ensembles ---

def basin_tasks(seed: int) -> list[Task]:
    """One criterion-9 ensemble (10^4 samples) and a mu sweep of 10^3-sample ensembles,
    all at the paper's operating point (beta = 3, b = 0.5, h = -0.25) near the sink."""
    seeds = [int(s) for s in _rng(seed, 5).integers(0, 2 ** 31, 1 + len(BASIN_SWEEP_MU))]
    tasks = []
    for mu, n, s in zip((1.2,) + BASIN_SWEEP_MU, (BASIN_N,) + (BASIN_SWEEP_N,) * len(BASIN_SWEEP_MU),
                        seeds):
        p = Params(3.0, mu, 0.5, h=-0.25)
        box = BasinBox.near_sink(p)
        name = "criterion9" if n == BASIN_N else f"sweep-mu{mu:g}"
        tasks.append(Task("mcgehee", name,
                          lambda p=p, n=n, box=box, s=s: basin_fraction(
                              p, n, BASIN_HORIZON, box=box, seed=s), samples=n))
    return tasks


def basin_margin(name: str, frac: float, n: int) -> Check:
    """Criterion 9 as an error bound: the missed share 1 - frac must stay below 0.1.
    A Monte-Carlo share is resolved to 1/n, so no miss reads as an error of 1/n."""
    return gated(name, max(1.0 - frac, 1.0 / n), BASIN_MISS_TOL)


def check_basin(tasks: list[Task], outputs: list) -> list[Check]:
    checks = []
    for task, frac in zip(tasks, outputs):
        if frac is None:
            continue
        if task.name == "criterion9":
            checks.append(basin_margin("criterion9-fraction", frac, task.samples))
        else:
            checks.append(Check(f"{task.name}-range", 0.0 <= frac <= 1.0))
    return checks


# --- cli: every command at its README or default size ---

def cli_commands(seed: int) -> list[tuple[str, list[str]]]:
    """(name, argv) per command; the seeded commands get --seed (seed mod CLI_SEEDS)."""
    s = str(seed % CLI_SEEDS)
    return [
        ("equilibria", ["equilibria", "--beta", "3", "--mu", "1.05", "--b", "0.5"]),
        ("melnikov", ["melnikov", "--beta-grid", "1.6:5:0.01", "--p", "1"]),
        ("collision-flow", ["collision-flow", "--beta", "3", "--mu", "1", "--b", "0.5"]),
        ("infinity-flow", ["infinity-flow", "--seed", s]),
        ("splitting", ["splitting"]),
        ("beta2-verify", ["beta2-verify", "--seed", s]),
        ("simulate", ["simulate"]),
        ("basin", ["basin", "--n", str(CLI_BASIN_N), "--seed", s]),
    ]


def read_csv_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as f:
        return [row for row in csv.reader(line for line in f if not line.startswith("#"))]


def _all_finite(rows: list[list[str]]) -> bool:
    for row in rows:
        for x in row:
            try:
                if not math.isfinite(float(x)):
                    return False
            except ValueError:
                pass
    return True


def check_cli_output(name: str, rows: list[list[str]]) -> list[Check]:
    """Checks on one command's CSV data rows (metadata lines already dropped)."""
    checks = [Check(f"{name}-rows", bool(rows)), Check(f"{name}-finite", _all_finite(rows))]
    if not rows:
        return checks
    if name == "equilibria":
        kinds = [r[9] for r in rows]
        checks.append(Check("equilibria-4-2-2",
                            kinds.count("saddle") == 4
                            and sum(k in ("source", "spiral-source") for k in kinds) == 2
                            and sum(k in ("sink", "spiral-sink") for k in kinds) == 2))
    elif name == "melnikov":
        beta = np.array([float(r[0]) for r in rows])
        quad = np.array([float(r[1]) for r in rows])
        closed = np.array([float(r[2]) for r in rows])
        ratio = np.array([float(r[3]) for r in rows])
        zeros_ok = all(min(abs(z - 2.0), abs(z - 3.0)) < 1e-9 for z in beta[ratio == 0.0])
        signs = np.sign(ratio[ratio != 0.0])
        pattern = (np.count_nonzero(signs[:-1] * signs[1:] < 0) == 2
                   and np.all(ratio[beta <= 1.99] > 0)
                   and np.all(ratio[(beta >= 2.01) & (beta <= 2.99)] < 0)
                   and np.all(ratio[beta >= 3.01] > 0))
        checks.append(Check("melnikov-sign-pattern", bool(zeros_ok and pattern)))
        rel = np.abs(quad - closed) / np.maximum(1.0, np.abs(closed))
        checks.append(gated("melnikov-quadrature", float(np.max(rel)), QUAD_TOL))
    elif name == "collision-flow":
        branch = [r for r in rows if r[0] == "branch-unstable"]
        checks.append(Check("collision-flow-branch",
                            bool(branch) and abs(float(branch[-1][1]) - comparison_section(3)) < 1e-9))
    elif name == "infinity-flow":
        checks.append(gated("infinity-flow-line", max(abs(float(r[8])) for r in rows), DRIFT_TOL))
        checks.append(gated("infinity-flow-vbar", max(abs(float(r[9])) for r in rows), DRIFT_TOL))
    elif name == "splitting":
        gaps = [float(r[4]) for r in rows]
        verdicts = [r[7] for r in rows]
        checks.append(_splitting_slope(int(rows[0][0]), gaps, "splitting-slope"))
        checks.append(Check("splitting-verdicts", verdicts[0] == "connected-within-tolerance"
                            and all(v == "broken" for v in verdicts[1:])))
    elif name == "beta2-verify":
        for check, value, threshold, status in rows:
            checks.append(Check(f"beta2-verify-{check}-status", status == "pass"))
            checks.append(gated(f"beta2-verify-{check}", float(value), float(threshold)))
    elif name == "basin":
        n, _, _, frac = rows[0]
        checks.append(basin_margin("basin-fraction", float(frac), int(n)))
    return checks


def build(workload: str, seed: int):
    """The inputs of one pass: tasks for `orbits` and `basin`, (name, argv) for `cli`."""
    if workload == "orbits":
        return orbits_tasks(seed)
    if workload == "basin":
        return basin_tasks(seed)
    import anisokepler.cli  # noqa: F401  (what a command's start-up imports)
    return cli_commands(seed)
