"""Command-line front end: runs each analysis and writes CSV data files.

Output format: UTF-8 CSV with '#'-prefixed metadata lines (config echo and a
`columns:` line), '.' decimal separator and 17 significant digits, suitable for
any external plotting tool.  Every run also writes `<out>.manifest.json` with
the config echo, package versions and an invariant-drift summary, so a given
(config, seed) pair reproduces its output byte for byte.

Exit codes: 0 success, 2 validation failure, 3 numerical failure.  Failures
print a machine-readable JSON error record to stderr.

A flat key = value config file can preload any option of a subcommand
(including `command` itself); explicit command-line flags override it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__
from .core import CartesianState, Params, hamiltonian, cartesian_rhs
from .integrate import IntegrationError, IntegratorConfig, integrate
from .mcgehee import (
    BasinBox,
    McGeheeState,
    basin_fraction,
    energy_residual,
    equilibria,
    mcgehee_rhs,
)
from .torus import (
    TorusState,
    splitting_gap,
    splitting_verdict,
    torus_rhs,
    trace_manifold,
    zeta1,
    comparison_section,
)
from .infinity import SQRT2, InfinityState, i0_flow_closed_form, infinity_rhs
from .beta2 import (
    PolarState,
    beta2_energy_residual,
    beta2_g,
    beta2_mcgehee_rhs,
    integral_G,
    poisson_bracket_H2_G,
    polar_hamiltonian,
    polar_rhs,
)
from .melnikov import i2_amplitude, i2_closed_form, i2_quadrature

COMMANDS = ("simulate", "equilibria", "collision-flow", "infinity-flow",
            "splitting", "beta2-verify", "melnikov", "basin")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class ValidationError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    """One CLI run: the command, its options, the output path and the seed."""

    command: str
    options: dict
    out: str
    seed: int = 0
    drift: dict = field(default_factory=dict)  # filled during the run


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = [t for t in text.replace(";", ",").split(",") if t.strip()]
    if len(parts) != n:
        raise ValidationError(f"{what} needs {n} comma-separated values, got {len(parts)}")
    return [float(t) for t in parts]


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, step = (float(t) for t in text.split(":"))
    except ValueError as exc:
        raise ValidationError(f"grid must be start:stop:step, got {text!r}") from exc
    if step <= 0 or stop < start:
        raise ValidationError("grid requires step > 0 and stop >= start")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


def _count_from(opts: dict, key: str, default: int) -> int:
    n = int(opts.get(key, default))
    if n < 1:
        raise ValidationError(f"--{key.replace('_', '-')} must be at least 1, got {n}")
    return n


def _params_from(opts: dict, h_default: float = 0.0) -> Params:
    try:
        return Params(beta=float(opts["beta"]), mu=float(opts["mu"]),
                      b=float(opts["b"]), h=float(opts.get("h", h_default)))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _integrator_from(opts: dict) -> IntegratorConfig:
    return IntegratorConfig(rel_tol=float(opts.get("rtol", 1e-10)),
                            abs_tol=float(opts.get("atol", 1e-12)),
                            max_steps=int(opts.get("max_steps", 1_000_000)))


def write_csv(path: str, meta: dict, columns: list[str], rows) -> None:
    lines = [f"# {k} = {v}" for k, v in meta.items()]
    lines.append("# columns: " + ",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_manifest(cfg: ScenarioConfig) -> str:
    manifest = {
        "command": cfg.command,
        "config": {k: v for k, v in sorted(cfg.options.items())},
        "seed": cfg.seed,
        "out": cfg.out,
        "versions": {
            "anisokepler": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
            "scipy": scipy.__version__,
        },
        "invariant_drift": {k: _fmt(v) for k, v in sorted(cfg.drift.items())},
    }
    path = cfg.out + ".manifest.json"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


# --- command implementations ---

def _run_simulate(cfg: ScenarioConfig):
    opts = cfg.options
    coords = opts.get("coords", "mcgehee")
    icfg = _integrator_from(opts)
    t1 = float(opts.get("t_final", 10.0))
    h_opt = opts.get("h")
    if coords == "cartesian":
        p = _params_from(opts, h_default=0.0)
        y0 = _parse_floats(opts.get("initial", "1,0,0,1"), 4, "--initial")
        s0 = CartesianState(*y0)
        mon = {"energy": lambda t, y: hamiltonian(CartesianState(*y), p)}
        traj = integrate(cartesian_rhs(p), s0.as_array(), (0.0, t1), icfg, monitors=mon)
        h0 = hamiltonian(s0, p)
        cols = ["t", "x", "y", "px", "py", "energy_residual"]
        rows = [(t, *y, hamiltonian(CartesianState(*y), p) - h0)
                for t, y in zip(traj.times, traj.states)]
    elif coords == "mcgehee":
        y0 = _parse_floats(opts.get("initial", "1,0,0,1"), 4, "--initial")
        m0 = McGeheeState(*y0)
        # the regularized field carries h as a parameter: derive the level from
        # the initial state unless a consistent --h was given explicitly
        probe = _params_from({**opts, "h": 0.0})
        if not probe.beta > 2:
            raise ValidationError("mcgehee simulation requires beta > 2")
        if m0.r > 0.0:
            h_state = energy_residual(m0, probe) / (2.0 * m0.r ** probe.beta)
        else:
            h_state = float(h_opt) if h_opt is not None else 0.0
        p = _params_from({**opts, "h": h_state})
        if h_opt is not None and abs(float(h_opt) - p.h) > 1e-6:
            raise ValidationError(
                f"--h {float(h_opt)} is inconsistent with the initial state "
                f"(its energy level is h = {p.h!r})")
        mon = {"energy_relation": lambda t, y: energy_residual(McGeheeState(*y), p)}
        traj = integrate(mcgehee_rhs(p), m0.as_array(), (0.0, t1), icfg, monitors=mon)
        r0 = energy_residual(m0, p)
        cols = ["tau", "r", "v", "theta", "u", "energy_residual_drift"]
        rows = [(t, *y, energy_residual(McGeheeState(*y), p) - r0)
                for t, y in zip(traj.times, traj.states)]
    else:
        raise ValidationError(f"unknown coords {coords!r}")
    cfg.drift = dict(traj.invariant_drift)
    meta = {"command": cfg.command, "coords": coords, "beta": p.beta, "mu": p.mu,
            "b": p.b, "h": p.h, "seed": cfg.seed}
    return meta, cols, rows


def _run_equilibria(cfg: ScenarioConfig):
    p = _params_from(cfg.options)
    cols = ["label", "theta", "v", "eig1_re", "eig1_im", "eig2_re", "eig2_im",
            "eig3_re", "eig3_im", "stability", "spiraling"]
    rows = []
    for e in equilibria(p):
        eig = e.eigenvalues
        rows.append((e.label, e.location.theta, e.location.v,
                     eig[0].real, eig[0].imag, eig[1].real, eig[1].imag,
                     eig[2].real, eig[2].imag,
                     e.stability.value if e.stability else "degenerate",
                     int(e.spiraling)))
    meta = {"command": cfg.command, "beta": p.beta, "mu": p.mu, "b": p.b,
            "spiral_threshold_mu": (p.beta + 2) ** 2 / (8 * p.beta), "seed": cfg.seed}
    return meta, cols, rows


def _run_collision_flow(cfg: ScenarioConfig):
    opts = cfg.options
    p = _params_from(opts)
    n = _count_from(opts, "grid", 24)
    rhs = torus_rhs(p)
    rows = []
    for th in np.linspace(-math.pi, math.pi, n, endpoint=False):
        for ps in np.linspace(0.0, 2 * math.pi, n, endpoint=False):
            f = rhs(0.0, np.array([th, ps]))
            rows.append(("field", th, ps, f[0], f[1]))
    ibeta = int(round(p.beta))
    if ibeta in (3, 4) and p.beta == ibeta:
        branch = trace_manifold(TorusState(-math.pi, 0.0), "unstable", p,
                                cfg=_integrator_from(opts))
        for th, ps in branch.samples:
            rows.append(("branch-unstable", th, ps, 0.0, 0.0))
    meta = {"command": cfg.command, "beta": p.beta, "mu": p.mu, "b": p.b,
            "epsilon": p.epsilon, "seed": cfg.seed}
    return meta, ["kind", "theta", "psi", "dtheta", "dpsi"], rows


def _run_infinity_flow(cfg: ScenarioConfig):
    opts = cfg.options
    p = _params_from(opts, h_default=0.0)
    if p.h != 0.0:
        raise ValidationError("the infinity manifold is defined on h = 0")
    if not p.beta > 2:
        raise ValidationError("this command covers beta > 2 (see beta2-verify)")
    n_orbits = _count_from(opts, "orbits", 5)
    s_final = float(opts.get("s_final", 25.0))
    icfg = _integrator_from(opts)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    drift = {}
    for i in range(n_orbits):
        th0 = float(rng.uniform(0, 2 * math.pi))
        ps0 = float(rng.uniform(0.25, math.pi - 0.25))
        curve = i0_flow_closed_form(th0, ps0)
        y0 = InfinityState(0.0, SQRT2 * math.cos(ps0), th0, SQRT2 * math.sin(ps0))
        mon = {"energy_relation": lambda t, y: (y[3] ** 2 + y[1] ** 2 - 2.0)}
        traj = integrate(infinity_rhs(p), y0.as_array(), (0.0, s_final), icfg, monitors=mon)
        drift[f"orbit{i}_energy_relation"] = traj.invariant_drift["energy_relation"]
        psi_prev = ps0
        for s, y in zip(traj.times, traj.states):
            rho, vb, th, ub = y
            psi = math.atan2(ub / SQRT2, vb / SQRT2)
            # unwrap against the previous sample
            while psi - psi_prev > math.pi:
                psi -= 2 * math.pi
            while psi - psi_prev < -math.pi:
                psi += 2 * math.pi
            psi_prev = psi
            line_resid = th - float(curve.theta_of_psi(psi))
            vbar_resid = vb - float(curve.vbar_of_theta(th))
            energy_resid = ub * ub + vb * vb - 2.0
            rows.append((i, s, rho, vb, th, ub, psi, energy_resid, line_resid, vbar_resid))
    cfg.drift = drift
    meta = {"command": cfg.command, "beta": p.beta, "mu": p.mu, "b": p.b, "h": 0.0,
            "orbits": n_orbits, "seed": cfg.seed,
            "note": "line_residual checks theta - theta0 = -2 (psi - psi0)"}
    cols = ["orbit", "s", "rho", "vbar", "theta", "ubar", "psi",
            "energy_residual", "line_residual", "vbar_closed_form_residual"]
    return meta, cols, rows


def _run_splitting(cfg: ScenarioConfig):
    opts = cfg.options
    beta = int(opts.get("beta", 3))
    if beta not in (3, 4):
        raise ValidationError("splitting is measured for beta in {3, 4}")
    b = float(opts.get("b", 0.5))
    eps_list = [float(t) for t in str(opts.get("eps_list", "0,1e-3,2e-3,4e-3")).split(",")]
    icfg = _integrator_from(opts)
    z1 = zeta1(beta, comparison_section(beta))
    rows = []
    for eps in eps_list:
        p = Params(float(beta), 1.0 + eps, b)
        gap, psi_u, psi_s = splitting_gap(beta, p, icfg)
        verdict = splitting_verdict(gap, icfg)
        rows.append((beta, eps, psi_u, psi_s, gap,
                     gap / eps if eps else 0.0, 2 * z1 * eps, verdict.value))
    meta = {"command": cfg.command, "beta": beta, "b": b,
            "two_zeta1": 2 * z1, "seed": cfg.seed}
    cols = ["beta", "epsilon", "psi_unstable", "psi_stable", "gap",
            "gap_over_eps", "predicted_gap", "verdict"]
    return meta, cols, rows


def _run_beta2_verify(cfg: ScenarioConfig):
    opts = cfg.options
    mu = float(opts.get("mu", 1.5))
    b = float(opts.get("b", 0.5))
    h = float(opts.get("h", -0.25))
    n_states = _count_from(opts, "n_states", 1000)
    n_orbits = _count_from(opts, "n_orbits", 20)
    tau = float(opts.get("tau", 10.0))
    icfg = _integrator_from({"rtol": opts.get("rtol", 1e-12),
                             "atol": opts.get("atol", 1e-14)})
    p = Params(2.0, mu, b, h)
    rng = np.random.default_rng(cfg.seed)

    bracket_worst = 0.0
    for _ in range(n_states):
        s = PolarState(rng.uniform(0.3, 4.0), rng.uniform(0, 2 * math.pi),
                       rng.normal(0, 1), rng.normal(0, 1.5))
        bracket_worst = max(bracket_worst, abs(poisson_bracket_H2_G(s, p)))

    h_drift = g_drift = 0.0
    for _ in range(n_orbits):
        s = PolarState(rng.uniform(1.0, 2.5), rng.uniform(0, 2 * math.pi),
                       rng.uniform(-0.2, 0.2), rng.uniform(1.3, 1.8))
        traj = integrate(polar_rhs(p), s.as_array(), (0.0, tau), icfg,
                         monitors={"H2": lambda t, y: polar_hamiltonian(PolarState(*y), p),
                                   "G": lambda t, y: integral_G(PolarState(*y), p)})
        h_drift = max(h_drift, traj.invariant_drift["H2"])
        g_drift = max(g_drift, traj.invariant_drift["G"])

    m0 = McGeheeState(1.2, 0.1, 0.9, 0.7)
    lvl = Params(2.0, mu, b, h=h + beta2_energy_residual(m0, Params(2.0, mu, b, h))
                 / (2 * m0.r ** 2))
    traj = integrate(beta2_mcgehee_rhs(lvl), m0.as_array(), (0.0, tau), icfg,
                     monitors={"E": lambda t, y: beta2_energy_residual(McGeheeState(*y), lvl),
                               "g": lambda t, y: beta2_g(McGeheeState(*y), lvl)})
    checks = [
        ("poisson_bracket_max_abs", bracket_worst, 1e-10),
        ("H2_drift_max", h_drift, 1e-8),
        ("G_drift_max", g_drift, 1e-8),
        ("regularized_energy_drift", traj.invariant_drift["E"], 1e-8),
        ("regularized_g_drift", traj.invariant_drift["g"], 1e-8),
    ]
    cfg.drift = {name: val for name, val, _ in checks}
    rows = [(name, val, thr, "pass" if val <= thr else "fail")
            for name, val, thr in checks]
    meta = {"command": cfg.command, "beta": 2.0, "mu": mu, "b": b, "h": h,
            "n_states": n_states, "n_orbits": n_orbits, "tau": tau, "seed": cfg.seed}
    return meta, ["check", "value", "threshold", "status"], rows


def _run_melnikov(cfg: ScenarioConfig):
    opts = cfg.options
    grid = _parse_grid(str(opts.get("beta_grid", "1.6:5:0.01")))
    p_param = float(opts.get("p", 1.0))
    if grid[0] <= 1.5:
        raise ValidationError("beta grid must start above 3/2")
    if p_param <= 0:
        raise ValidationError("orbit parameter p must be positive")
    rows = []
    for beta in grid:
        q = i2_quadrature(p_param, float(beta))
        c = i2_closed_form(p_param, float(beta))
        rows.append((float(beta), q, c, c / i2_amplitude(p_param, float(beta))))
    meta = {"command": cfg.command, "p": p_param,
            "beta_grid": str(opts.get("beta_grid", "1.6:5:0.01")), "seed": cfg.seed}
    return meta, ["beta", "i2_quadrature", "i2_closed_form", "i2_over_A"], rows


def _run_basin(cfg: ScenarioConfig):
    opts = cfg.options
    p = _params_from(opts, h_default=-0.25)
    n = int(opts.get("n", 10000))
    horizon = float(opts.get("horizon", 40.0))
    if "box" in opts:
        vals = _parse_floats(str(opts["box"]), 6, "--box")
        box = BasinBox(r=(vals[0], vals[1]), theta=(vals[2], vals[3]), u=(vals[4], vals[5]))
    else:
        box = BasinBox.near_sink(p)
    frac = basin_fraction(p, n, horizon, box=box, seed=cfg.seed)
    meta = {"command": cfg.command, "beta": p.beta, "mu": p.mu, "b": p.b, "h": p.h,
            "box_r": f"{box.r[0]}..{box.r[1]}", "box_theta": f"{box.theta[0]}..{box.theta[1]}",
            "box_u": f"{box.u[0]}..{box.u[1]}", "seed": cfg.seed}
    return meta, ["n", "horizon", "seed", "collision_fraction"], [(n, horizon, cfg.seed, frac)]


_RUNNERS = {
    "simulate": _run_simulate,
    "equilibria": _run_equilibria,
    "collision-flow": _run_collision_flow,
    "infinity-flow": _run_infinity_flow,
    "splitting": _run_splitting,
    "beta2-verify": _run_beta2_verify,
    "melnikov": _run_melnikov,
    "basin": _run_basin,
}


def run(cfg: ScenarioConfig) -> int:
    """Execute a validated scenario; writes the CSV and its manifest."""
    meta, cols, rows = _RUNNERS[cfg.command](cfg)
    write_csv(cfg.out, meta, cols, rows)
    write_manifest(cfg)
    return EXIT_OK


def read_config_file(path: str) -> dict:
    """Flat `key = value` file; '#' starts a comment."""
    entries = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            entries[key.strip().replace("-", "_")] = val.strip()
    return entries


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anisokepler",
        description="Two-body problem with a Kepler plus anisotropic inverse-power "
                    "potential: simulation and analysis data files.")
    parser.add_argument("--config", help="flat key = value file preloading options")
    sub = parser.add_subparsers(dest="command")

    def common(sp, beta_default=None):
        sp.add_argument("--out", help="output CSV path (manifest written alongside)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--rtol", type=float, default=1e-10)
        sp.add_argument("--atol", type=float, default=1e-12)
        sp.add_argument("--max-steps", type=int, default=1_000_000)
        if beta_default is not None:
            sp.add_argument("--beta", type=float, default=beta_default)

    sp = sub.add_parser("simulate", help="integrate one orbit and emit samples")
    common(sp, beta_default=3.0)
    sp.add_argument("--coords", choices=("cartesian", "mcgehee"), default="mcgehee")
    sp.add_argument("--mu", type=float, default=1.2)
    sp.add_argument("--b", type=float, default=0.5)
    sp.add_argument("--h", type=float, default=None,
                    help="energy level; mcgehee runs derive it from --initial if omitted")
    sp.add_argument("--initial", default="1,0,0,1",
                    help="x,y,px,py or r,v,theta,u depending on --coords")
    sp.add_argument("--t-final", type=float, default=10.0)

    sp = sub.add_parser("equilibria", help="collision-manifold equilibria and spectra")
    common(sp, beta_default=3.0)
    sp.add_argument("--mu", type=float, default=1.2)
    sp.add_argument("--b", type=float, default=0.5)

    sp = sub.add_parser("collision-flow", help="torus field samples and traced branches")
    common(sp, beta_default=3.0)
    sp.add_argument("--mu", type=float, default=1.0)
    sp.add_argument("--b", type=float, default=0.5)
    sp.add_argument("--grid", type=int, default=24)

    sp = sub.add_parser("infinity-flow", help="heteroclinic orbits on the infinity torus")
    common(sp, beta_default=3.0)
    sp.add_argument("--mu", type=float, default=1.4)
    sp.add_argument("--b", type=float, default=0.5)
    sp.add_argument("--h", type=float, default=0.0)
    sp.add_argument("--orbits", type=int, default=5)
    sp.add_argument("--s-final", type=float, default=25.0)

    sp = sub.add_parser("splitting", help="saddle-connection splitting vs anisotropy")
    common(sp)
    sp.add_argument("--beta", type=int, default=3, choices=(3, 4))
    sp.add_argument("--b", type=float, default=0.5)
    sp.add_argument("--eps-list", default="0,1e-3,2e-3,4e-3")

    sp = sub.add_parser("beta2-verify", help="integrability checks at beta = 2")
    common(sp)
    sp.add_argument("--mu", type=float, default=1.5)
    sp.add_argument("--b", type=float, default=0.5)
    sp.add_argument("--h", type=float, default=-0.25)
    sp.add_argument("--n-states", type=int, default=1000)
    sp.add_argument("--n-orbits", type=int, default=20)
    sp.add_argument("--tau", type=float, default=10.0)

    sp = sub.add_parser("melnikov", help="I2 profile over a beta grid")
    common(sp)
    sp.add_argument("--beta-grid", default="1.6:5:0.01")
    sp.add_argument("--p", type=float, default=1.0)

    sp = sub.add_parser("basin", help="collision fraction from a sampling box")
    common(sp, beta_default=3.0)
    sp.add_argument("--mu", type=float, default=1.2)
    sp.add_argument("--b", type=float, default=0.5)
    sp.add_argument("--h", type=float, default=-0.25)
    sp.add_argument("--n", type=int, default=10000)
    sp.add_argument("--horizon", type=float, default=40.0)
    sp.add_argument("--box", help="rlo,rhi,thetalo,thetahi,ulo,uhi")
    return parser


def _error_record(kind: str, message: str, code: int) -> int:
    print(json.dumps({"error": kind, "message": message, "exit_code": code}),
          file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    # pull out --config before the real parse so its entries can become defaults
    config_entries: dict = {}
    if "--config" in argv:
        i = argv.index("--config")
        try:
            path = argv[i + 1]
        except IndexError:
            return _error_record("validation", "--config needs a path", EXIT_VALIDATION)
        del argv[i:i + 2]
        try:
            config_entries = read_config_file(path)
        except (OSError, ValidationError) as exc:
            return _error_record("validation", str(exc), EXIT_VALIDATION)

    command = config_entries.pop("command", None)
    if argv and argv[0] in COMMANDS:
        command = argv[0]
        argv = argv[1:]
    if command is None:
        return _error_record("validation", "no command given (see --help)", EXIT_VALIDATION)
    if command not in COMMANDS:
        return _error_record("validation", f"unknown command {command!r}", EXIT_VALIDATION)

    flag_argv = [command]
    for key, val in config_entries.items():
        flag_argv += [f"--{key.replace('_', '-')}", val]
    flag_argv += argv  # explicit flags come last and win

    parser = build_parser()
    try:
        ns = parser.parse_args(flag_argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK

    opts = {k: v for k, v in vars(ns).items()
            if k not in ("command", "config", "out", "seed") and v is not None}
    if ns.out is None:
        return _error_record("validation", "--out is required", EXIT_VALIDATION)
    cfg = ScenarioConfig(command=command, options=opts, out=ns.out, seed=ns.seed)

    try:
        return run(cfg)
    except (ValidationError, ValueError) as exc:
        return _error_record("validation", str(exc), EXIT_VALIDATION)
    except (IntegrationError, ArithmeticError, FloatingPointError) as exc:
        return _error_record("numerical", str(exc), EXIT_NUMERICAL)


if __name__ == "__main__":
    raise SystemExit(main())
