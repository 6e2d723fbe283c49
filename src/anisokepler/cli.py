"""Command-line front end: runs each analysis and writes CSV data files.

Output format: UTF-8 CSV with '#'-prefixed metadata lines (config echo and a
`columns:` line), '.' decimal separator and 17 significant digits, suitable for
any external plotting tool.  Every run also writes `<out>.manifest.json` with
the config echo, package versions and an invariant-drift summary, so a given
(config, seed) pair reproduces its output byte for byte.

Exit codes: 0 success, 2 validation failure, 3 numerical failure.  Failures,
a bad flag included, print a machine-readable JSON error record to stderr.

Every option gets its default, type and range check in `build_parser`; a
runner reads the parsed namespace and returns (meta, columns, rows, drift).

A flat key = value config file can preload any option of a subcommand
(including `command` itself); explicit command-line flags override it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from . import __version__
from .core import CartesianState, Params, hamiltonian, cartesian_rhs
from .integrate import IntegrationError, IntegratorConfig, StepSizeUnderflow, integrate
from .mcgehee import (
    BasinBox,
    McGeheeState,
    basin_fraction,
    energy_residual,
    equilibria,
    level_through,
    mcgehee_rhs,
    spiral_threshold,
)
from .torus import (
    connection_index,
    splitting_gap,
    splitting_verdict,
    torus_rhs,
    trace_manifold,
)
from .infinity import (
    SQRT2,
    InfinityState,
    i0_flow_closed_form,
    infinity_energy_residual,
    infinity_rhs,
)
from .beta2 import (
    PolarState,
    beta2_energy_residual,
    beta2_mcgehee_rhs,
    integral_G,
    poisson_bracket_H2_G,
    polar_hamiltonian,
    polar_rhs,
)
from .melnikov import _at_p, i2_amplitude, i2_closed_form, i2_quadrature

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
# melnikov: one quadrature per grid point; collision-flow: grid^2 rows of ~0.5 KB in memory
MAX_GRID_POINTS = 10 ** 6


class ValidationError(ValueError):
    pass


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
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValidationError(f"grid start, stop and step must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise ValidationError("grid requires step > 0 and stop >= start")
    span = (stop - start) / step + 1e-9  # points past the first, as a float: may be inf
    if span >= MAX_GRID_POINTS:
        raise ValidationError(f"grid {text!r} has {span + 1:.7g} points, "
                              f"more than {MAX_GRID_POINTS}")
    return start + step * np.arange(int(span) + 1)


def _at_least(low: int, text: str) -> int:
    """argparse type of an integer of at least `low`: 1 for a sample or grid
    count, 0 for --seed (numpy's generators take non-negative integers)."""
    try:
        n = int(text)
    except ValueError:
        n = low - 1
    if n < low:
        raise argparse.ArgumentTypeError(f"must be an integer of at least {low}, got {text!r}")
    return n


_count = partial(_at_least, 1)


def _integrator(ns: argparse.Namespace) -> IntegratorConfig:
    return IntegratorConfig(rel_tol=ns.rtol, abs_tol=ns.atol, max_steps=ns.max_steps)


def _require_finite(command: str, columns: list[str], rows) -> None:
    """No NaN or inf reaches a CSV: raises ArithmeticError naming the first."""
    for i, row in enumerate(rows, start=1):
        for column, x in zip(columns, row):
            if isinstance(x, float) and not math.isfinite(x):
                raise ArithmeticError(f"{command}: {x} in column {column!r}, row {i}")


def write_csv(path: str, meta: dict, columns: list[str], rows) -> None:
    lines = [f"# {k} = {v}" for k, v in meta.items()]
    lines.append("# columns: " + ",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_manifest(ns: argparse.Namespace, drift: dict) -> str:
    manifest = {
        "command": ns.command,
        "config": {k: v for k, v in sorted(vars(ns).items())
                   if k not in ("command", "config", "out", "seed") and v is not None},
        "seed": ns.seed,
        "out": ns.out,
        "versions": {
            "anisokepler": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "invariant_drift": {k: _fmt(v) for k, v in sorted(drift.items())},
    }
    path = ns.out + ".manifest.json"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


# --- command implementations: each returns (meta, columns, rows, drift) ---

def _run_simulate(ns: argparse.Namespace):
    icfg = _integrator(ns)
    y0 = _parse_floats(ns.initial, 4, "--initial")
    base = Params(ns.beta, ns.mu, ns.b)
    p = base if ns.h is None else replace(base, h=ns.h)
    if ns.coords == "cartesian":
        s0 = CartesianState(*y0)
        try:
            traj = integrate(cartesian_rhs(p), s0.as_array(), (0.0, ns.t_final), icfg)
        except StepSizeUnderflow as exc:
            # the field is smooth off the origin and the energy bounds the momenta
            # there, so the only place a finite orbit stalls is the collision
            raise StepSizeUnderflow(
                "the orbit reached the collision at the origin, which the Cartesian "
                f"chart cannot pass ({exc}); --coords mcgehee regularizes it") from exc
        h0 = hamiltonian(s0, p)
        invariant = "energy"
        cols = ["t", "x", "y", "px", "py", "energy_residual"]
        # the residuals run on Python floats, as the field closures do
        rows = [(t, *y, hamiltonian(CartesianState(*y), p) - h0)
                for t, y in zip(traj.times.tolist(), traj.states.tolist())]
    else:
        m0 = McGeheeState(*y0)
        # the regularized field carries h as a parameter: derive the level from
        # the initial state; an explicit --h must agree with it
        if m0.r > 0.0:
            p = level_through(m0, base)
            if ns.h is not None and abs(ns.h - p.h) > 1e-6:
                raise ValidationError(
                    f"--h {ns.h} is inconsistent with the initial state "
                    f"(its energy level is h = {p.h!r})")
        traj = integrate(mcgehee_rhs(p), m0.as_array(), (0.0, ns.t_final), icfg)
        r0 = energy_residual(m0, p)
        invariant = "energy_relation"
        cols = ["tau", "r", "v", "theta", "u", "energy_residual_drift"]
        rows = [(t, *y, energy_residual(McGeheeState(*y), p) - r0)
                for t, y in zip(traj.times.tolist(), traj.states.tolist())]
    meta = {"command": ns.command, "coords": ns.coords, "beta": p.beta, "mu": p.mu,
            "b": p.b, "h": p.h, "seed": ns.seed}
    return meta, cols, rows, {invariant: max(abs(row[-1]) for row in rows)}


def _run_equilibria(ns: argparse.Namespace):
    p = Params(ns.beta, ns.mu, ns.b)
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
    meta = {"command": ns.command, "beta": p.beta, "mu": p.mu, "b": p.b,
            "spiral_threshold_mu": spiral_threshold(p.beta), "seed": ns.seed}
    return meta, cols, rows, {}


def _run_collision_flow(ns: argparse.Namespace):
    if ns.grid ** 2 > MAX_GRID_POINTS:
        raise ValidationError(f"--grid {ns.grid} makes {ns.grid ** 2} cells, "
                              f"more than {MAX_GRID_POINTS}")
    p = Params(ns.beta, ns.mu, ns.b)
    rhs = torus_rhs(p)
    cols = ["kind", "theta", "psi", "dtheta", "dpsi"]
    rows = []
    for th in np.linspace(-math.pi, math.pi, ns.grid, endpoint=False):
        for ps in np.linspace(0.0, 2 * math.pi, ns.grid, endpoint=False):
            f = rhs(0.0, np.array([th, ps]))
            rows.append(("field", th, ps, f[0], f[1]))
    _require_finite(ns.command, cols, rows)  # a field that is not finite has no branch
    try:
        connection_index(p.beta)
    except ValueError:  # no saddle connection to trace at this exponent
        pass
    else:
        branch = trace_manifold(p, _integrator(ns))
        for th, ps in branch:
            rows.append(("branch-unstable", th, ps, 0.0, 0.0))
    meta = {"command": ns.command, "beta": p.beta, "mu": p.mu, "b": p.b,
            "epsilon": p.epsilon, "seed": ns.seed}
    return meta, cols, rows, {}


def _run_infinity_flow(ns: argparse.Namespace):
    p = Params(ns.beta, ns.mu, ns.b)  # the inverted chart covers h = 0 only
    if not p.beta > 2:
        raise ValidationError("this command covers beta > 2 (see beta2-verify)")
    rhs = infinity_rhs(p)
    icfg = _integrator(ns)
    rng = np.random.default_rng(ns.seed)
    rows = []
    drift = {}
    for i in range(ns.orbits):
        th0 = float(rng.uniform(0, 2 * math.pi))
        ps0 = float(rng.uniform(0.25, math.pi - 0.25))
        curve = i0_flow_closed_form(th0, ps0)
        y0 = InfinityState(0.0, SQRT2 * math.cos(ps0), th0, SQRT2 * math.sin(ps0))
        traj = integrate(rhs, y0.as_array(), (0.0, ns.s_final), icfg)
        psi_prev = ps0
        energies = []
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
            energy_resid = infinity_energy_residual(InfinityState(rho, vb, th, ub), p)
            energies.append(energy_resid)
            rows.append((i, s, rho, vb, th, ub, psi, energy_resid, line_resid, vbar_resid))
        drift[f"orbit{i}_energy_relation"] = max(abs(e - energies[0]) for e in energies)
    meta = {"command": ns.command, "beta": p.beta, "mu": p.mu, "b": p.b, "h": p.h,
            "orbits": ns.orbits, "seed": ns.seed,
            "note": "line_residual checks theta - theta0 = -2 (psi - psi0)"}
    cols = ["orbit", "s", "rho", "vbar", "theta", "ubar", "psi",
            "energy_residual", "line_residual", "vbar_closed_form_residual"]
    return meta, cols, rows, drift


def _run_splitting(ns: argparse.Namespace):
    eps_list = [float(t) for t in ns.eps_list.split(",")]
    if not all(math.isfinite(eps) and eps >= 0.0 for eps in eps_list):
        raise ValidationError(f"--eps-list values must be finite and non-negative, "
                              f"got {ns.eps_list!r}")
    icfg = _integrator(ns)
    z1 = (connection_index(ns.beta) + 1) * math.pi / 4  # zeta1 at the section
    rows = []
    for eps in eps_list:
        p = Params(ns.beta, 1.0 + eps, ns.b)
        gap, psi_u, psi_s = splitting_gap(ns.beta, p, icfg)
        verdict = splitting_verdict(gap, icfg)
        rows.append((ns.beta, eps, psi_u, psi_s, gap,
                     gap / eps if eps else 0.0, 2 * z1 * eps, verdict.value))
    meta = {"command": ns.command, "beta": _fmt(ns.beta), "b": ns.b,  # as in its column
            "two_zeta1": 2 * z1, "seed": ns.seed}
    cols = ["beta", "epsilon", "psi_unstable", "psi_stable", "gap",
            "gap_over_eps", "predicted_gap", "verdict"]
    return meta, cols, rows, {}


def _run_beta2_verify(ns: argparse.Namespace):
    p = Params(2.0, ns.mu, ns.b, ns.h)
    icfg = _integrator(ns)
    rng = np.random.default_rng(ns.seed)

    bracket_worst = 0.0
    for _ in range(ns.n_states):
        s = PolarState(rng.uniform(0.3, 4.0), rng.uniform(0, 2 * math.pi),
                       rng.normal(0, 1), rng.normal(0, 1.5))
        bracket_worst = max(bracket_worst, abs(poisson_bracket_H2_G(s, p)))

    h_drift = g_drift = 0.0
    for _ in range(ns.n_orbits):
        s = PolarState(rng.uniform(1.0, 2.5), rng.uniform(0, 2 * math.pi),
                       rng.uniform(-0.2, 0.2), rng.uniform(1.3, 1.8))
        traj = integrate(polar_rhs(p), s.as_array(), (0.0, ns.tau), icfg,
                         monitors={"H2": lambda t, y: polar_hamiltonian(PolarState(*y), p),
                                   "G": lambda t, y: integral_G(PolarState(*y), p)})
        h_drift = max(h_drift, traj.invariant_drift["H2"])
        g_drift = max(g_drift, traj.invariant_drift["G"])

    m0 = McGeheeState(1.2, 0.1, 0.9, 0.7)
    lvl = level_through(m0, p)
    traj = integrate(beta2_mcgehee_rhs(lvl), m0.as_array(), (0.0, ns.tau), icfg,
                     monitors={"E": lambda t, y: beta2_energy_residual(McGeheeState(*y), lvl),
                               # G in the polar chart: pr = v/r, ptheta = u at beta = 2
                               "g": lambda t, y: integral_G(
                                   PolarState(y[0], y[2], y[1] / y[0], y[3]), lvl)})
    checks = [
        ("poisson_bracket_max_abs", bracket_worst, 1e-10),
        ("H2_drift_max", h_drift, 1e-8),
        ("G_drift_max", g_drift, 1e-8),
        ("regularized_energy_drift", traj.invariant_drift["E"], 1e-8),
        ("regularized_g_drift", traj.invariant_drift["g"], 1e-8),
    ]
    rows = [(name, val, thr, "pass" if val <= thr else "fail")
            for name, val, thr in checks]
    meta = {"command": ns.command, "beta": 2.0, "mu": p.mu, "b": p.b, "h": p.h,
            "n_states": ns.n_states, "n_orbits": ns.n_orbits, "tau": ns.tau, "seed": ns.seed}
    drift = {name: val for name, val, _ in checks}
    return meta, ["check", "value", "threshold", "status"], rows, drift


def _run_melnikov(ns: argparse.Namespace):
    rows = []
    for beta in map(float, _parse_grid(ns.beta_grid)):
        quadrature = i2_quadrature(ns.p, beta)
        unit = i2_closed_form(1.0, beta)  # at p = 1, where A cannot underflow
        rows.append((beta, quadrature, _at_p(ns.p, beta, unit), unit / i2_amplitude(1.0, beta)))
    meta = {"command": ns.command, "p": ns.p, "beta_grid": ns.beta_grid, "seed": ns.seed}
    return meta, ["beta", "i2_quadrature", "i2_closed_form", "i2_over_A"], rows, {}


def _run_basin(ns: argparse.Namespace):
    p = Params(ns.beta, ns.mu, ns.b, ns.h)
    if ns.box is None:
        box = BasinBox.near_sink(p)
    else:
        vals = _parse_floats(ns.box, 6, "--box")
        box = BasinBox(r=(vals[0], vals[1]), theta=(vals[2], vals[3]), u=(vals[4], vals[5]))
    frac = basin_fraction(p, ns.n, ns.horizon, box=box, seed=ns.seed)
    meta = {"command": ns.command, "beta": p.beta, "mu": p.mu, "b": p.b, "h": p.h,
            "box_r": f"{box.r[0]}..{box.r[1]}", "box_theta": f"{box.theta[0]}..{box.theta[1]}",
            "box_u": f"{box.u[0]}..{box.u[1]}", "seed": ns.seed}
    rows = [(ns.n, ns.horizon, ns.seed, frac)]
    return meta, ["n", "horizon", "seed", "collision_fraction"], rows, {}


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


class _Parser(argparse.ArgumentParser):
    """Raises ValidationError on a bad flag instead of printing usage and exiting,
    so the failure gets the JSON error record; subparsers inherit the class.
    No abbreviations: `--h` on a command without it is an error, not `--help`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anisokepler",
        description="Two-body problem with a Kepler plus anisotropic inverse-power "
                    "potential: simulation and analysis data files.")
    parser.add_argument("--config", help="flat key = value file preloading options")
    sub = parser.add_subparsers(dest="command")

    def common(sp, beta_default=None, integrates=False):
        sp.add_argument("--out", required=True,
                        help="output CSV path (manifest written alongside)")
        sp.add_argument("--seed", type=partial(_at_least, 0), default=0)
        if integrates:
            icfg = IntegratorConfig()
            sp.add_argument("--rtol", type=float, default=icfg.rel_tol)
            sp.add_argument("--atol", type=float, default=icfg.abs_tol)
            sp.add_argument("--max-steps", type=int, default=icfg.max_steps)
        if beta_default is not None:
            sp.add_argument("--beta", type=float, default=beta_default)

    sp = sub.add_parser("simulate", help="integrate one orbit and emit samples")
    common(sp, beta_default=3.0, integrates=True)
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
    common(sp, beta_default=3.0, integrates=True)
    sp.add_argument("--mu", type=float, default=1.0)
    sp.add_argument("--b", type=float, default=0.5)
    sp.add_argument("--grid", type=_count, default=24)

    sp = sub.add_parser("infinity-flow", help="heteroclinic orbits on the infinity torus")
    common(sp, beta_default=3.0, integrates=True)
    sp.add_argument("--mu", type=float, default=1.4)
    sp.add_argument("--b", type=float, default=0.5)
    sp.add_argument("--orbits", type=_count, default=5)
    sp.add_argument("--s-final", type=float, default=25.0)

    sp = sub.add_parser("splitting", help="saddle-connection splitting vs anisotropy")
    common(sp, beta_default=3.0, integrates=True)
    sp.add_argument("--b", type=float, default=0.5)
    sp.add_argument("--eps-list", default="0,1e-3,2e-3,4e-3")

    sp = sub.add_parser("beta2-verify", help="integrability checks at beta = 2")
    common(sp, integrates=True)
    sp.add_argument("--mu", type=float, default=1.5)
    sp.add_argument("--b", type=float, default=0.5)
    sp.add_argument("--h", type=float, default=-0.25)
    sp.add_argument("--n-states", type=_count, default=1000)
    sp.add_argument("--n-orbits", type=_count, default=20)
    sp.add_argument("--tau", type=float, default=10.0)

    sp = sub.add_parser("melnikov", help="I2 profile over a beta grid")
    common(sp)
    sp.add_argument("--beta-grid", default="1.6:5:0.01",
                    help="start:stop:step, inclusive; valid for beta > 3/2, and the "
                         "closed form overflows (exit 3) from beta ~ 149 on")
    sp.add_argument("--p", type=float, default=1.0,
                    help="orbit parameter p > 0; I2 scales as p^(3/2 - beta), exit 3 where "
                         "that scale leaves the normal float range")

    sp = sub.add_parser("basin", help="collision fraction from a sampling box")
    common(sp, beta_default=3.0)
    sp.add_argument("--mu", type=float, default=1.2)
    sp.add_argument("--b", type=float, default=0.5)
    sp.add_argument("--h", type=float, default=-0.25)
    sp.add_argument("--n", type=_count, default=10000)
    sp.add_argument("--horizon", type=float, default=40.0)
    sp.add_argument("--box", help="rlo,rhi,thetalo,thetahi,ulo,uhi")
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The command and its options from argv and an optional --config file."""
    config_entries: dict = {}
    if "--config" in argv:
        i = argv.index("--config")
        if i + 1 == len(argv):
            raise ValidationError("--config needs a path")
        try:
            config_entries = read_config_file(argv[i + 1])
        except OSError as exc:
            raise ValidationError(str(exc)) from exc
        argv = argv[:i] + argv[i + 2:]

    command = config_entries.pop("command", None)
    if argv and argv[0] in _RUNNERS:
        command, argv = argv[0], argv[1:]
    if command is None:
        if "-h" in argv or "--help" in argv:
            build_parser().parse_args(["--help"])  # prints the top-level help and exits
        raise ValidationError("no command given (see --help)")
    if command not in _RUNNERS:
        raise ValidationError(f"unknown command {command!r}")

    flag_argv = [command]
    for key, val in config_entries.items():
        flag_argv += [f"--{key.replace('_', '-')}", val]
    return build_parser().parse_args(flag_argv + argv)  # explicit flags come last and win


def _error_record(kind: str, message: str, code: int) -> int:
    print(json.dumps({"error": kind, "message": message, "exit_code": code}),
          file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parse(list(sys.argv[1:] if argv is None else argv))
        meta, cols, rows, drift = _RUNNERS[ns.command](ns)
        _require_finite(ns.command, cols, rows)
        write_csv(ns.out, meta, cols, rows)
        write_manifest(ns, drift)
    except SystemExit:  # --help printed the usage
        return EXIT_OK
    except (ValueError, OSError) as exc:  # bad input, an unwritable --out included
        return _error_record("validation", str(exc), EXIT_VALIDATION)
    except (IntegrationError, ArithmeticError, MemoryError) as exc:
        return _error_record("numerical", str(exc), EXIT_NUMERICAL)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
