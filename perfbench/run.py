"""Benchmark of the anisokepler package: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {orbits,basin,cli} --seed N --seconds S --trace {0,1}

The package is imported from `src/` of the same checkout. One run builds its
inputs from the seed, repeats passes of the workload (one task at a time) for
about S seconds, checks every output outside the timed region and prints, as
its last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` a separate traced run reports the per-layer ones and the tracing
overhead. Earlier lines carry the machine description and the sample counts.
See perfbench/DESIGN.md for why each workload and metric exists.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "cli_reference.json"

# setup_s is the median of this many fresh interpreters, half before and half
# after the timed passes, so they sample more of the machine's slow drifts
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 120.0
# the console-script entry point of the package, run as a fresh interpreter
CLI_ENTRY = "import sys; from anisokepler.cli import main; sys.exit(main())"
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
               "workloads.build(sys.argv[2], int(sys.argv[3]))")
# A fresh interpreter that imports what a command's start-up imports, without
# the package; its median time in a run measures how fast the machine started
# processes during that run (see DESIGN.md).
REFERENCE_CHILD = "import numpy, scipy.integrate, scipy.optimize, scipy.special"
REFERENCE_CHILD_S = 0.93  # its median time on the reference machine


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(argv: list, stderr_path: Path) -> tuple[float, int, float]:
    """(wall seconds, exit code, peak RSS in MB) of one child process."""
    with open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported the package
    and built the workload's inputs."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR), workload, str(seed)]
    wall, code, _ = run_child(argv, WORK / "setup.err")
    if code != 0:
        raise RuntimeError(f"setup probe exited with {code}: "
                           + (WORK / "setup.err").read_text(errors="replace")[-2000:])
    return wall


def reference_child() -> float:
    wall, code, _ = run_child([sys.executable, "-c", REFERENCE_CHILD], WORK / "reference.err")
    if code != 0:
        raise RuntimeError(f"reference child exited with {code}")
    return wall


def _cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if int((index / "level").read_text()) == level and \
                    (index / "type").read_text().strip() in ("Unified", "Data"):
                return (index / "size").read_text().strip()
        except OSError:
            pass
    return "unknown"


def machine_info() -> dict:
    import numpy
    import scipy
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "l2": _cache_size(2), "l3": _cache_size(3),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def percentile(xs: list[float], q: int) -> float:
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


class Tally:
    """Operations attempted and failed, with the names of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.margins: dict[str, float] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def add_checks(self, checks) -> None:
        for c in checks:
            if not c.ok:
                self.fail(f"check {c.name}")
            m = c.margin
            if m is not None:
                self.margins[c.name] = min(m, self.margins.get(c.name, math.inf))


# --- machine-speed correction ---

KERNEL_REF_S = 0.0032   # the kernel's median time on the reference machine (see DESIGN.md)
SEGMENT_S = 0.3         # least work between two kernel samples
_KERNEL_ARRAY = np.linspace(0.1, 1.0, 10_000)


def _kernel() -> None:
    """Interpreter work and small-array numpy work, the two kinds the package does."""
    s = 0
    for i in range(20_000):
        s += i * i
    x = _KERNEL_ARRAY
    for _ in range(10):
        x = np.sin(x) * 0.5 + x ** 1.5 / (1.0 + x)


def kernel_s() -> float:
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class SpeedClock:
    """Turns measured seconds of in-process work into reference seconds.

    The machine's speed drifts by tens of percent within seconds, because other
    tenants share its cores, so two runs of the same code can differ by a
    quarter. A fixed kernel, timed right before and right after each segment of
    work, tracks that speed. The segment's seconds are scaled by KERNEL_REF_S
    over the mean of the two kernel times. The measured seconds are kept too.
    """

    def __init__(self):
        self.items: list[list[float]] = []  # [measured seconds, speed factor]
        self.factors: list[float] = []
        self._pending: list[int] = []
        self._before = 0.0

    def start(self) -> None:
        """Call right before the first work item of a pass."""
        self._before = kernel_s()
        self._pending = []

    def add(self, seconds: float) -> int:
        """Record one work item that has just ended; returns its handle."""
        self.items.append([seconds, math.nan])
        self._pending.append(len(self.items) - 1)
        if sum(self.items[i][0] for i in self._pending) >= SEGMENT_S:
            self._close_segment()
        return len(self.items) - 1

    def finish(self) -> None:
        """Call right after the last work item of a pass."""
        if self._pending:
            self._close_segment()

    def _close_segment(self) -> None:
        after = kernel_s()
        factor = (self._before + after) / 2 / KERNEL_REF_S
        self.factors.append(factor)
        for i in self._pending:
            self.items[i][1] = factor
        self._pending = []
        self._before = after

    def reference_s(self, handle: int) -> float:
        seconds, factor = self.items[handle]
        return seconds / factor

    def measured_s(self, handle: int) -> float:
        return self.items[handle][0]


# --- in-process workloads (orbits, basin) ---

def run_tasks(tasks, tally: Tally, clock: SpeedClock, tracer=None) -> tuple[list[int], list]:
    """One pass: (clock handle per task, outputs); an output is None on failure."""
    handles, outputs = [], []
    clock.start()
    for task in tasks:
        if tracer is not None:
            tracer.task = task.name
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            try:
                out = task.run()
            except Exception as exc:  # a failed operation is counted, the run goes on
                out = None
                tally.fail(f"{task.name}: {type(exc).__name__}: {exc}")
            seconds = perf_counter() - t0
        handles.append(clock.add(seconds))
        tally.attempted += 1
        if tracing.count_nonfinite(caught):
            if out is not None:
                tally.fail(f"{task.name}: non-finite RuntimeWarning")
            out = None
        outputs.append(out)
    clock.finish()
    return handles, outputs


def passes(run_pass, seconds: float) -> list:
    """Repeat whole passes while the next one, at the mean pass time so far, still
    ends within `seconds`; at least one pass runs."""
    results = []
    start = perf_counter()
    while True:
        results.append(run_pass())
        elapsed = perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


# --- cli workload ---

def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["sha256"]


def reference_key(argv: list[str]) -> str:
    return " ".join(argv)


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import seconds per module, first occurrence, from `-X importtime`."""
    out = {}
    for line in text.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cum, name = line.split("|")
            name = name.strip()
            if name not in out and cum.strip().isdigit():
                out[name] = int(cum) / 1e6
    return out


def run_cli_pass(commands, tally: Tally, reference: dict, traced: bool,
                 corrected: bool = False) -> dict:
    """Each command in a fresh interpreter, one after another, then its checks.

    When `corrected`, a reference child follows each command, and the latencies
    are divided by the pass's child speed factor."""
    import workloads
    res = {"latencies": [], "rss": [], "spans": [], "import_s": 0.0, "scipy_s": 0.0,
           "rows": 0, "identical": 0, "reference_s": []}
    for name, argv in commands:
        csv_path = WORK / f"{name}.csv"
        err_path = WORK / f"{name}.err"
        spans_path = WORK / f"{name}.spans.json"
        if traced:
            child = [sys.executable, "-X", "importtime", str(BENCH_DIR / "cli_child.py"),
                     str(spans_path)]
        else:
            child = [sys.executable, "-c", CLI_ENTRY]
        wall, code, rss = run_child(child + argv + ["--out", str(csv_path)], err_path)
        res["latencies"].append(wall)
        res["rss"].append(rss)
        if corrected:
            res["reference_s"].append(reference_child())
        tally.attempted += 1
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        if code != 0:
            tally.fail(f"{name}: exit code {code}: {stderr[-500:]}")
            continue
        if any("RuntimeWarning" in line and ("overflow" in line or "invalid" in line)
               for line in stderr.splitlines()):
            tally.fail(f"{name}: non-finite RuntimeWarning")
        if traced:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            offset = len(res["spans"])
            res["spans"] += [[s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1, s[4], s[5]]
                             for s in spans]
            times = parse_importtime(stderr)
            res["import_s"] += times.get("anisokepler.cli", 0.0)
            res["scipy_s"] += times.get("scipy.integrate", 0.0)
    if corrected:
        res["measured_s"] = res["latencies"]
        factor = statistics.median(res["reference_s"]) / REFERENCE_CHILD_S
        res["latencies"] = [w / factor for w in res["latencies"]]
    for name, argv in commands:
        csv_path = WORK / f"{name}.csv"
        if not csv_path.is_file():
            continue
        data = csv_path.read_bytes()
        res["identical"] += hashlib.sha256(data).hexdigest() == reference.get(reference_key(argv))
        rows = workloads.read_csv_rows(str(csv_path))
        res["rows"] += len(rows)
        tally.add_checks(workloads.check_cli_output(name, rows))
        csv_path.unlink()
    return res


# --- the two kinds of run ---

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    import workloads
    setup_probe(workload, seed)  # fills the bytecode and file caches, not timed
    setup, ref_children = [], []

    def probe_setup(n):
        for _ in range(n):
            setup.append(setup_probe(workload, seed))
            ref_children.append(reference_child())

    probe_setup(SETUP_PROBES // 2)
    inputs = workloads.build(workload, seed)
    detail = {}
    if workload == "cli":
        reference = load_reference()
        results = passes(lambda: run_cli_pass(inputs, tally, reference, False, True), seconds)
        per_pass = [r["latencies"] for r in results]
        detail["measured_pass_wall_s"] = [round(sum(r["measured_s"]), 4) for r in results]
        peak_rss = max(x for r in results for x in r["rss"])
        units_per_pass = len(inputs)
    else:
        check = workloads.check_orbits if workload == "orbits" else workloads.check_basin
        clock = SpeedClock()
        first = []

        def one_pass():
            handles, outputs = run_tasks(inputs, tally, clock)
            tally.add_checks(check(inputs, outputs))  # outside the timed tasks
            if not first:
                first.append(outputs)
            return handles

        handles = passes(one_pass, seconds)
        per_pass = [[clock.reference_s(h) for h in hs] for hs in handles]
        detail["measured_pass_wall_s"] = [round(sum(clock.measured_s(h) for h in hs), 4)
                                          for hs in handles]
        detail["speed_factor_median"] = round(statistics.median(clock.factors), 4)
        if workload == "basin":  # criterion 9: the same seed gives the same fraction
            _, again = run_tasks(inputs[:1], tally, SpeedClock())
            if again[0] is None or again[0] != first[0][0]:
                tally.fail("criterion9 re-run with the same seed gave another fraction")
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units_per_pass = sum(t.samples for t in inputs)
    probe_setup(SETUP_PROBES - len(setup))
    # setup probes: measured seconds over the speed factor of the reference
    # children that ran next to them
    child_factor = statistics.median(ref_children) / REFERENCE_CHILD_S
    detail["measured_setup_probe_s"] = [round(w, 4) for w in setup]
    detail["child_speed_factor"] = round(child_factor, 4)
    setup = [w / child_factor for w in setup]

    walls = [sum(lat) for lat in per_pass]
    # a task's latency is its median over the passes; the percentiles run over tasks
    latencies = [statistics.median(lat) for lat in zip(*per_pass)]
    wall = statistics.median(walls)
    margin = min(tally.margins.values()) if tally.margins else 0.0
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(wall, "s"),
        "task_s_p50": metric(percentile(latencies, 50), "s"),
        "task_s_p90": metric(percentile(latencies, 90), "s"),
        "samples_per_s": metric(units_per_pass / wall, "1/s"),
        "tol_margin_dec": metric(margin, "dec"),
        "peak_rss_mb": metric(peak_rss, "MB"),
    }
    samples = {"setup_s": len(setup), "wall_s": len(walls), "task_s_p50": len(latencies),
               "task_s_p90": len(latencies), "passes_per_task_median": len(walls),
               "samples_per_s": len(walls), "tol_margin_dec": len(tally.margins),
               "peak_rss_mb": len(per_pass) * len(inputs) if workload == "cli" else 1,
               "units_per_pass": units_per_pass}
    detail.update(samples=samples, pass_wall_s=[round(w, 4) for w in walls],
                  setup_probe_s=[round(w, 4) for w in setup])
    if workload == "cli":
        detail["command_s"] = {name: round(t, 4) for (name, _), t in zip(inputs, latencies)}
    return metrics, detail


def traced_run(workload: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Pairs of one untraced and one traced pass for `seconds`; per-layer metrics per pass.

    Per-layer times are measured seconds. The overhead compares the two sides of
    each pair in reference seconds. In-process workloads first run one untimed
    pass, so first-call costs fall on neither side."""
    import workloads
    inputs = workloads.build(workload, seed)
    tracer = tracing.Tracer()
    clock = SpeedClock()
    if workload == "cli":
        reference = load_reference()

        def one_pass(traced):
            res = run_cli_pass(inputs, tally, reference, traced)
            res["measured"] = res["reference"] = sum(res["latencies"])
            return res
    else:
        check = workloads.check_orbits if workload == "orbits" else workloads.check_basin

        def one_pass(traced):
            if traced:
                tracer.install(extra_modules=[workloads])
            try:
                handles, outputs = run_tasks(inputs, tally, clock, tracer if traced else None)
            finally:
                tracer.uninstall()
            tally.add_checks(check(inputs, outputs))
            return {"measured": sum(clock.measured_s(h) for h in handles),
                    "reference": sum(clock.reference_s(h) for h in handles)}

        one_pass(False)
    pairs = passes(lambda: (one_pass(False), one_pass(True)), seconds)
    traced = [t for _, t in pairs]
    n = len(traced)

    overhead = statistics.median(t["reference"] / p["reference"] - 1.0 for p, t in pairs)
    traced_wall = statistics.median(t["measured"] for t in traced)
    extra = {
        "cli.import_s": (sum(r.get("import_s", 0.0) for r in traced) / n, "s"),
        "cli.import_scipy_integrate_s": (sum(r.get("scipy_s", 0.0) for r in traced) / n, "s"),
        "cli.csv_rows": (sum(r.get("rows", 0) for r in traced) / n, "count"),
        "cli.csv_identical": (sum(r.get("identical", 0) for r in traced) / n, "count"),
    }
    if workload == "cli":
        tracer.spans = [s for r in traced for s in r["spans"]]
    tracer.dump(str(WORK / f"spans-{workload}-seed{seed}.json"))
    layers = tracing.layer_metrics(tracer.spans, n)
    layers.update(extra)
    layers["trace.wall_s"] = (traced_wall, "s")
    layers["trace.overhead_frac"] = (overhead, "ratio")
    layers["integrate.busy_share"] = (layers["integrate.busy_s"][0] / traced_wall, "ratio")
    metrics = {k: metric(v, u) for k, (v, u) in layers.items()}
    return metrics, {"samples": {"traced_passes": n, "untraced_passes": n}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("orbits", "basin", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "anisokepler" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/anisokepler", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import anisokepler
    if SRC.resolve() not in Path(anisokepler.__file__).resolve().parents:
        print(f"error: anisokepler was imported from {anisokepler.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    print(json.dumps({"machine": machine_info()}), flush=True)
    tally = Tally()
    try:
        run = traced_run if args.trace else timed_run
        metrics, detail = run(args.workload, args.seed, args.seconds, tally)
    finally:
        for pattern in ("*.csv", "*.csv.manifest.json", "*.err", "*.spans.json"):
            for path in WORK.glob(pattern):
                path.unlink()
    worst = min(tally.margins, key=tally.margins.get) if tally.margins else None
    print(json.dumps({"detail": {"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **detail,
                                 "tightest_margin": worst, "failures": tally.failures}}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": min(tally.failed, tally.attempted), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
