"""Spans around the package's public entry points, installed from outside the package.

A span is [name, start, end, parent index, task id, info]. Spans stay in
memory; `dump` writes them out when the run ends. Calls to the field, event
and monitor callables passed to `integrate` are too many for one span each, so
the `integrate` span counts them and sums their time in its `info`.

`anisokepler/__init__.py` re-exports the function `integrate`, which shadows
the submodule of that name, so the module is reached through `sys.modules`;
`torus` and `cli` bind `integrate` by name. `install` therefore rebinds every
module-level name that refers to a wrapped function, in every loaded package
module and in the modules passed to it.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import warnings
from collections import defaultdict
from time import perf_counter

FIELD_MODULES = ("core", "mcgehee", "torus", "infinity", "beta2")


def count_nonfinite(caught) -> int:
    """Captured numpy overflow or invalid-value RuntimeWarnings."""
    return sum(issubclass(w.category, RuntimeWarning)
               and any(k in str(w.message) for k in ("overflow", "invalid"))
               for w in caught)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []  # (module, name, original)
        self.task = None

    def begin(self, name: str) -> list:
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, self.task, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5]["failed"] = 1
                raise
            finally:
                self.end(span)

        return wrapper

    def wrap_integrate(self, integrate):
        sig = inspect.signature(integrate)

        def timed(fn, counts):
            def call(t, y):
                t0 = perf_counter()
                out = fn(t, y)
                counts[0] += 1
                counts[1] += perf_counter() - t0
                return out

            return call

        def traced_integrate(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            a = bound.arguments
            field_n, event_n, monitor_n = [0, 0.0], [0, 0.0], [0, 0.0]
            module = getattr(a["field"], "__module__", "") or ""
            a["field"] = timed(a["field"], field_n)
            if a.get("events"):
                a["events"] = [dataclasses.replace(ev, fn=timed(ev.fn, event_n))
                               for ev in a["events"]]
            if a.get("monitors"):
                a["monitors"] = {k: timed(f, monitor_n) for k, f in a["monitors"].items()}
            span = self.begin("integrate")
            info = span[5]
            try:
                traj = integrate(*bound.args, **bound.kwargs)
                info["steps"] = len(traj.times) - 1
                info["events_fired"] = len(traj.events)
                return traj
            except BaseException:
                info["failed"] = 1
                raise
            finally:
                self.end(span)
                info.update(field_module=module.rsplit(".", 1)[-1],
                            field_calls=field_n[0], field_s=field_n[1],
                            event_calls=event_n[0], event_s=event_n[1],
                            monitor_calls=monitor_n[0], monitor_s=monitor_n[1])

        return traced_integrate

    def wrap_basin(self, basin_fraction):
        sig = inspect.signature(basin_fraction)

        def traced_basin_fraction(*args, **kwargs):
            n = sig.bind(*args, **kwargs).arguments["n"]
            span = self.begin("mcgehee.basin_fraction")
            info = span[5]
            info["samples"] = n
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    frac = basin_fraction(*args, **kwargs)
            except BaseException:
                info["failed"] = 1
                raise
            finally:
                self.end(span)
            info["collided"] = round(frac * n)
            info["nonfinite_warnings"] = count_nonfinite(caught)
            # recorded, then passed on to the caller's own warning handling
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return frac

        return traced_basin_fraction

    def install(self, extra_modules=()) -> None:
        """Wrap the entry points of every loaded package module; `uninstall` undoes it."""
        mods = sys.modules
        targets = [
            (mods["anisokepler.integrate"], "integrate", self.wrap_integrate),
            (mods["anisokepler.mcgehee"], "basin_fraction", self.wrap_basin),
            (mods["anisokepler.torus"], "splitting_gap",
             lambda f: self.wrap("torus.splitting_gap", f)),
            (mods["anisokepler.melnikov"], "i2_quadrature",
             lambda f: self.wrap("melnikov.i2_quadrature", f)),
            (mods["anisokepler.melnikov"], "i2_closed_form",
             lambda f: self.wrap("melnikov.i2_closed_form", f)),
        ]
        if "anisokepler.cli" in mods:
            cli = mods["anisokepler.cli"]
            targets += [(cli, name, lambda f, name=name: self.wrap(f"cli.{name}", f))
                        for name in ("main", "write_csv", "write_manifest")]
        scope = [m for name, m in list(mods.items())
                 if name == "anisokepler" or name.startswith("anisokepler.")]
        scope += list(extra_modules)
        for owner, name, make in targets:
            original = getattr(owner, name)
            wrapper = make(original)
            for module in scope:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)


def layer_metrics(spans: list[list], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one pass, averaged over `passes` traced passes."""
    total = defaultdict(float)
    count = defaultdict(int)
    fields = defaultdict(lambda: [0, 0.0])
    for name, start, end, _, _, info in spans:
        count[name] += 1
        total[name + ".busy"] += end - start
        for k, v in info.items():
            if isinstance(v, (int, float)):
                total[f"{name}.{k}"] += v
        if name == "integrate":
            fields[info["field_module"]][0] += info["field_calls"]
            fields[info["field_module"]][1] += info["field_s"]

    def per_pass(key):
        return total[key] / passes

    def ratio(num, den, scale=1.0):
        return scale * total[num] / total[den] if total[den] else 0.0

    calls = {name: count[name] / passes for name in count}
    steps = per_pass("integrate.steps")
    work_s = per_pass("integrate.field_s") + per_pass("integrate.event_s") + per_pass("integrate.monitor_s")
    out = {
        "integrate.calls": (calls.get("integrate", 0), "count"),
        "integrate.busy_s": (per_pass("integrate.busy"), "s"),
        "integrate.self_s": (per_pass("integrate.busy") - work_s, "s"),
        "integrate.steps": (steps, "count"),
        "integrate.self_us_per_step": (
            1e6 * (per_pass("integrate.busy") - work_s) / steps if steps else 0.0, "us"),
        "integrate.field_calls": (per_pass("integrate.field_calls"), "count"),
        "integrate.field_calls_per_step": (ratio("integrate.field_calls", "integrate.steps"), "ratio"),
        "integrate.field_s": (per_pass("integrate.field_s"), "s"),
        "integrate.event_calls": (per_pass("integrate.event_calls"), "count"),
        "integrate.event_s": (per_pass("integrate.event_s"), "s"),
        "integrate.events_fired": (per_pass("integrate.events_fired"), "count"),
        "integrate.monitor_calls": (per_pass("integrate.monitor_calls"), "count"),
        "integrate.monitor_s": (per_pass("integrate.monitor_s"), "s"),
        "integrate.failed": (per_pass("integrate.failed"), "count"),
    }
    for module in FIELD_MODULES:
        n, t = fields[module]
        out[f"{module}.rhs.calls"] = (n / passes, "count")
        out[f"{module}.rhs.us_per_call"] = (1e6 * t / n if n else 0.0, "us")
    b = "mcgehee.basin_fraction"
    out.update({
        f"{b}.calls": (calls.get(b, 0), "count"),
        f"{b}.busy_s": (per_pass(b + ".busy"), "s"),
        f"{b}.samples": (per_pass(b + ".samples"), "count"),
        f"{b}.collided": (per_pass(b + ".collided"), "count"),
        f"{b}.us_per_sample": (ratio(b + ".busy", b + ".samples", 1e6), "us"),
        f"{b}.nonfinite_warnings": (per_pass(b + ".nonfinite_warnings"), "count"),
    })
    for name in ("torus.splitting_gap", "melnikov.i2_quadrature", "melnikov.i2_closed_form"):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.busy_s"] = (per_pass(name + ".busy"), "s")
    out["cli.run_s"] = (per_pass("cli.main.busy"), "s")
    out["cli.write_s"] = (per_pass("cli.write_csv.busy") + per_pass("cli.write_manifest.busy"), "s")
    return out
