"""Shared test helpers: Jacobian and closed-form oracles, acceptance reporting."""

import math
import time
from contextlib import contextmanager

import numpy as np

from anisokepler.core import _jacobian
from anisokepler.mcgehee import _field_arrays


def level_jacobian(m, p):
    """The (r, theta, u) block of the McGehee field's complex-step Jacobian at m:
    at an equilibrium (r = u = 0), the linearization on the energy level."""
    return _jacobian(_field_arrays, m.as_array(), p)[np.ix_((0, 2, 3), (0, 2, 3))]


def zeta1_trig(beta, theta):
    """Closed forms of `torus.zeta1` at beta = 3 (j = 2) and beta = 4 (j = 1)."""
    if beta == 3:
        ch, sh = math.cos(theta / 2), math.sin(theta / 2)
        return -4.5 * ch * sh + 0.75 * theta + 3.0 * ch ** 3 * sh + 0.75 * math.pi
    if beta == 4:
        return math.cos(theta) * math.sin(theta) + theta + math.pi
    raise ValueError(f"no closed form at beta = {beta}")


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    """Times an acceptance criterion and prints one pass/fail line."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        print(f"ACCEPTANCE {number:2d} FAIL  [{elapsed:7.2f}s / {budget_s:g}s]  {description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {number:2d} PASS  [{elapsed:7.2f}s / {budget_s:g}s]  {description}")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s runtime budget"
