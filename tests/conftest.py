"""Shared test helpers: finite-difference and closed-form oracles, acceptance reporting."""

import math
import time
from contextlib import contextmanager

import numpy as np

from anisokepler.mcgehee import reduced_field


def fd_jacobian_reduced(z0, p, v_sign, step=1e-6):
    """Finite-difference Jacobian of the on-level (r, theta, u) field.

    The r-column uses a second-order one-sided formula so the probe never
    leaves the half-space r >= 0.
    """
    J = np.zeros((3, 3))
    for j in range(3):
        if j == 0 and z0[0] < step:
            f0 = reduced_field(np.array(z0, float), p, v_sign)
            z1 = np.array(z0, float)
            z2 = np.array(z0, float)
            z1[0] += step
            z2[0] += 2 * step
            J[:, 0] = (-3 * f0 + 4 * reduced_field(z1, p, v_sign)
                       - reduced_field(z2, p, v_sign)) / (2 * step)
            continue
        zp = np.array(z0, float)
        zm = np.array(z0, float)
        zp[j] += step
        zm[j] -= step
        J[:, j] = (reduced_field(zp, p, v_sign) - reduced_field(zm, p, v_sign)) / (2 * step)
    return J


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
