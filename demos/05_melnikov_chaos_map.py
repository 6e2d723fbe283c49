"""Melnikov scan over the exponent: where the zero-energy flow turns chaotic.

Treating the anisotropy as a perturbation of the Kepler problem along its
zero-energy parabolic orbits, the splitting of the asymptotic manifolds of the
point at infinity is M2(theta0) = I2 sin(2 theta0).  The amplitude carries the
factor (beta-2)(beta-3): simple zeros of M2 -- the chaos indicator -- appear
for every exponent beta > 3/2 except the two integrable ones, beta = 2 and
beta = 3.  This reproduces the I2/A-versus-beta profile as a data file.
"""

import math

import numpy as np

from anisokepler import ChaosVerdict, chaos_verdict
from anisokepler.melnikov import (i1_parity_check, i2_amplitude, i2_beta_roots, i2_closed_form,
                                  i2_quadrature)

print("verdicts along the exponent axis (p = 1):")
for beta in (1.75, 2.0, 2.5, 3.0, 4.0, 5.0):
    verdict = chaos_verdict(beta)
    zeros = ("theta0 in {0, pi/2, pi, 3pi/2}" if verdict is ChaosVerdict.SIMPLE_ZEROS
             else "none")
    print(f"  beta = {beta:4}: I2 = {i2_closed_form(1.0, beta):+.8f} "
          f"(quadrature {i2_quadrature(1.0, beta):+.8f}, "
          f"|I1| = {abs(i1_parity_check(1.0, beta)):.1e}); "
          f"M2 zeros: {zeros};  {verdict.value}")

roots = i2_beta_roots()
print(f"\nroots of I2 on (3/2, 10], refined by bisection: "
      f"{', '.join(f'{r:.12f}' for r in roots)}")
print(f"I2(p=1, beta=4) = {i2_closed_form(1.0, 4.0):.15f}  (pi = {math.pi:.15f})")

# the profile data: same rows the `anisokepler melnikov` command emits
grid = np.arange(1.6, 5.0 + 1e-9, 0.02)
rows = []
for b in grid:
    i2 = i2_closed_form(1.0, b)
    rows.append((b, i2_quadrature(1.0, b), i2, i2 / i2_amplitude(1.0, b)))
path = "melnikov_profile.csv"
with open(path, "w", encoding="utf-8") as f:
    f.write("# columns: beta,i2_quadrature,i2_closed_form,i2_over_A\n")
    for row in rows:
        f.write(",".join(format(x, ".17g") for x in row) + "\n")
ratios = np.array([r[3] for r in rows])
print(f"\nwrote {path} ({len(rows)} rows); sign pattern of I2/A: "
      f"positive below 2 ({np.all(ratios[grid < 1.99] > 0)}), "
      f"negative on (2,3) ({np.all(ratios[(grid > 2.01) & (grid < 2.99)] < 0)}), "
      f"positive above 3 ({np.all(ratios[grid > 3.01] > 0)})")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(grid, ratios, lw=1.5)
    ax.axhline(0.0, color="k", lw=0.5)
    for r in roots:
        ax.axvline(r, color="r", ls=":", lw=0.8)
    ax.set_xlabel("beta")
    ax.set_ylabel("I2 / A")
    ax.set_title("Melnikov amplitude: zeros at the integrable exponents")
    fig.tight_layout()
    fig.savefig("melnikov_profile.png", dpi=120)
    print("wrote melnikov_profile.png")
except ImportError:
    pass
