"""Saddle connections on the collision torus and their splitting.

In angle variables (theta, psi) with u = sqrt(2b)/Delta^(beta/4) sin(psi),
v = sqrt(2b)/Delta^(beta/4) cos(psi), the isotropic flow (mu = 1) has constant
slope dpsi/dtheta = (beta-2)/2, so the branch out of the saddle (-pi, 0) is the
line psi = (theta+pi)/j with j = 2/(beta-2); it reaches another saddle exactly
when j is a positive integer, the family beta = 2 + 2/j (beta = 4 is j = 1,
beta = 3 is j = 2).  Switching on a small anisotropy eps = mu - 1 shifts the
branch by eps * zeta1(theta) at first order, and the unstable/stable pair at
the comparison section misses by 2 * zeta1 * eps = (j+1) pi/2 * eps: the
connection breaks.
"""

import math

import numpy as np

from anisokepler import Params
from anisokepler.torus import (
    comparison_section,
    connection_beta,
    splitting_gap,
    splitting_verdict,
    trace_manifold,
    zeta0,
    zeta1,
)

print("exponents with unperturbed connections, and zeta1 at the section:")
for j in range(1, 7):
    beta = connection_beta(j)
    z1 = zeta1(beta, comparison_section(beta))
    print(f"  j={j}:  beta = 2+2/j = {beta:.4f}   zeta1 = {z1:.12f}"
          f"   ((j+1) pi/4 = {(j + 1) * math.pi / 4:.12f})")

for beta in (3, 4, 2.5):
    section = comparison_section(beta)
    predicted_slope = 2 * zeta1(beta, section)
    print(f"\nbeta = {beta} (section theta = {section:+.4f}, "
          f"predicted gap slope 2 zeta1 = {predicted_slope:.6f})")

    # unperturbed branch traces the connection line exactly
    p0 = Params(float(beta), 1.0, 0.5)
    th, ps = trace_manifold(p0).T
    line = zeta0(beta, th)
    print(f"  eps = 0: max distance from the connection line = "
          f"{np.max(np.abs(ps - line)):.2e};  verdict: "
          f"{splitting_verdict(splitting_gap(beta, p0)[0]).value}")

    for eps in (1e-3, 2e-3, 4e-3):
        p = Params(float(beta), 1.0 + eps, 0.5)
        gap, psi_u, psi_s = splitting_gap(beta, p)
        print(f"  eps = {eps:.0e}: psi_u = {psi_u:.8f}, psi_s = {psi_s:.8f}, "
              f"gap = {gap:.6e} = {gap / eps:.4f} * eps;  verdict: "
              f"{splitting_verdict(gap).value}")
