"""Saddle connections on the collision torus and their splitting.

In angle variables (theta, psi) with u = sqrt(2b)/Delta^(beta/4) sin(psi),
v = sqrt(2b)/Delta^(beta/4) cos(psi), the isotropic flow (mu = 1) has constant
slope dpsi/dtheta = (beta-2)/2, so saddle-to-saddle connections close up
exactly when that slope is 1/(1+2k) or 1/(2(1+k)) -- in particular at beta = 3
and beta = 4.  Switching on a small anisotropy eps = mu - 1 shifts the branch
by eps * zeta1(theta) at first order, and the unstable/stable pair at the
comparison section misses by 2 * zeta1 * eps: the connection breaks.
"""

import math

import numpy as np

from anisokepler import Params
from anisokepler.torus import (
    TorusState,
    comparison_section,
    connection_beta,
    splitting_gap,
    splitting_verdict,
    trace_manifold,
    zeta0,
    zeta1,
    zeta1_quadrature,
)

print("exponent families with unperturbed connections:")
for k in range(3):
    print(f"  k={k}:  2+2/(1+2k) = {connection_beta('a', k):.4f}   "
          f"2+1/(1+k) = {connection_beta('b', k):.4f}")

print("\nfirst-order branch shift at the section (closed form vs quadrature):")
print(f"  beta=3, theta=0:      {zeta1(3, 0.0):.12f}  vs  {zeta1_quadrature(3, 0.0):.12f}"
      f"   (3 pi/4 = {0.75 * math.pi:.12f})")
print(f"  beta=4, theta=-pi/2:  {zeta1(4, -math.pi/2):.12f}  vs  "
      f"{zeta1_quadrature(4, -math.pi/2):.12f}   (pi/2 = {math.pi/2:.12f})")

for beta in (3, 4):
    section = comparison_section(beta)
    predicted_slope = 2 * zeta1(beta, section)
    print(f"\nbeta = {beta} (section theta = {section:+.4f}, "
          f"predicted gap slope 2 zeta1 = {predicted_slope:.6f})")

    # unperturbed branch traces the connection line exactly
    p0 = Params(float(beta), 1.0, 0.5)
    th, ps = trace_manifold(TorusState(-math.pi, 0.0), "unstable", p0).T
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
