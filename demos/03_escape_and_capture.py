"""Escapes and captures on the zero-energy level.

Inverting the radius (rho = 1/r) and rescaling compactifies r = infinity into
an invariant torus I0 carrying two circles of normally hyperbolic equilibria
at vbar = +-sqrt(2).  The attracting circle C+ is the omega-limit of every
escape orbit; the repelling circle C- emits the captures.  On I0 itself the
flow is a foliation by heteroclinics from C- to C+ with the closed form
theta - theta0 = -2 (psi - psi0), vbar(theta) = sqrt2 sin((theta + k)/2).
"""

import math

import numpy as np

from anisokepler import Params, infinity_equilibria
from anisokepler.infinity import (
    SQRT2,
    InfinityState,
    i0_flow_closed_form,
    infinity_rhs,
    limit_circle,
)
from anisokepler.integrate import IntegratorConfig, integrate
from anisokepler.mcgehee import delta

p = Params(beta=3.0, mu=1.4, b=0.5, h=0.0)
cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)

rep = infinity_equilibria(p)
print("equilibrium circles at infinity (independent of beta):")
print(f"  C+ at vbar = +sqrt2: eigenvalues {rep.c_plus.eigenvalues}  -> sink")
print(f"  C- at vbar = -sqrt2: eigenvalues {rep.c_minus.eigenvalues}  -> source")

# one heteroclinic on I0, against its closed form
th0, ps0 = 1.0, 2.4
curve = i0_flow_closed_form(th0, ps0)
s0 = InfinityState(0.0, SQRT2 * math.cos(ps0), th0, SQRT2 * math.sin(ps0))
traj = integrate(infinity_rhs(p), s0.as_array(), (0.0, 40.0), cfg)
vb, th, ub = traj.states[:, 1], traj.states[:, 2], traj.states[:, 3]
psi = np.unwrap(np.arctan2(ub / SQRT2, vb / SQRT2))
print(f"\nI0 orbit from (theta0, psi0) = ({th0}, {ps0}):")
print(f"  runs {vb[0]:+.4f} -> {vb[-1]:+.4f} in vbar (C- to C+: "
      f"{limit_circle(traj.times, traj.states)!r} limit detected)")
print(f"  line residual  max|theta - (theta0 - 2(psi - psi0))| = "
      f"{np.max(np.abs(th - curve.theta_of_psi(psi))):.2e}")
print(f"  vbar residual  max|vbar - sqrt2 sin((theta+k)/2)|    = "
      f"{np.max(np.abs(vb - curve.vbar_of_theta(th))):.2e}")
print(f"  theta winds by {th[-1] - th[0]:+.6f} = 2 psi0 (the full C- to C+ "
      f"connection sweeps 2 pi)")

# an escape orbit off the boundary, and a capture from its time-reversal
rho0, th0, vb0 = 0.3, 0.9, 1.0
ub0 = math.sqrt(2 + 2 * p.b / delta(th0, p.mu) ** 1.5 * rho0 ** 2 - vb0 ** 2)
esc = InfinityState(rho0, vb0, th0, ub0)
fwd = integrate(infinity_rhs(p), esc.as_array(), (0.0, 30.0), cfg)
print(f"\nescape orbit from rho = {rho0} (r = {1/rho0:.2f}): "
      f"rho -> {fwd.states[-1, 0]:.2e}, vbar -> {fwd.states[-1, 1]:.6f} "
      f"({limit_circle(fwd.times, fwd.states)!r} limit)")

cap = InfinityState(rho0, -vb0, th0, -ub0)
bwd = integrate(infinity_rhs(p), cap.as_array(), (0.0, -30.0), cfg)
print(f"its time-reversal is a capture: alpha-limit "
      f"{limit_circle(np.abs(bwd.times), bwd.states)!r} (vbar -> "
      f"{bwd.states[-1, 1]:.6f})")
