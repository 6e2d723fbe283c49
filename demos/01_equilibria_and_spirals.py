"""Collision-manifold equilibria and their stability.

Blowing up the collision of the two-body problem with potential
-1/r - b/(mu x^2 + y^2)^(beta/2) glues an invariant torus {r = 0} into phase
space.  For beta > 2 the regularized flow has exactly eight rest points on it,
A^+-_(0, pi/2, pi, 3pi/2): four saddles on the axes, two sources and two sinks
on the diagonals.  Above the anisotropy threshold mu* = (beta+2)^2/(8 beta)
the source/sink spectra acquire complex pairs and nearby collision orbits
spiral in with infinite spin.
"""

import numpy as np

from anisokepler import Params, equilibria, spiral_threshold
from anisokepler.integrate import integrate
from anisokepler.mcgehee import mcgehee_rhs, McGeheeState, energy_residual, level_through

p = Params(beta=3.0, mu=1.2, b=0.5, h=-0.25)

print(f"parameters: beta={p.beta}, mu={p.mu}, b={p.b}, h={p.h}")
print(f"spiral threshold mu* = (beta+2)^2/(8 beta) = {spiral_threshold(p.beta):.6f}")
print(f"(for beta=3 this is 25/24 = {25/24:.6f})\n")

print(f"{'label':>9} {'v*':>9} {'eigenvalues':>46} {'class':>14}")
for e in equilibria(p):
    eigs = ", ".join(f"{z.real:+.4f}{z.imag:+.4f}i" for z in e.eigenvalues)
    print(f"{e.label:>9} {e.location.v:+9.4f} {eigs:>46} {e.stability.value:>14}")

# sweep mu across the threshold and watch the complex pair appear
print("\nspiraling flag at A+_pi/2 while sweeping mu:")
for mu in (1.01, 1.03, spiral_threshold(3.0), 1.05, 1.2):
    reports = {e.label: e for e in equilibria(Params(3.0, mu, 0.5))}
    flag = reports["A+_pi/2"].spiraling
    print(f"  mu = {mu:.6f}: spiraling = {flag}")

# a collision orbit: start near the sink A-_pi/2 and fall in; the energy
# relation certifies the integration
m0 = McGeheeState(r=0.2, v=-0.9, theta=np.pi / 2 + 0.1, u=0.1)
level = level_through(m0, p)
traj = integrate(mcgehee_rhs(level), m0.as_array(), (0.0, 15.0),
                 monitors={"energy relation": lambda t, y: energy_residual(
                     McGeheeState(*y), level)})
r_path = traj.states[:, 0]
v_path = traj.states[:, 1]
print(f"\ncollision orbit from r={m0.r}: r(15) = {r_path[-1]:.3e}, "
      f"v -> {v_path[-1]:+.6f} (sink value {-1.0:+.6f})")
print(f"energy-relation drift along the orbit: {traj.invariant_drift['energy relation']:.2e}")
