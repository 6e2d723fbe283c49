"""The integrable exponent beta = 2.

With the anisotropic term at inverse-square range the problem separates in the
Hamilton-Jacobi sense: G = ptheta^2/2 - b/Delta(theta) Poisson-commutes with
the Hamiltonian, so the flow is integrable -- in sharp contrast to every other
exponent beta > 3/2 except beta = 3.  On the zero-energy level the infinity
set degenerates into two circles of fixed points, and every orbit asymptotic
to them emanates from the collision manifold with limiting radial velocity
sqrt(1/k), where k labels the invariant (rho, vbar) hyperbola.
"""

import math

import numpy as np

from anisokepler import Params, classify_heteroclinic, integral_G, poisson_bracket_H2_G
from anisokepler.beta2 import (
    PolarState,
    beta2_energy_residual,
    beta2_mcgehee_rhs,
    polar_hamiltonian,
    zero_velocity_radius,
)
from anisokepler.integrate import Event, IntegratorConfig, integrate
from anisokepler.mcgehee import McGeheeState, delta

p = Params(beta=2.0, mu=1.5, b=0.5, h=0.0)
rng = np.random.default_rng(0)

worst = 0.0
for _ in range(1000):
    s = PolarState(rng.uniform(0.3, 4.0), rng.uniform(0, 2 * math.pi),
                   rng.normal(), rng.normal(0, 1.5))
    worst = max(worst, abs(poisson_bracket_H2_G(s, p)))
print(f"max |{{H2, G}}| over 1000 random states: {worst:.2e}")

# both integrals along one regularized orbit
s = PolarState(1.5, 0.8, 0.1, 1.5)
lvl = Params(2.0, p.mu, p.b, h=polar_hamiltonian(s, p))
m0 = McGeheeState(s.r, s.r * s.pr, s.theta, s.ptheta)
traj = integrate(beta2_mcgehee_rhs(lvl), m0.as_array(), (0.0, 10.0),
                 IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14),
                 monitors={
                     "H2": lambda t, y: polar_hamiltonian(
                         PolarState(y[0], y[2], y[1] / y[0], y[3]), lvl),
                     "G": lambda t, y: integral_G(
                         PolarState(y[0], y[2], y[1] / y[0], y[3]), lvl)})
print(f"drift over 10 units of regularized time: "
      f"H2 {traj.invariant_drift['H2']:.2e}, G {traj.invariant_drift['G']:.2e}")

# bounded motion for h < 0: the zero-velocity curve
pb = Params(2.0, 1.5, 0.5, h=-0.5)
print("\nzero-velocity radius r0(theta) at h = -0.5:")
for th in (0.0, math.pi / 4, math.pi / 2):
    print(f"  theta = {th:.4f}: r0 = {zero_velocity_radius(th, pb):.6f}")
print(f"(isotropic reference at mu = 1: 1 + sqrt2 = {1 + math.sqrt(2):.6f})")

# heteroclinics between infinity and collision on h = 0: pick k, start near
# infinity, integrate backward, read off the limiting v on the collision side
print("\ncollision-side targets by the invariant label k (b = 1/2, mu = 2):")
p8 = Params(2.0, 2.0, 0.5, h=0.0)
hit = Event(lambda t, y: y[0] - 1e-6, "collision")
for k, th0 in ((1.0, math.pi / 2), (2.0, 0.9), (3.5, 0.9)):
    cls = classify_heteroclinic(k * (1.5 ** 2 - 2), 1.5, p8)
    vb0 = 1.5
    rho0 = k * (vb0 ** 2 - 2)
    ub2 = max(2 + 2 * p8.b * rho0 / delta(th0, p8.mu) - vb0 ** 2, 0.0)
    m0 = McGeheeState(1 / rho0, vb0 / math.sqrt(rho0), th0, math.sqrt(ub2 / rho0))
    assert abs(beta2_energy_residual(m0, p8)) < 1e-9
    traj = integrate(beta2_mcgehee_rhs(p8), m0.as_array(), (0.0, -200.0),
                     IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13), events=[hit])
    v_end = traj.final_state[1]
    print(f"  k = {k}: backward flow hits r = 1e-6 with v = {v_end:.6f} "
          f"(sqrt(1/k) = {math.sqrt(1/k):.6f})  ->  {cls.target.value}")
