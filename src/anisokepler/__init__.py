"""Numerical laboratory for the planar two-body problem with potential
-1/sqrt(x^2+y^2) - b/(mu x^2 + y^2)^(beta/2).

Submodules: core (Cartesian flow and symmetries), mcgehee (regularized flow and
collision manifold), torus (saddle-connection splitting), infinity (zero-energy
escapes and captures), beta2 (the integrable exponent), melnikov (perturbative
chaos indicator), integrate (shared numerics), cli (data-file front end).
"""

from .core import CartesianState, DomainError, Params, SymmetryId
from .core import apply_symmetry, hamiltonian, potential
from .integrate import Event, IntegratorConfig, Trajectory, integrate
from .mcgehee import (
    EquilibriumReport,
    McGeheeState,
    Stability,
    basin_fraction,
    energy_residual,
    equilibria,
    from_mcgehee,
    spiral_threshold,
    to_mcgehee,
)
from .torus import SplittingVerdict, TorusState, trace_manifold
from .infinity import InfinityState, i0_flow_closed_form, infinity_equilibria
from .beta2 import (
    HeteroclinicClass,
    HeteroclinicTarget,
    PolarState,
    classify_heteroclinic,
    integral_G,
    poisson_bracket_H2_G,
    zero_velocity_radius,
)
from .melnikov import (
    ChaosVerdict,
    chaos_verdict,
    i2_closed_form,
    i2_quadrature,
    melnikov_M2,
)

__version__ = "0.1.0"
