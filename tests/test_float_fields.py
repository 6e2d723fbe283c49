"""Single-state fields on Python floats against numpy-scalar evaluation.

Every closure the package hands to `integrate`, each energy residual, the
beta = 2 integrals H2 and G and the Cartesian potential evaluate their chart's
one definition on Python floats through `math`, by the one rule
`core._on_floats`.  These tests hold each one to the numpy-scalar evaluation of
the same definition, bit for bit and NaN for NaN, including the states where a
float operation would raise or turn complex.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisokepler.beta2 import (
    PolarState,
    _angular_integral,
    _hamiltonian,
    _polar_arrays,
    integral_G,
    polar_hamiltonian,
    polar_rhs,
)
from anisokepler.core import (
    CartesianState,
    Params,
    _cartesian_arrays,
    _on_floats,
    _potential,
    cartesian_rhs,
    potential,
)
from anisokepler.infinity import (
    InfinityState,
    _infinity_arrays,
    _infinity_residual,
    infinity_energy_residual,
    infinity_rhs,
)
from anisokepler.integrate import IntegratorConfig, integrate
from anisokepler.mcgehee import (
    McGeheeState,
    _field_arrays,
    _residual,
    energy_residual,
    level_through,
    mcgehee_rhs,
)
from anisokepler.torus import _graph_arrays, _graph_rhs, _torus_arrays, torus_rhs


def _branch_rhs(p):
    """The closure `trace_manifold` integrates, dpsi/dtheta with theta as the
    time, on the state (theta, psi)."""
    return lambda t, y: _graph_rhs(p)(y[0], y[1:])


def _residual_entry(residual, state, definition, size=abs):
    """(closure factory, definition) of a first integral the CLI evaluates on a
    state object, as a 0-d array.  The state refuses a negative leading radius,
    so both sides take its `size`."""
    def on_size(xp, lead, *rest):
        return definition(xp, size(lead), *rest)

    return (lambda p: lambda t, y: np.array(residual(state(size(y[0]), *y[1:]), p)), on_size)


def _polar_size(r):
    """|r|, and the least positive double for a zero, which `PolarState` refuses;
    there r * r underflows to zero, so the float path raises and falls back."""
    return abs(r) or np.float64(math.ulp(0.0))


def _angular_integral_on_state(xp, r, theta, pr, ptheta, p):
    return _angular_integral(xp, theta, ptheta, p)


# (closure factory, its definition, state size, index of theta, chart): the
# chart fixes beta or h where the closure requires it
CLOSURES = {
    "cartesian": (cartesian_rhs, _cartesian_arrays, 4, None, None),
    "mcgehee": (mcgehee_rhs, _field_arrays, 4, 2, None),
    "infinity": (infinity_rhs, _infinity_arrays, 4, 2, "h=0"),
    "polar": (polar_rhs, _polar_arrays, 4, 1, "beta=2"),
    "torus": (torus_rhs, _torus_arrays, 2, 0, None),
    "branch": (_branch_rhs, _graph_arrays, 2, 0, None),
    "energy_residual": (*_residual_entry(energy_residual, McGeheeState, _residual), 4, 2, None),
    "infinity_energy_residual": (*_residual_entry(infinity_energy_residual, InfinityState,
                                                  _infinity_residual), 4, 2, "h=0"),
    "polar_hamiltonian": (*_residual_entry(polar_hamiltonian, PolarState, _hamiltonian,
                                           _polar_size), 4, 1, "beta=2"),
    "integral_G": (*_residual_entry(integral_G, PolarState, _angular_integral_on_state,
                                    _polar_size), 4, 1, "beta=2"),
    "potential": (lambda p: lambda t, y: np.array(potential(CartesianState(*y, 0.0, 0.0), p)),
                  _potential, 2, None, None),
}


def _params(beta, mu, b, h, chart):
    if chart == "beta=2":
        beta = 2.0
    if chart == "h=0":
        h = 0.0
    return Params(beta, mu, b, h)


def _reals(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _numpy_scalars(field, y, p):
    """The definition on numpy scalars, as every closure evaluated it before, or
    the class of what that raises: the Cartesian chart refuses the origin."""
    with np.errstate(all="ignore"):
        try:
            return np.array(field(np, *y, p))
        except (ValueError, OverflowError) as exc:
            return type(exc)


def _on_closure(rhs, y):
    """rhs(0, y), failing on a complex cast, or the class of what it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        try:
            return rhs(0.0, y)
        except (ValueError, OverflowError) as exc:
            return type(exc)


def _assert_bitwise(got, want):
    if isinstance(want, type):
        assert got is want
        return
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


# mu up to 1e300 overflows the Delta powers; r and rho below 0 take a
# non-integral power of a negative base, as a trial stage past r = 0 can
_MU = st.one_of(_reals(1.0, 4.0), _reals(0.0, 300.0).map(lambda e: 10.0 ** e))
_BETA = _reals(2.0, 6.0).filter(lambda beta: beta != math.floor(beta))


@pytest.mark.parametrize("name", CLOSURES)
@settings(max_examples=200, deadline=None)
@given(beta=_BETA, mu=_MU, b=_reals(0.01, 2.0), h=_reals(-1.0, 1.0),
       lead=_reals(-1.0, 3.0), theta=_reals(-10.0, 10.0),
       rest=st.lists(_reals(-3.0, 3.0), min_size=4, max_size=4))
def test_float_closure_equals_numpy_scalars(name, beta, mu, b, h, lead, theta, rest):
    make, field, size, theta_at, chart = CLOSURES[name]
    p = _params(beta, mu, b, h, chart)
    y = np.array([lead, *rest])[:size]  # r or rho leads
    if theta_at is not None:
        y[theta_at] = theta
    _assert_bitwise(_on_closure(make(p), y), _numpy_scalars(field, y, p))


@pytest.mark.parametrize("name", CLOSURES)
def test_special_values_take_numpy_values(name):
    """inf, NaN, signed zeros and huge entries in every position, where the
    float path raises (sine of inf, division by zero, overflow) or must match."""
    make, field, size, _, chart = CLOSURES[name]
    p = _params(2.5, 3.0, 0.5, -0.2, chart)
    for special in (math.inf, -math.inf, math.nan, 0.0, -0.0, 1e300):
        for i in range(size):
            y = np.array([0.7, -0.4, 1.1, 0.3, 0.2])[:size]
            y[i] = special
            _assert_bitwise(_on_closure(make(p), y), _numpy_scalars(field, y, p))


def _counted(rhs):
    def f(t, y):
        f.calls += 1
        return rhs(t, y)

    f.calls = 0
    return f


# `simulate --coords mcgehee` with these options: a trial stage takes r below 0
# at beta = 2.5, and mu = 1e200 overflows Delta^((beta+2)/2)
REPRODUCERS = [
    pytest.param(2.5, 1.2, 400.0, "invalid value", id="beta2.5-negative-r"),
    pytest.param(3.0, 1e200, 5.0, "overflow", id="mu1e200-overflow"),
]


@pytest.mark.parametrize("beta, mu, t_final, numpy_warning", REPRODUCERS)
def test_reproducers_integrate_as_on_numpy_scalars(beta, mu, t_final, numpy_warning):
    m0 = McGeheeState(0.5, -0.8, 1.4, 0.1)
    base = Params(beta, mu, 0.5)
    p = level_through(m0, base)

    reference = _counted(lambda t, y: np.array(_field_arrays(np, *y, p)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        want = integrate(reference, m0.as_array(), (0.0, t_final), IntegratorConfig())
    # the run does reach the state where float arithmetic differs from numpy's
    assert any(numpy_warning in str(w.message) for w in caught)

    closure = _counted(mcgehee_rhs(p))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        got = integrate(closure, m0.as_array(), (0.0, t_final), IntegratorConfig())

    assert closure.calls == reference.calls
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()


@pytest.mark.parametrize("beta, mu, t_final, numpy_warning", REPRODUCERS)
def test_reproducers_integrate_unwrapped_as_on_numpy_scalars(beta, mu, t_final,
                                                             numpy_warning):
    """The closure passed as it is, so that the stepper evaluates its stages on
    Python floats.  A trial stage past r = 0 turns complex there and is taken
    again by the closure's numpy-scalar fallback; the product Delta^(beta/2)
    Delta overflows to inf in float arithmetic as on numpy.  Either way the run
    gives the reference's bytes, without a warning."""
    m0 = McGeheeState(0.5, -0.8, 1.4, 0.1)
    p = level_through(m0, Params(beta, mu, 0.5))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        want = integrate(lambda t, y: np.array(_field_arrays(np, *y, p)), m0.as_array(),
                         (0.0, t_final), IntegratorConfig())
    assert any(numpy_warning in str(w.message) for w in caught)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        got = integrate(mcgehee_rhs(p), m0.as_array(), (0.0, t_final), IntegratorConfig())

    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()


# a state of Python floats where the float evaluation of the McGehee field
# raises each of the three exceptions the rule falls back on: r < 0 at a
# non-integral beta turns r^(beta-1) complex (TypeError in the float array),
# theta = inf makes math.cos raise ValueError, and mu = 1e300 overflows the
# power of Delta (OverflowError)
FALLBACKS = [
    pytest.param(2.5, 1.2, [-0.3, 0.2, 0.4, 0.1], id="complex"),
    pytest.param(2.5, 1.2, [0.3, 0.2, math.inf, 0.1], id="sine-of-inf"),
    pytest.param(3.5, 1e300, [0.3, 0.2, 0.4, 0.1], id="overflow"),
]


@pytest.mark.parametrize("beta, mu, ys", FALLBACKS)
def test_on_floats_falls_back_to_numpy_scalars(beta, mu, ys):
    """`_on_floats` on a list of Python floats: where the float evaluation raises,
    the numpy-scalar values, without a warning."""
    p = Params(beta, mu, 0.5)
    assert all(type(y) is float for y in ys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _on_floats(_field_arrays, ys, p)
    _assert_bitwise(got, _numpy_scalars(_field_arrays, np.array(ys), p))
