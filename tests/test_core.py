"""Unregularized Hamiltonian system: potential, field, energy, symmetries."""

import math

import numpy as np
import pytest

from anisokepler.core import (
    CartesianState,
    DomainError,
    Params,
    SymmetryId,
    _jacobian,
    apply_symmetry,
    cartesian_rhs,
    hamiltonian,
    potential,
)
from anisokepler.integrate import IntegratorConfig, integrate

FD_STEP = 1e-5
FD_RTOL = 1e-6


def fd_grad(s, p, step=FD_STEP):
    """Central-difference oracle for the potential gradient."""
    gx = (potential(CartesianState(s.x + step, s.y, 0, 0), p)
          - potential(CartesianState(s.x - step, s.y, 0, 0), p)) / (2 * step)
    gy = (potential(CartesianState(s.x, s.y + step, 0, 0), p)
          - potential(CartesianState(s.x, s.y - step, 0, 0), p)) / (2 * step)
    return gx, gy


def field(s, p):
    """(dx, dy, dpx, dpy) = (px, py, -dU/dx, -dU/dy): the integrator's closure at s."""
    return cartesian_rhs(p)(0.0, s.as_array())


def grad_potential(s, p):
    """The gradient of U: the negated momentum rates of the field."""
    f = field(s, p)
    return -f[2], -f[3]


def compose(g1, g2):
    """g1 after g2: the sign vectors multiply componentwise, and the Enum's value
    lookup names the product (it raises ValueError outside the group)."""
    return SymmetryId(tuple(a * b for a, b in zip(g1.value, g2.value)))


def random_states(rng, n, r_lo=0.5, r_hi=10.0):
    r = rng.uniform(r_lo, r_hi, n)
    th = rng.uniform(0, 2 * math.pi, n)
    mom = rng.normal(0, 1, (n, 2))
    return [CartesianState(ri * math.cos(ti), ri * math.sin(ti), mi[0], mi[1])
            for ri, ti, mi in zip(r, th, mom)]


class TestPotential:
    def test_both_terms_unit(self):
        p = Params(beta=2, mu=1, b=1)
        assert potential(CartesianState(1, 0, 0, 0), p) == pytest.approx(-2.0)

    def test_y_axis_anisotropy_invisible(self):
        p = Params(beta=2, mu=4, b=1)
        assert potential(CartesianState(0, 1, 0, 0), p) == pytest.approx(-2.0)

    def test_direct_arithmetic(self):
        p = Params(beta=3, mu=2, b=0.5)
        expected = -1 / math.sqrt(2) - 0.5 * 3.0 ** -1.5
        assert potential(CartesianState(1, 1, 0, 0), p) == pytest.approx(expected, rel=1e-15)

    def test_origin_rejected(self):
        p = Params(beta=2, mu=1, b=1)
        with pytest.raises(DomainError):
            potential(CartesianState(0, 0, 1, 1), p)
        with pytest.raises(DomainError):
            potential(CartesianState(1e-13, 0, 0, 0), p)

    def test_pull_beyond_the_float_range_is_zero(self):
        # q^(beta/2) = 1.2e450 overflows a float power; numpy's power gives inf
        p = Params(beta=3, mu=1.2, b=0.5)
        far = CartesianState(1e150, 0.0, 0.0, 1.0)
        assert potential(far, p) == -1e-150
        with np.errstate(over="ignore"):
            assert potential(CartesianState(*far.as_array()), p) == -1e-150


class TestGradient:
    def test_even_symmetry_on_axes(self):
        p = Params(beta=2, mu=1, b=1)
        assert grad_potential(CartesianState(1, 0, 0, 0), p)[1] == 0.0
        p2 = Params(beta=3.5, mu=2.5, b=0.7)
        assert grad_potential(CartesianState(0, 1, 0, 0), p2)[0] == 0.0

    def test_matches_finite_differences_at_spec_point(self):
        p = Params(beta=3, mu=2, b=0.5)
        s = CartesianState(1, 1, 0, 0)
        gx, gy = grad_potential(s, p)
        fx, fy = fd_grad(s, p)
        assert gx == pytest.approx(fx, rel=FD_RTOL)
        assert gy == pytest.approx(fy, rel=FD_RTOL)

    def test_matches_finite_differences_random(self):
        rng = np.random.default_rng(0)
        for s in random_states(rng, 100):
            for p in (Params(2, 1, 1), Params(2.5, 1.3, 0.4), Params(4, 3, 2)):
                g = grad_potential(s, p)
                f = fd_grad(s, p)
                scale = max(1.0, abs(f[0]), abs(f[1]))
                assert abs(g[0] - f[0]) <= FD_RTOL * scale
                assert abs(g[1] - f[1]) <= FD_RTOL * scale


class TestField:
    def test_velocity_part_is_momentum(self):
        p = Params(beta=3, mu=2, b=0.5)
        f = field(CartesianState(1, 2, 3, 4), p)
        assert f[0] == 3 and f[1] == 4

    def test_radial_force_magnitude(self):
        # on the x-axis at r=1 with mu=1: |U'(1)| = 1 + 2b
        p = Params(beta=2, mu=1, b=1)
        f = field(CartesianState(1, 0, 0, 0), p)
        assert f[2] == pytest.approx(-3.0)
        assert f[3] == 0.0


class TestComplexStep:
    def test_exact_on_a_closed_form(self):
        def f(xp, x, y, p):
            return x * x * y, xp.sin(x) * xp.cos(y)

        x, y = 0.7, -1.3
        want = [[2 * x * y, x * x], [math.cos(x) * math.cos(y), -math.sin(x) * math.sin(y)]]
        assert np.allclose(_jacobian(f, [x, y], None), want, rtol=4e-16, atol=0)

    def test_scalar_field_gives_its_gradient(self):
        grad = _jacobian(lambda xp, x, y, p: x * y * y, [2.0, 3.0], None)
        assert grad.shape == (2,) and grad.tolist() == [9.0, 12.0]

    def test_non_finite_derivative_is_numerical_failure(self):
        # a power above the floats raises on Python complex, and numpy complex
        # scalars give NaN there
        with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match="not finite"):
            _jacobian(lambda xp, x, p: 1.0 / x ** 400.5, [10.0], None)


class TestHamiltonian:
    def test_rest_state(self):
        assert hamiltonian(CartesianState(1, 0, 0, 0), Params(2, 1, 1)) == pytest.approx(-2.0)

    def test_kinetic_added(self):
        assert hamiltonian(CartesianState(1, 0, 1, 1), Params(2, 1, 1)) == pytest.approx(-1.0)

    def test_anisotropic_arithmetic(self):
        s = CartesianState(0, 1, 0, math.sqrt(2))
        assert hamiltonian(s, Params(2, 4, 1)) == pytest.approx(-1.0)

    @pytest.mark.parametrize("beta", [2.0, 2.5, 3.0, 4.0])
    def test_energy_conserved_along_flow(self, beta):
        rng = np.random.default_rng(int(beta * 10))
        p = Params(beta, 1.4, 0.3)
        for _ in range(5):
            r = rng.uniform(0.8, 3.0)
            th = rng.uniform(0, 2 * math.pi)
            # enough angular momentum that the centrifugal barrier shields the
            # short arc from the collision singularity
            ut = 1.6 / r
            ur = rng.uniform(-0.3, 0.3)
            s = CartesianState(r * math.cos(th), r * math.sin(th),
                               ur * math.cos(th) - ut * math.sin(th),
                               ur * math.sin(th) + ut * math.cos(th))
            h0 = hamiltonian(s, p)
            traj = integrate(cartesian_rhs(p), s.as_array(), (0.0, 1.0),
                             monitors={"H": lambda t, y: hamiltonian(CartesianState(*y), p)})
            assert traj.invariant_drift["H"] <= 1e-8 * max(1.0, abs(h0))


class TestSymmetries:
    def test_s0_row(self):
        out, t = apply_symmetry(SymmetryId.S0, CartesianState(1, 2, 3, 4), 5.0)
        assert (out.x, out.y, out.px, out.py, t) == (1, 2, -3, -4, -5.0)

    def test_every_element_is_involution(self):
        s = CartesianState(1.1, -2.2, 0.3, 4.0)
        for g in SymmetryId:
            out, t = apply_symmetry(g, *apply_symmetry(g, s, 5.0))
            assert (out, t) == (s, 5.0)
            assert compose(g, g) is SymmetryId.ID

    def test_group_closure(self):
        table = {(g1, g2): compose(g1, g2) for g1 in SymmetryId for g2 in SymmetryId}
        assert set(table.values()) == set(SymmetryId)

    def test_s1_compose_s2(self):
        # componentwise sign product of the S1 and S2 rows
        assert compose(SymmetryId.S1, SymmetryId.S2) is SymmetryId.S3
        s = CartesianState(1, 2, 3, 4)
        via_maps, t = apply_symmetry(SymmetryId.S1, *apply_symmetry(SymmetryId.S2, s, 5.0))
        direct, td = apply_symmetry(SymmetryId.S3, s, 5.0)
        assert (via_maps, t) == (direct, td)

    def test_abelian(self):
        for g1 in SymmetryId:
            for g2 in SymmetryId:
                assert compose(g1, g2) is compose(g2, g1)

    @pytest.mark.parametrize("g", list(SymmetryId))
    def test_flow_equivariance(self, g):
        # S(phi_t(s)) = phi_(sigma t)(S(s)) for the time-reversal sign sigma of S
        p = Params(beta=3, mu=1.5, b=0.5)
        s = CartesianState(1.2, 0.4, -0.1, 0.9)
        t_fwd = 0.1
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
        end = integrate(cartesian_rhs(p), s.as_array(), (0.0, t_fwd), cfg).final_state
        mapped_end, t_mapped = apply_symmetry(g, CartesianState(*end), t_fwd)
        start_mapped, _ = apply_symmetry(g, s, 0.0)
        other = integrate(cartesian_rhs(p), start_mapped.as_array(),
                          (0.0, t_mapped), cfg).final_state
        assert np.allclose(mapped_end.as_array(), other, atol=1e-9)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Params(beta=2, mu=0.5, b=1)
        with pytest.raises(ValueError):
            Params(beta=2, mu=1, b=0)
        with pytest.raises(ValueError):
            Params(beta=math.nan, mu=1, b=1)

    def test_epsilon_derived(self):
        assert Params(beta=2, mu=1.25, b=1).epsilon == 0.25

    def test_beta_bound_helpers(self):
        p = Params(beta=2, mu=1, b=1)
        p.require_beta_above(2.0, strict=False)
        with pytest.raises(ValueError):
            p.require_beta_above(2.0)
        with pytest.raises(ValueError):
            p.require_beta_equal(3.0)
