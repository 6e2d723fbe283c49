"""Zero-energy behavior at infinity: inverted chart, equilibrium circles, I0 flow."""

import math

import numpy as np
import pytest

from anisokepler.core import Params
from anisokepler.integrate import IntegratorConfig, integrate
from anisokepler.infinity import (
    SQRT2,
    InfinityState,
    from_infinity_coords,
    i0_flow_closed_form,
    i0_rhs,
    infinity_energy_residual,
    infinity_equilibria,
    infinity_field,
    infinity_jacobian,
    infinity_rhs,
    limit_circle,
    to_infinity_coords,
)
from anisokepler.mcgehee import McGeheeState, delta, energy_residual

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
P = Params(beta=3, mu=1.4, b=0.5, h=0.0)


def on_level_mcgehee(r, theta, phi, p):
    """h = 0 state with (u, v) on the circle fixed by the energy relation."""
    mag = math.sqrt(2 * r ** (p.beta - 1) + 2 * p.b / delta(theta, p.mu) ** (p.beta / 2))
    return McGeheeState(r, mag * math.cos(phi), theta, mag * math.sin(phi))


def reduced_infinity_field(z, p, v_sign):
    """(rho', theta', ubar') with vbar eliminated through the h = 0 relation."""
    rho, theta, ub = z
    s2 = 2.0 + 2.0 * p.b / delta(theta, p.mu) ** (p.beta / 2) * rho ** (p.beta - 1) - ub * ub
    vb = v_sign * math.sqrt(s2)
    f = infinity_rhs(p)(0.0, np.array([rho, vb, theta, ub]))
    return np.array([f[0], f[2], f[3]])


class TestChart:
    def test_unit_radius_fixed_point(self):
        m = McGeheeState(1.0, 0.3, 1.1, -0.4)
        s = to_infinity_coords(m, P)
        assert (s.rho, s.vbar, s.theta, s.ubar) == (1.0, 0.3, 1.1, -0.4)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = McGeheeState(rng.uniform(0.2, 5), rng.normal(), rng.uniform(0, 6), rng.normal())
            s = to_infinity_coords(m, P)
            back = from_infinity_coords(s, P)
            assert np.allclose(back.as_array(), m.as_array(), atol=1e-12)

    def test_energy_relation_maps_to_inverted_form(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            m = on_level_mcgehee(rng.uniform(0.3, 4), rng.uniform(0, 2 * math.pi),
                                 rng.uniform(0, 2 * math.pi), P)
            assert abs(energy_residual(m, P)) < 1e-12
            assert abs(infinity_energy_residual(to_infinity_coords(m, P), P)) < 1e-12

    def test_requires_zero_energy(self):
        with pytest.raises(ValueError):
            to_infinity_coords(McGeheeState(1, 0, 0, 1), Params(3, 1.4, 0.5, h=-0.1))


class TestField:
    def test_vanishes_on_equilibrium_circles(self):
        rep = infinity_equilibria(P)
        for circle in (rep.c_plus, rep.c_minus):
            for th in np.linspace(0, 2 * math.pi, 100):
                f = infinity_field(circle.point(th), P)
                assert np.max(np.abs(f)) < 1e-14

    def test_boundary_invariance(self):
        s = InfinityState(0.0, 0.7, 2.0, 1.1)
        assert infinity_field(s, P)[0] == 0.0
        traj = integrate(infinity_rhs(P), s.as_array(), (0.0, 6.0))
        assert np.all(traj.states[:, 0] == 0.0)

    def test_vbar_rate_on_manifold(self):
        for psi in np.linspace(0.1, 2 * math.pi - 0.1, 17):
            s = InfinityState(0.0, SQRT2 * math.cos(psi), 0.8, SQRT2 * math.sin(psi))
            f = infinity_field(s, P)
            assert f[1] == pytest.approx(0.5 * s.ubar ** 2, abs=1e-14)
            assert f[1] >= -1e-15

    def test_first_integral_drift(self):
        # close ubar through the relation to start on the level
        ub = math.sqrt(2 + 2 * P.b / delta(1.2, P.mu) ** 1.5 * 0.4 ** 2 - 0.81)
        s = InfinityState(0.4, 0.9, 1.2, ub)
        traj = integrate(infinity_rhs(P), s.as_array(), (0.0, 10.0), TIGHT,
                         monitors={"E": lambda t, y: infinity_energy_residual(
                             InfinityState(*y), P)})
        assert traj.invariant_drift["E"] <= 1e-8

    def test_no_equilibria_off_manifold(self):
        rng = np.random.default_rng(5)
        worst = math.inf
        for _ in range(2000):
            rho = rng.uniform(1e-3, 2.0)
            th = rng.uniform(0, 2 * math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            mag = math.sqrt(2 + 2 * P.b / delta(th, P.mu) ** 1.5 * rho ** 2)
            s = InfinityState(rho, mag * math.cos(phi), th, mag * math.sin(phi))
            worst = min(worst, float(np.linalg.norm(infinity_field(s, P))))
        assert worst > 1e-4


class TestEquilibriumCircles:
    def test_beta_independent(self):
        a = infinity_equilibria(Params(2.5, 1.4, 0.5, h=0.0))
        b = infinity_equilibria(Params(5.0, 1.4, 0.5, h=0.0))
        assert a.c_plus.vbar == b.c_plus.vbar == SQRT2
        assert a.c_minus.vbar == b.c_minus.vbar == -SQRT2

    def test_eigenvalues_closed_form(self):
        rep = infinity_equilibria(P)
        assert sorted(rep.c_plus.eigenvalues) == pytest.approx([-SQRT2, -SQRT2 / 2, 0.0])
        assert sorted(rep.c_minus.eigenvalues) == pytest.approx([0.0, SQRT2 / 2, SQRT2])
        assert rep.c_plus.attracting and not rep.c_minus.attracting

    def test_jacobian_matrix_eigenvalues(self):
        for v0 in (SQRT2, -SQRT2):
            lam = sorted(z.real for z in np.linalg.eigvals(infinity_jacobian(v0)))
            assert lam == pytest.approx(sorted([-v0, 0.0, -v0 / 2]), abs=1e-12)

    def test_fd_jacobian_matches_analytic(self):
        # reduced (rho, theta, ubar) chart around a C+ point
        step = 1e-6
        z0 = np.array([0.0, 1.3, 0.0])
        J = np.zeros((3, 3))
        for j in range(3):
            if j == 0:
                f0 = reduced_infinity_field(z0, P, +1)
                z1, z2 = z0.copy(), z0.copy()
                z1[0] += step
                z2[0] += 2 * step
                J[:, 0] = (-3 * f0 + 4 * reduced_infinity_field(z1, P, +1)
                           - reduced_infinity_field(z2, P, +1)) / (2 * step)
            else:
                zp, zm = z0.copy(), z0.copy()
                zp[j] += step
                zm[j] -= step
                J[:, j] = (reduced_infinity_field(zp, P, +1)
                           - reduced_infinity_field(zm, P, +1)) / (2 * step)
        assert np.allclose(J, infinity_jacobian(SQRT2), atol=1e-6)

    def test_orbits_attracted_and_repelled(self):
        # forward flow near C+ converges to it; near C- it leaves
        near_plus = InfinityState(1e-3, SQRT2 - 1e-3, 0.7, 0.0)
        traj = integrate(infinity_rhs(P), near_plus.as_array(), (0.0, 15.0), TIGHT)
        assert limit_circle(traj.times, traj.states) == "+"
        near_minus = InfinityState(1e-3, -SQRT2 + 1e-3, 0.7, 0.0)
        traj2 = integrate(infinity_rhs(P), near_minus.as_array(), (0.0, 15.0), TIGHT)
        d_end = abs(traj2.final_state[1] + SQRT2)
        assert d_end > 0.1


class TestI0Flow:
    def test_closed_form_matches_integration(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            th0 = rng.uniform(0, 2 * math.pi)
            ps0 = rng.uniform(0.2, math.pi - 0.2)
            curve = i0_flow_closed_form(th0, ps0)
            y0 = [SQRT2 * math.cos(ps0), th0, SQRT2 * math.sin(ps0)]
            traj = integrate(i0_rhs(), y0, (0.0, 8.0), TIGHT)
            vb, th, ub = traj.states.T
            assert np.max(np.abs(vb - curve.vbar_of_theta(th))) < 1e-8
            psi = np.unwrap(np.arctan2(ub / SQRT2, vb / SQRT2))
            # straight line in (theta, psi) with d theta / d psi = -2
            assert np.max(np.abs(th - curve.theta_of_psi(psi))) < 1e-8
            assert np.max(np.abs(psi - curve.psi_of_theta(th))) < 1e-8

    def test_gradient_like_vbar(self):
        y0 = [SQRT2 * math.cos(2.6), 0.0, SQRT2 * math.sin(2.6)]
        traj = integrate(i0_rhs(), y0, (0.0, 12.0), TIGHT)
        assert np.all(np.diff(traj.states[:, 0]) > 0)

    def test_heteroclinic_foliation(self):
        # every nonequilibrium I0 orbit runs from C- to C+
        rng = np.random.default_rng(9)
        for _ in range(10):
            ps0 = rng.uniform(0.3, math.pi - 0.3)
            th0 = rng.uniform(0, 2 * math.pi)
            s0 = InfinityState(0.0, SQRT2 * math.cos(ps0), th0, SQRT2 * math.sin(ps0))
            fwd = integrate(infinity_rhs(P), s0.as_array(), (0.0, 40.0), TIGHT)
            bwd = integrate(infinity_rhs(P), s0.as_array(), (0.0, -40.0), TIGHT)
            assert limit_circle(fwd.times, fwd.states) == "+"
            assert limit_circle(np.abs(bwd.times), bwd.states) == "-"

    def test_equilibrium_data_rejected(self):
        with pytest.raises(ValueError):
            i0_flow_closed_form(1.0, 0.0)

    def test_theta_span_of_full_connection(self):
        # psi runs pi -> 0 while theta sweeps one full turn
        curve = i0_flow_closed_form(0.0, math.pi / 2)
        assert curve.theta_of_psi(0.0) - curve.theta_of_psi(math.pi) == pytest.approx(2 * math.pi)


class TestEscapeCapture:
    def test_escape_and_capture_orbits_exist(self):
        # an h = 0 orbit off the boundary escaping to C+; its time-reversal
        # (vbar, ubar sign flip) is a capture emanating from C-
        rho0, th0, vb0 = 0.3, 0.9, 1.0
        ub0 = math.sqrt(2 + 2 * P.b / delta(th0, P.mu) ** 1.5 * rho0 ** 2 - vb0 ** 2)
        esc = InfinityState(rho0, vb0, th0, ub0)
        fwd = integrate(infinity_rhs(P), esc.as_array(), (0.0, 30.0), TIGHT)
        assert limit_circle(fwd.times, fwd.states) == "+"

        cap = InfinityState(rho0, -vb0, th0, -ub0)
        bwd = integrate(infinity_rhs(P), cap.as_array(), (0.0, -30.0), TIGHT)
        assert limit_circle(np.abs(bwd.times), bwd.states) == "-"
