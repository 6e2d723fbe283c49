"""Integrable exponent beta = 2: extra integral, regularized flow, heteroclinics."""

import math

import numpy as np
import pytest

from anisokepler.core import Params
from anisokepler.integrate import Event, IntegratorConfig, integrate
from anisokepler.beta2 import (
    HeteroclinicTarget,
    PolarState,
    beta2_energy_residual,
    beta2_g,
    beta2_infinity_g,
    beta2_mcgehee_rhs,
    classify_heteroclinic,
    integral_G,
    poisson_bracket_H2_G,
    polar_hamiltonian,
    polar_rhs,
    rho_of_vbar,
    zero_velocity_radius,
)
from anisokepler.infinity import (
    SQRT2,
    InfinityState,
    infinity_energy_residual,
    infinity_field,
    infinity_rhs,
)
from anisokepler.mcgehee import McGeheeState, delta, mcgehee_field

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
P = Params(beta=2, mu=1.5, b=0.5, h=0.0)


def random_polar(rng, n=1):
    out = [PolarState(rng.uniform(0.3, 4.0), rng.uniform(0, 2 * math.pi),
                      rng.normal(0, 1), rng.normal(0, 1.5)) for _ in range(n)]
    return out if n > 1 else out[0]


def fd_partial(f, s, idx, step=1e-6):
    ys = s.as_array()
    up, dn = ys.copy(), ys.copy()
    up[idx] += step
    dn[idx] -= step
    return (f(PolarState(*up)) - f(PolarState(*dn))) / (2 * step)


class TestIntegralG:
    def test_isotropic_reduction(self):
        p = Params(2, 1, 0.5)
        s = PolarState(1.0, 0.7, 0.1, 1.3)
        assert integral_G(s, p) == pytest.approx(0.5 * 1.3 ** 2 - 0.5)

    def test_wrong_beta_rejected(self):
        with pytest.raises(ValueError):
            integral_G(PolarState(1, 0, 0, 1), Params(3, 1.5, 0.5))

    def test_drift_along_polar_orbits(self):
        rng = np.random.default_rng(20)
        p = Params(2, 1.5, 0.5, h=0.0)
        for _ in range(5):
            s = PolarState(rng.uniform(1.0, 2.5), rng.uniform(0, 6.2),
                           rng.uniform(-0.2, 0.2), rng.uniform(1.3, 1.8))
            traj = integrate(polar_rhs(p), s.as_array(), (0.0, 10.0), TIGHT,
                             monitors={"G": lambda t, y: integral_G(PolarState(*y), p),
                                       "H": lambda t, y: polar_hamiltonian(PolarState(*y), p)})
            assert traj.invariant_drift["G"] <= 1e-8
            assert traj.invariant_drift["H"] <= 1e-8

    def test_matches_regularized_form_along_pushforward(self):
        # g = (u^2 - 2b/Delta)/2 equals G when the polar state is carried to
        # regularized variables (beta = 2: u = ptheta, v = r pr)
        rng = np.random.default_rng(21)
        p = Params(2, 1.3, 0.7)
        for _ in range(20):
            s = random_polar(rng)
            m = McGeheeState(s.r, s.r * s.pr, s.theta, s.ptheta)
            assert beta2_g(m, p) == pytest.approx(integral_G(s, p), rel=1e-12, abs=1e-12)


class TestPoissonBracket:
    def test_small_at_random_states(self):
        rng = np.random.default_rng(22)
        p = Params(2, 1.8, 0.6)
        for s in random_polar(rng, 100):
            assert abs(poisson_bracket_H2_G(s, p)) <= 1e-10

    def test_thousand_states_tight(self):
        rng = np.random.default_rng(23)
        p = Params(2, 2.5, 1.2)
        worst = max(abs(poisson_bracket_H2_G(s, p)) for s in random_polar(rng, 1000))
        assert worst <= 1e-10

    def test_isotropic_identically_zero(self):
        rng = np.random.default_rng(24)
        p = Params(2, 1.0, 0.9)
        for s in random_polar(rng, 20):
            assert poisson_bracket_H2_G(s, p) == 0.0

    def test_partials_match_finite_differences(self):
        p = Params(2, 1.6, 0.8)
        s = PolarState(1.3, 0.9, -0.4, 1.1)
        eps = p.mu - 1
        D = delta(s.theta, p.mu)
        dH_dth = -p.b * eps * math.sin(2 * s.theta) / (s.r ** 2 * D * D)
        dG_dth = -p.b * eps * math.sin(2 * s.theta) / (D * D)
        assert fd_partial(lambda q: polar_hamiltonian(q, p), s, 1) == pytest.approx(
            dH_dth, rel=1e-6)
        assert fd_partial(lambda q: integral_G(q, p), s, 1) == pytest.approx(dG_dth, rel=1e-6)
        assert fd_partial(lambda q: polar_hamiltonian(q, p), s, 3) == pytest.approx(
            s.ptheta / s.r ** 2, rel=1e-6)
        assert fd_partial(lambda q: integral_G(q, p), s, 3) == pytest.approx(s.ptheta, rel=1e-6)


class TestRegularizedFlow:
    def test_collision_manifold_flow_periodic_v_constant(self):
        p = Params(2, 1.4, 0.5, h=-0.3)
        D = delta(1.0, p.mu)
        u0 = math.sqrt(2 * p.b / D) * 0.6
        v0 = math.sqrt(2 * p.b / D - u0 * u0)
        m = McGeheeState(0.0, v0, 1.0, u0)
        f = mcgehee_field(m, p)
        assert f[0] == 0.0 and f[1] == 0.0  # r and v frozen on C
        traj = integrate(beta2_mcgehee_rhs(p), m.as_array(), (0.0, 20.0), TIGHT)
        assert np.all(traj.states[:, 0] == 0.0)
        assert np.max(np.abs(traj.states[:, 1] - v0)) < 1e-14
        # (theta, u) motion is periodic: theta returns near its start modulo 2 pi
        th = traj.states[:, 2]
        assert np.max(th) - np.min(th) > 2 * math.pi

    def test_energy_relation_conserved(self):
        p = Params(2, 1.5, 0.5, h=-0.25)
        m0 = McGeheeState(0.9, 0.2, 0.7, 0.8)
        lvl = Params(2, 1.5, 0.5, h=p.h + beta2_energy_residual(m0, p) / (2 * m0.r ** 2))
        assert abs(beta2_energy_residual(m0, lvl)) < 1e-12
        traj = integrate(beta2_mcgehee_rhs(lvl), m0.as_array(), (0.0, 10.0), TIGHT,
                         monitors={"E": lambda t, y: beta2_energy_residual(
                             McGeheeState(*y), lvl),
                             "g": lambda t, y: beta2_g(McGeheeState(*y), lvl)})
        assert traj.invariant_drift["E"] <= 1e-8
        assert traj.invariant_drift["g"] <= 1e-8

    def test_g_conserved_along_flow(self):
        # bounded orbit (h < 0): rescaled time does not compress an escape
        p = Params(2, 1.2, 0.4, h=-0.3)
        m0 = McGeheeState(1.4, -0.3, 2.0, 1.1)
        lvl = Params(2, 1.2, 0.4, h=p.h + beta2_energy_residual(m0, p) / (2 * m0.r ** 2))
        traj = integrate(beta2_mcgehee_rhs(lvl), m0.as_array(), (0.0, 8.0), TIGHT,
                         monitors={"g": lambda t, y: beta2_g(McGeheeState(*y), lvl)})
        assert traj.invariant_drift["g"] <= 1e-9


def close_to_closed_form(got, terms, rel=1e-15):
    """got equals sum(terms) to `rel` relative to the size of the terms."""
    want = math.fsum(terms)
    return abs(got - want) <= rel * sum(abs(t) for t in terms)


class TestSharedFieldsAtBetaTwo:
    # independent oracle: the paper's beta = 2 closed forms against the one
    # McGehee and one inverted-chart field, evaluated at beta = 2

    def test_mcgehee_field_closed_form(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            p = Params(2, rng.uniform(1.0, 3.0), rng.uniform(0.1, 2.0), h=rng.uniform(-1, 1))
            m = McGeheeState(rng.uniform(0.0, 4.0), rng.normal(0, 2), rng.uniform(-7, 7),
                             rng.normal(0, 2))
            eps, D = p.mu - 1.0, delta(m.theta, p.mu)
            f = mcgehee_field(m, p)
            assert close_to_closed_form(f[0], [m.r * m.v])
            assert close_to_closed_form(f[1], [2 * p.h * m.r ** 2, m.r])
            assert f[2] == m.u
            assert close_to_closed_form(f[3], [eps * p.b * math.sin(2 * m.theta) / D ** 2])
            assert np.array_equal(beta2_mcgehee_rhs(p)(0.0, m.as_array()), f)
            assert close_to_closed_form(beta2_energy_residual(m, p), [
                m.u ** 2, m.v ** 2, -2 * m.r, -2 * p.b / D, -2 * p.h * m.r ** 2])

    def test_infinity_field_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = Params(2, rng.uniform(1.0, 3.0), rng.uniform(0.1, 2.0), h=0.0)
            s = InfinityState(rng.uniform(0.0, 4.0), rng.normal(0, 2), rng.uniform(-7, 7),
                              rng.normal(0, 2))
            eps, D = p.mu - 1.0, delta(s.theta, p.mu)
            f = infinity_field(s, p)
            assert close_to_closed_form(f[0], [-s.rho * s.vbar])
            assert close_to_closed_form(f[1], [1.0, -0.5 * s.vbar ** 2])
            assert f[2] == s.ubar
            assert close_to_closed_form(f[3], [
                -0.5 * s.ubar * s.vbar, eps * p.b * s.rho * math.sin(2 * s.theta) / D ** 2])
            assert close_to_closed_form(infinity_energy_residual(s, p), [
                s.ubar ** 2, s.vbar ** 2, -2.0, -2 * p.b * s.rho / D])

    def test_beta2_entry_points_gate_the_exponent(self):
        m = McGeheeState(1.0, 0.1, 0.2, 0.3)
        with pytest.raises(ValueError):
            beta2_mcgehee_rhs(Params(3, 1.5, 0.5))
        with pytest.raises(ValueError):
            beta2_energy_residual(m, Params(3, 1.5, 0.5))


class TestZeroVelocity:
    def test_isotropic_value(self):
        p = Params(2, 1.0, 0.5, h=-0.5)
        assert zero_velocity_radius(0.0, p) == pytest.approx(1 + math.sqrt(2))
        # theta-independent at mu = 1
        assert zero_velocity_radius(1.2, p) == pytest.approx(1 + math.sqrt(2))

    def test_forbidden_region_beyond(self):
        p = Params(2, 1.7, 0.9, h=-0.4)
        for th in np.linspace(0, 2 * math.pi, 7):
            r0 = zero_velocity_radius(th, p)
            for r in (r0 * 1.01, r0 * 1.5):
                kinetic = 2 * p.h * r * r + 2 * r + 2 * p.b / delta(th, p.mu)
                assert kinetic < 0.0  # u^2 + v^2 would be negative
            on = 2 * p.h * r0 * r0 + 2 * r0 + 2 * p.b / delta(th, p.mu)
            assert abs(on) < 1e-12

    def test_depends_on_theta_only_through_delta(self):
        p = Params(2, 2.0, 0.5, h=-0.3)
        assert zero_velocity_radius(0.3, p) == pytest.approx(
            zero_velocity_radius(-0.3, p))
        assert zero_velocity_radius(0.3, p) == pytest.approx(
            zero_velocity_radius(math.pi - 0.3, p))

    def test_h_nonnegative_rejected(self):
        with pytest.raises(ValueError):
            zero_velocity_radius(0.0, Params(2, 1, 1, h=0.0))


class TestInfinitySystem:
    def test_invariant_exponential_family(self):
        # vbar = +-sqrt2 rays: rho = exp(-+ sqrt2 (s - s0)) solves the (rho, vbar) pair
        p = Params(2, 1.3, 0.5, h=0.0)
        for sign in (+1, -1):
            vb = sign * SQRT2
            rho0 = 0.2
            th0 = 0.4
            ub = sign * math.sqrt(2 * p.b * rho0 / delta(th0, p.mu))
            s0 = InfinityState(rho0, vb, th0, ub)
            assert abs(infinity_energy_residual(s0, p)) < 1e-14
            assert abs(beta2_infinity_g(s0, p)) < 1e-14  # this family has g = 0
            traj = integrate(infinity_rhs(p), s0.as_array(), (0.0, 2.0), TIGHT)
            rho = traj.states[:, 0]
            assert np.allclose(rho, rho0 * np.exp(-sign * SQRT2 * traj.times), atol=1e-10)
            assert np.max(np.abs(traj.states[:, 1] - vb)) < 1e-12

    def test_rho_vbar_relation_along_arcs(self):
        # k = rho0/(vbar0^2 - 2) must exceed Delta/(2b) for ubar^2 >= 0
        p = Params(2, 1.5, 0.5, h=0.0)
        vb0, th0 = 1.5, 1.0
        rho0 = 2.0 * (vb0 ** 2 - 2)
        ub0 = math.sqrt(2 + 2 * p.b * rho0 / delta(th0, p.mu) - vb0 ** 2)
        s0 = InfinityState(rho0, vb0, th0, ub0)
        traj = integrate(infinity_rhs(p), s0.as_array(), (0.0, 1.5), TIGHT)
        rho, vb = traj.states[:, 0], traj.states[:, 1]
        assert np.max(np.abs(rho - rho_of_vbar(rho0, vb0, vb))) < 1e-6

    def test_conserves_both_integrals(self):
        p = Params(2, 1.5, 0.5, h=0.0)
        vb0, th0 = 1.6, 2.0
        rho0 = 2.0 * (vb0 ** 2 - 2)
        ub0 = math.sqrt(2 + 2 * p.b * rho0 / delta(th0, p.mu) - vb0 ** 2)
        s0 = InfinityState(rho0, vb0, th0, ub0)
        traj = integrate(infinity_rhs(p), s0.as_array(), (0.0, 1.2), TIGHT,
                         monitors={"E": lambda t, y: infinity_energy_residual(
                             InfinityState(*y), p),
                             "g": lambda t, y: beta2_infinity_g(InfinityState(*y), p)})
        assert traj.invariant_drift["E"] <= 1e-9
        assert traj.invariant_drift["g"] <= 1e-8


class TestInfinityManifoldSet:
    # at beta = 2 the zero-energy infinity set is the two circles of fixed
    # points {rho = 0, ubar = 0, vbar = +-sqrt2}, a strict subset of the
    # invariant torus {rho = 0, ubar^2 + vbar^2 = 2} found for beta > 2
    def test_two_circles_of_fixed_points(self):
        p = Params(2, 1.4, 0.6, h=0.0)
        for sign in (+1, -1):
            for th in np.linspace(0, 2 * math.pi, 25):
                s = InfinityState(0.0, sign * SQRT2, th, 0.0)
                assert abs(infinity_energy_residual(s, p)) < 1e-15
                assert np.max(np.abs(infinity_field(s, p))) < 1e-14

    def test_strict_subset_of_torus(self):
        # a torus point with ubar != 0 satisfies the energy relation but is not fixed
        p = Params(2, 1.4, 0.6, h=0.0)
        torus_point = InfinityState(0.0, 1.0, 0.3, 1.0)  # ubar^2 + vbar^2 = 2
        assert infinity_energy_residual(torus_point, p) == 0.0
        f = infinity_field(torus_point, p)
        assert f[0] == 0.0  # the torus is invariant
        assert f[1] == pytest.approx(0.5) and f[2] == 1.0

    def test_g_vanishes_on_manifold(self):
        # substitute rho -> 0 limit of (ubar^2 - 2b rho/Delta)/(2 rho): on the
        # circles ubar = 0 exactly, so g extends to 0 there
        p = Params(2, 1.4, 0.6, h=0.0)
        for rho in (1e-4, 1e-6, 1e-8):
            s = InfinityState(rho, SQRT2, 0.7,
                              math.sqrt(2 * p.b * rho / delta(0.7, p.mu)))
            assert abs(beta2_infinity_g(s, p)) < 1e-12


class TestHeteroclinicClassification:
    P0 = Params(2, 2.0, 0.5, h=0.0)

    def test_case4_diagonal_fixed_points(self):
        # b = 1/2, k = 1: sqrt(1/k) = 1 = sqrt(2b)
        cls = classify_heteroclinic(rho0=1.0 * (1.5 ** 2 - 2), vbar0=1.5, p=self.P0)
        assert cls.target is HeteroclinicTarget.DIAGONAL_FIXED_POINTS
        assert cls.k == pytest.approx(1.0)

    def test_case3_axis_fixed_points(self):
        # b = 1/2, mu = 2, k = 2: sqrt(1/2) = sqrt(2b/mu)
        cls = classify_heteroclinic(rho0=2.0 * (1.5 ** 2 - 2), vbar0=1.5, p=self.P0)
        assert cls.target is HeteroclinicTarget.AXIS_FIXED_POINTS
        assert cls.k == pytest.approx(2.0)

    def test_case2_periodic_orbit(self):
        cls = classify_heteroclinic(rho0=3.0 * (1.5 ** 2 - 2), vbar0=1.5, p=self.P0)
        assert cls.target is HeteroclinicTarget.PERIODIC_ORBIT
        assert cls.v_limit == pytest.approx(math.sqrt(1 / 3))

    def test_case1_equator(self):
        cls = classify_heteroclinic(rho0=0.2, vbar0=SQRT2, p=self.P0)
        assert cls.target is HeteroclinicTarget.EQUATOR_PERIODIC

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            classify_heteroclinic(rho0=0.2, vbar0=1.0, p=self.P0)  # k < 0
        with pytest.raises(ValueError):
            # sqrt(1/k) above sqrt(2b)
            classify_heteroclinic(rho0=0.1 * (1.5 ** 2 - 2), vbar0=1.5, p=self.P0)

    @pytest.mark.parametrize("k_target,th0", [(1.0, math.pi / 2), (2.0, 0.9), (3.5, 0.9)])
    def test_backward_integration_reaches_limit_v(self, k_target, th0):
        # integration oracle: march the regularized flow backward from near the
        # infinity manifold and read off v at the collision threshold.  The
        # boundary family k = 1/(2b) only exists on the invariant line
        # theta = pi/2, where Delta = 1.
        p = self.P0
        vb0 = 1.5
        rho0 = k_target * (vb0 ** 2 - 2)
        ub2 = 2 + 2 * p.b * rho0 / delta(th0, p.mu) - vb0 ** 2
        assert ub2 >= -1e-14
        ub2 = max(ub2, 0.0)
        s0 = InfinityState(rho0, vb0, th0, math.sqrt(ub2))
        m0 = McGeheeState(1 / s0.rho, s0.vbar / math.sqrt(s0.rho), s0.theta,
                          s0.ubar / math.sqrt(s0.rho))
        assert abs(beta2_energy_residual(m0, p)) < 1e-10
        hit = Event(lambda t, y: y[0] - 1e-6, "collision", terminal=True)
        traj = integrate(beta2_mcgehee_rhs(p), m0.as_array(), (0.0, -200.0),
                         IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13), events=[hit])
        assert traj.event_times("collision")
        v_end = traj.final_state[1]
        assert abs(v_end - math.sqrt(1 / k_target)) < 1e-3
        # the observed family obeys 0 < sqrt(1/k) <= sqrt(2b)
        assert 0 < math.sqrt(1 / k_target) <= math.sqrt(2 * p.b) + 1e-12
