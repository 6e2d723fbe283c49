"""Collision-torus angle flow and saddle-connection splitting."""

import math

import numpy as np
import pytest

from conftest import zeta1_trig

from anisokepler.core import Params, _jacobian
from anisokepler.integrate import Event, IntegratorConfig, integrate
from anisokepler.mcgehee import McGeheeState, delta, energy_residual, mcgehee_rhs
from anisokepler.torus import (
    SplittingVerdict,
    TorusState,
    TraceError,
    comparison_section,
    connection_beta,
    connection_index,
    _torus_arrays,
    reversal_map,
    splitting_gap,
    splitting_verdict,
    torus_rhs,
    trace_manifold,
    zeta0,
    zeta1,
)

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def field(t, p):
    """(theta', psi') at t: the integrator's closure."""
    return torus_rhs(p)(0.0, t.as_array())


def to_collision(t, p):
    """(r = 0, v, theta, u) of a torus point: u = g sin(psi), v = g cos(psi),
    with the amplitude g = theta' at psi = pi/2 of the torus field."""
    g = field(TorusState(t.theta, math.pi / 2), p)[0]
    return McGeheeState(0.0, g * math.cos(t.psi), t.theta % (2 * math.pi), g * math.sin(t.psi))


def slope(theta, psi, p):
    """dpsi/dtheta of the torus field, off the lines sin(psi) = 0."""
    dth, dps = field(TorusState(theta, psi), p)
    return dps / dth


class TestChart:
    def test_lands_on_collision_manifold_identically(self):
        p = Params(beta=3.3, mu=1.8, b=0.6)
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = TorusState(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            m = to_collision(t, p)
            assert m.r == 0.0
            assert abs(energy_residual(m, p)) < 1e-14

    def test_isotropic_field_reduction(self):
        p = Params(beta=3, mu=1, b=0.5)
        t = TorusState(0.7, 1.1)
        f = field(t, p)
        assert f[0] == pytest.approx(math.sqrt(2 * p.b) * math.sin(t.psi))
        assert f[1] == pytest.approx(0.5 * (p.beta - 2) * math.sqrt(2 * p.b) * math.sin(t.psi))

    def test_equilibria_where_sin_psi_and_sin_2theta_vanish(self):
        p = Params(beta=3, mu=1.5, b=0.5)
        for th in (0.0, math.pi / 2, math.pi, -math.pi / 2, -math.pi):
            for ps in (0.0, math.pi):
                assert np.max(np.abs(field(TorusState(th, ps), p))) < 1e-14

    def test_jacobian_matches_central_differences(self):
        # the complex-step Jacobian of the one torus definition, which seeds
        # trace_manifold, against central differences of the field
        rng = np.random.default_rng(3)
        step = 1e-6
        for beta in (3.0, 3.4, 4.0):
            for _ in range(10):
                p = Params(beta, rng.uniform(1.0, 2.0), rng.uniform(0.1, 1.5))
                y = rng.uniform(-math.pi, math.pi, 2)
                fd = np.column_stack([
                    (field(TorusState(*(y + step * e)), p) - field(TorusState(*(y - step * e)), p))
                    / (2 * step) for e in np.eye(2)])
                assert np.allclose(_jacobian(_torus_arrays, y, p), fd, rtol=1e-7, atol=1e-9)

    def test_pushforward_consistency_with_collision_flow(self):
        # integrating the McGehee field at r = 0 and mapping through the angle
        # chart reproduces the 2d torus flow
        p = Params(beta=3, mu=1.4, b=0.5)
        th0, ps0 = -2.0, 0.9
        m0 = to_collision(TorusState(th0, ps0), p)
        tau = 4.0
        t2 = integrate(torus_rhs(p), [th0, ps0], (0.0, tau), TIGHT)
        # compare on the common grid of the 2d run via dense re-integration
        for tq, (th, ps) in zip(t2.times[::5], t2.states[::5]):
            _, v, theta, u = integrate(mcgehee_rhs(p), m0.as_array(), (0.0, max(tq, 1e-12)),
                                       TIGHT).final_state
            g = math.sqrt(2 * p.b) / delta(theta, p.mu) ** (p.beta / 4)
            psi = math.atan2(u / g, v / g) % (2 * math.pi)
            assert abs((theta - th + math.pi) % (2 * math.pi) - math.pi) < 1e-6
            assert abs((psi - ps + math.pi) % (2 * math.pi) - math.pi) < 1e-6


class TestSlopeField:
    def test_isotropic_constant(self):
        assert slope(0.3, 1.0, Params(3, 1, 0.7)) == pytest.approx(0.5)
        assert slope(2.0, 2.0, Params(4, 1, 0.2)) == pytest.approx(1.0)

    def test_eps_derivative_matches_finite_difference(self):
        # along the unperturbed connection psi = zeta0, d(slope)/d(epsilon) at
        # epsilon = 0 is the integrand of zeta1, the theta-derivative of its quadrature
        beta, b = 3.0, 0.5
        for th in np.linspace(-3.0, 3.0, 7):
            ps = zeta0(3, th)
            if abs(math.sin(ps)) < 1e-3:
                continue
            eps, dth = 1e-7, 1e-4
            fd = (slope(th, ps, Params(beta, 1 + eps, b)) - slope(th, ps, Params(beta, 1, b))) / eps
            rate = (zeta1(3, th + dth) - zeta1(3, th - dth)) / (2 * dth)
            assert fd == pytest.approx(rate, rel=1e-5, abs=1e-7)

    def test_psi_derivative_vanishes_at_eps_zero(self):
        p = Params(3, 1, 0.5)
        dpsi = 1e-6
        d = (slope(0.4, 1.0 + dpsi, p) - slope(0.4, 1.0 - dpsi, p)) / (2 * dpsi)
        assert abs(d) < 1e-12


class TestZeta:
    def test_zeta0_anchors(self):
        assert zeta0(3, -math.pi) == pytest.approx(0.0)
        assert zeta0(3, 0.0) == pytest.approx(math.pi / 2)
        assert zeta0(4, -math.pi / 2) == pytest.approx(math.pi / 2)
        with pytest.raises(ValueError):
            zeta0(5, 0.0)

    def test_zeta1_anchor_values(self):
        assert zeta1(3, 0.0) == pytest.approx(0.75 * math.pi, abs=1e-14)
        assert zeta1(4, -math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-14)

    def test_zeta1_vanishes_at_lower_limit(self):
        assert zeta1_trig(3, -math.pi) == pytest.approx(0.0, abs=1e-12)
        assert zeta1_trig(4, -math.pi) == pytest.approx(0.0, abs=1e-12)
        assert zeta1(3, -math.pi) == 0.0
        assert zeta1(4, -math.pi) == 0.0

    @pytest.mark.parametrize("beta", [3, 4])
    def test_quadrature_matches_closed_form(self, beta):
        # the grid includes theta = pi, where the beta = 4 integrand
        # sin x cos x / tan x has its removable singularity at the midpoint
        # x = pi of the interval
        for th in np.linspace(-math.pi, math.pi, 201):
            assert zeta1(beta, th) == pytest.approx(zeta1_trig(beta, th), abs=1e-12)

    @pytest.mark.parametrize("j", range(1, 9))
    def test_zeta1_at_the_section(self, j):
        beta = connection_beta(j)
        assert zeta1(beta, comparison_section(beta)) == pytest.approx((j + 1) * math.pi / 4,
                                                                      abs=1e-14)


class TestTrace:
    def test_unperturbed_branch_on_connection_line_beta3(self):
        p = Params(3.0, 1.0, 0.5)
        th, ps = trace_manifold(p, TIGHT).T
        assert np.max(np.abs(-2 * ps + th + math.pi)) < 1e-6

    def test_unperturbed_branch_on_connection_line_beta4(self):
        p = Params(4.0, 1.0, 0.5)
        th, ps = trace_manifold(p, TIGHT).T
        assert np.max(np.abs(-2 * ps + 2 * th + 2 * math.pi)) < 1e-6

    def test_seed_offset_invariant(self):
        p = Params(3.0, 1.002, 0.5)
        branch = trace_manifold(p, TIGHT)
        d0 = np.linalg.norm(branch[0] - [-math.pi, 0.0])
        assert d0 == pytest.approx(1e-6, rel=1e-9)

    def test_perturbed_deviation_rate_beta3(self):
        p = Params(3.0, 1.001, 0.5)
        psi_end = trace_manifold(p, TIGHT)[-1, 1]
        assert psi_end > math.pi / 2
        assert (psi_end - math.pi / 2) / 0.001 == pytest.approx(0.75 * math.pi, rel=0.02)

    @pytest.mark.parametrize("beta", [3.0, 4.0])
    @pytest.mark.parametrize("mu", [1.001, 1.5, 10.0])
    def test_attracting_equilibria_sit_at_theta_pi_half(self, beta, mu):
        # the trace's stall event assumes the sinks are (pi/2 mod pi, pi) and
        # the sources (pi/2 mod pi, 0)
        p = Params(beta, mu, 0.5)
        for k in range(4):
            for j in range(2):
                eig = np.linalg.eigvals(_jacobian(_torus_arrays, [k * math.pi / 2, j * math.pi], p))
                assert np.all(eig.real < 0) == (k % 2 == 1 and j == 1)
                assert np.all(eig.real > 0) == (k % 2 == 1 and j == 0)

    def test_branch_into_attractor_stops_there(self):
        # at mu = 10 the branch settles into a sink before the section
        p = Params(3.0, 10.0, 0.5)
        with pytest.raises(TraceError, match="attracting equilibrium"):
            trace_manifold(p)

    def test_seed_beyond_the_float_range_is_numerical_failure(self):
        # Delta^((beta+4)/4) overflows on Python complex and turns NaN on numpy
        # complex scalars: the trace stops instead of seeding along NaN, and
        # prints no RuntimeWarning on the way
        with pytest.raises(ArithmeticError, match="not finite"):
            trace_manifold(Params(3.0, 1e300, 0.5))


class TestReversal:
    @pytest.mark.parametrize("j", range(1, 7))
    def test_reversal_symmetry_on_arcs(self, j):
        # the reversal is what gives `splitting_gap` the stable branch of the
        # connection for every member of the family
        beta = connection_beta(j)
        p = Params(beta, 1.3, 0.5)
        y0 = TorusState(0.4, 1.2)
        fwd = integrate(torus_rhs(p), y0.as_array(), (0.0, 2.0), TIGHT)
        mapped0 = reversal_map(beta, TorusState(*fwd.final_state))
        back = integrate(torus_rhs(p), mapped0.as_array(), (0.0, 2.0), TIGHT)
        expect = reversal_map(beta, y0)
        assert np.allclose(back.final_state, expect.as_array(), atol=1e-9)
        # the saddle the branch leaves maps onto the saddle it connects to
        far = reversal_map(beta, TorusState(-math.pi, 0.0))
        assert (far.theta, far.psi) == pytest.approx((-math.pi + j * math.pi, math.pi),
                                                     abs=1e-14)
        eig = np.linalg.eigvals(_jacobian(_torus_arrays, far.as_array(), p))
        assert eig.real.min() < 0.0 < eig.real.max()

    def test_maps_fix_their_sections(self):
        s3 = comparison_section(3)
        assert reversal_map(3, TorusState(s3, 0.3)).theta == pytest.approx(s3)
        s4 = comparison_section(4)
        assert reversal_map(4, TorusState(s4, 0.3)).theta == pytest.approx(s4)


class TestConnectionGeometry:
    """zeta0, the section and the reversal all come from the line
    psi = (theta + pi)/j, beta = 2 + 2/j; pinned against per-beta literal tables."""

    THETAS = [-math.pi, -2.0, -math.pi / 2, -0.3, 0.0, 0.7, 1.0, math.pi / 2, 2.5, math.pi]
    ZETA0 = {
        3: [0.0, 0.5707963267948966, 0.7853981633974483, 1.4207963267948966,
            1.5707963267948966, 1.9207963267948966, 2.0707963267948966, 2.356194490192345,
            2.8207963267948966, 3.141592653589793],
        4: [0.0, 1.1415926535897931, 1.5707963267948966, 2.8415926535897933,
            3.141592653589793, 3.8415926535897933, 4.141592653589793, 4.71238898038469,
            5.641592653589793, 6.283185307179586],
    }
    SECTION = {3: 0.0, 4: -1.5707963267948966}
    # reversed theta; reversed psi is pi - 0.4 = 2.741592653589793 throughout
    REVERSED_THETA = {
        3: [3.141592653589793, 2.0, 1.5707963267948966, 0.3, 0.0, -0.7, -1.0,
            -1.5707963267948966, -2.5, -3.141592653589793],
        4: [0.0, -1.1415926535897931, -1.5707963267948966, -2.8415926535897933,
            -3.141592653589793, -3.8415926535897933, -4.141592653589793, -4.71238898038469,
            -5.641592653589793, -6.283185307179586],
    }

    @pytest.mark.parametrize("beta", [3, 4])
    def test_literal_tables(self, beta):
        # == compares every bit except the sign of a zero, which an angle ignores
        assert comparison_section(beta) == self.SECTION[beta]
        assert [zeta0(beta, th) for th in self.THETAS] == self.ZETA0[beta]
        reversed_states = [reversal_map(beta, TorusState(th, 0.4)) for th in self.THETAS]
        assert [t.theta for t in reversed_states] == self.REVERSED_THETA[beta]
        assert all(t.psi == 2.741592653589793 for t in reversed_states)

    def test_one_gate_for_every_beta_specific_function(self):
        calls = [lambda: connection_index(5), lambda: zeta0(5, 0.0), lambda: zeta1(5, 0.0),
                 lambda: comparison_section(5),
                 lambda: reversal_map(5, TorusState(0.0, 1.0)),
                 lambda: trace_manifold(Params(5.0, 1.0, 0.5))]
        messages = set()
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            messages.add(str(info.value))
        assert messages == {"saddle connections exist at beta = 2 + 2/j for a positive "
                            "integer j only, got 5.0"}
        assert [connection_index(b) for b in (3, 4, 3.0, 4.0, 2.5)] == [2, 1, 2, 1, 4]
        for beta in (2, 3.5, 5, 4.000001):
            with pytest.raises(ValueError):
                connection_index(beta)

    def test_gate_accepts_the_whole_family(self):
        # the float 2 + 2/3 gives 2/(beta - 2) = 3.000000000000001
        assert [connection_index(connection_beta(j)) for j in range(1, 13)] == list(range(1, 13))


class TestSplitting:
    @pytest.mark.parametrize("beta", [3, 4])
    def test_connected_at_eps_zero(self, beta):
        p = Params(float(beta), 1.0, 0.5)
        assert splitting_verdict(splitting_gap(beta, p)[0]) is SplittingVerdict.CONNECTED

    @pytest.mark.parametrize("beta,zeta1_at_section", [(3, 0.75 * math.pi), (4, math.pi / 2)])
    def test_gap_linear_in_eps(self, beta, zeta1_at_section):
        p0 = dict(mu=1.0, b=0.5)
        eps_grid = np.array([1e-3, 2e-3, 4e-3])
        gaps = []
        for eps in eps_grid:
            p = Params(float(beta), 1.0 + eps, 0.5)
            gap, _, _ = splitting_gap(beta, p)
            assert splitting_verdict(gap) is SplittingVerdict.BROKEN
            gaps.append(gap)
        slope = float(np.dot(eps_grid, gaps) / np.dot(eps_grid, eps_grid))
        assert slope == pytest.approx(2 * zeta1_at_section, rel=0.05)

    def test_beta_param_consistency(self):
        with pytest.raises(ValueError):
            splitting_gap(3, Params(4.0, 1.01, 0.5))


class TestConnectionFamilies:
    def test_family_values(self):
        assert connection_beta(1) == 4.0
        assert connection_beta(2) == 3.0
        assert connection_beta(4) == 2.5
        for j in (0, -1):
            with pytest.raises(ValueError):
                connection_beta(j)

    @pytest.mark.parametrize("family,parity", [("a", 1), ("b", 0)])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_integer_winding_closure(self, family, parity, k):
        # at mu = 1 the slope is (beta-2)/2 = 1/j, so a psi-span of pi sweeps
        # theta by j pi: odd j = 1 + 2k (family a) and even j = 2 + 2k
        # (family b) both land the branch on another saddle
        beta = connection_beta(1 + 2 * k if family == "a" else 2 + 2 * k)
        span = 2.0 / (beta - 2.0)
        assert span == pytest.approx(round(span))
        assert round(span) % 2 == parity
        p = Params(beta, 1.0, 0.5)
        near_end = Event(lambda t, y: y[1] - (math.pi - 1e-8), "top", terminal=True)
        seed = np.array([-math.pi, 0.0]) + 1e-9 * np.array([1.0, (beta - 2) / 2])
        traj = integrate(torus_rhs(p), seed, (0.0, 1e4), TIGHT, events=[near_end])
        assert traj.event_times("top")
        th_end = traj.final_state[0]
        assert th_end - (-math.pi) == pytest.approx(span * math.pi, abs=1e-5)

