"""Regularized coordinates, collision manifold, equilibria, classification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisokepler.core import CartesianState, Params, hamiltonian
from anisokepler.integrate import Event, IntegratorConfig, integrate
from anisokepler.mcgehee import (
    BasinBox,
    McGeheeState,
    Stability,
    _field_arrays,
    basin_fraction,
    classify,
    collision_flow,
    collision_rhs,
    delta,
    energy_residual,
    equilibria,
    equilibrium_eigenvalues,
    equilibrium_location,
    from_mcgehee,
    linearize_at,
    mcgehee_field,
    mcgehee_rhs,
    mcgehee_rhs_with_time,
    min_field_norm_on_level,
    spiral_threshold,
    to_mcgehee,
)

from conftest import fd_jacobian_reduced

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


class TestDelta:
    def test_extremes(self):
        assert delta(0.0, 4.0) == 4.0
        assert delta(math.pi, 4.0) == pytest.approx(4.0)
        assert delta(math.pi / 2, 4.0) == pytest.approx(1.0)
        assert delta(3 * math.pi / 2, 4.0) == pytest.approx(1.0)

    def test_range(self):
        th = np.linspace(0, 2 * math.pi, 100)
        vals = delta(th, 2.5)
        assert np.all(vals >= 1.0 - 1e-15) and np.all(vals <= 2.5 + 1e-15)


class TestTransform:
    def test_unit_radius_identity_rescaling(self):
        p = Params(beta=3, mu=1, b=1)
        m = to_mcgehee(CartesianState(1, 0, 0, 1), p)
        assert (m.r, m.theta) == (1.0, 0.0)
        assert m.v == pytest.approx(0.0)
        assert m.u == pytest.approx(1.0)

    def test_circular_state_angular_momentum(self):
        p = Params(beta=3, mu=1, b=1)
        m = to_mcgehee(CartesianState(0, 1, -1, 0), p)
        assert m.theta == pytest.approx(math.pi / 2)
        assert m.u == pytest.approx(1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for beta in (2.0, 2.5, 3.0, 4.0):
            p = Params(beta, 1.7, 0.8)
            for _ in range(20):
                s = CartesianState(*rng.uniform(-2, 2, 2), *rng.normal(0, 1, 2))
                if s.radius < 0.1:
                    continue
                back = from_mcgehee(to_mcgehee(s, p), p)
                assert np.allclose(back.as_array(), s.as_array(), atol=1e-12)

    def test_lands_on_energy_relation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = CartesianState(*rng.uniform(0.5, 2, 2), *rng.normal(0, 1, 2))
            p = Params(3.0, 1.5, 0.5, h=hamiltonian(s, Params(3.0, 1.5, 0.5)))
            assert abs(energy_residual(to_mcgehee(s, p), p)) < 1e-12


class TestField:
    def test_rest_point_on_axis(self):
        # r=0, u=0, v=0, theta=0: only v' survives, equal to -b(beta-2)/mu^(beta/2)
        p = Params(beta=3, mu=2, b=0.7)
        f = mcgehee_field(McGeheeState(0, 0, 0, 0), p)
        assert f[0] == 0.0
        assert f[1] == pytest.approx(-p.b * (p.beta - 2) / p.mu ** (p.beta / 2))
        assert f[2] == 0.0 and f[3] == 0.0

    def test_nonzero_v_adds_quadratic_term(self):
        p = Params(beta=3, mu=2, b=0.7)
        v0 = 0.4
        f = mcgehee_field(McGeheeState(0, v0, 0, 0), p)
        expected = 0.5 * (p.beta - 2) * v0 ** 2 - p.b * (p.beta - 2) / p.mu ** 1.5
        assert f[1] == pytest.approx(expected)

    def test_vanishes_at_equilibrium(self):
        p = Params(beta=3, mu=1.5, b=0.5, h=-0.2)
        eq = equilibrium_location(math.pi / 2, +1, p)
        assert eq.v == pytest.approx(math.sqrt(2 * p.b))
        assert np.max(np.abs(mcgehee_field(eq, p))) < 1e-12

    def test_requires_beta_above_two(self):
        # the field serves beta >= 2 (beta = 2 is the integrable case)
        with pytest.raises(ValueError):
            mcgehee_field(McGeheeState(1, 0, 0, 0), Params(1.5, 1, 1))
        with pytest.raises(ValueError):
            mcgehee_rhs(Params(1.5, 1, 1))

    def test_time_rescaled_consistency_with_cartesian_flow(self):
        # dual-integration oracle: the regularized orbit, reparametrized by
        # dt/dtau = r^(beta/2+1), shadows the Cartesian orbit
        from anisokepler.core import cartesian_rhs

        s = CartesianState(1.1, 0.2, -0.2, 0.9)
        base = Params(3.0, 1.4, 0.5)
        p = Params(3.0, 1.4, 0.5, h=hamiltonian(s, base))
        t_end = 0.5
        cart = integrate(cartesian_rhs(p), s.as_array(), (0.0, t_end), TIGHT)
        m0 = to_mcgehee(s, p)
        hit = Event(lambda t, y: y[4] - t_end, "t-final", terminal=True, direction=1)
        reg = integrate(mcgehee_rhs_with_time(p), np.append(m0.as_array(), 0.0),
                        (0.0, 50.0), TIGHT, events=[hit])
        assert reg.event_times("t-final")
        back = from_mcgehee(McGeheeState(*reg.final_state[:4]), p)
        assert np.allclose(back.as_array(), cart.final_state, atol=1e-6)


def _reals(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _state_batches(draw):
    n = draw(st.integers(1, 12))
    return np.array([draw(st.lists(_reals(lo, hi), min_size=n, max_size=n))
                     for lo, hi in ((0.0, 3.0), (-3.0, 3.0), (-7.0, 7.0), (-3.0, 3.0))])


class TestFieldBatching:
    """The one field serves a (4, N) batch and single states alike."""

    @settings(max_examples=150, deadline=None)
    @given(p=st.builds(Params, beta=_reals(2.0, 6.0), mu=_reals(1.0, 4.0),
                       b=_reals(0.01, 2.0), h=_reals(-1.0, 1.0)),
           y=_state_batches())
    def test_batch_equals_per_state_calls(self, p, y):
        batch = np.stack(_field_arrays(*y, p))
        assert batch.shape == y.shape
        for i in range(y.shape[1]):
            # bitwise: a sample's field does not depend on the rest of the batch
            alone = np.stack(_field_arrays(*y[:, i:i + 1], p))[:, 0]
            assert np.array_equal(batch[:, i], alone)
            # a scalar call takes numpy's scalar power, which may round the
            # last bit differently from the vectorized one; terms stay below
            # 2 * 3^6, whose ulp is 2.3e-13, so allow a few ulp
            scalar = mcgehee_field(McGeheeState(*y[:, i]), p)
            assert np.max(np.abs(scalar - batch[:, i])) <= 1e-12


class TestEnergyResidual:
    def test_zero_on_collision_manifold(self):
        p = Params(beta=3.5, mu=2, b=0.8, h=-1.0)
        for th in np.linspace(0, 2 * math.pi, 9):
            mag = math.sqrt(2 * p.b / delta(th, p.mu) ** (p.beta / 2))
            for phi in np.linspace(0, 2 * math.pi, 7):
                m = McGeheeState(0.0, mag * math.cos(phi), th, mag * math.sin(phi))
                assert abs(energy_residual(m, p)) < 1e-14

    def test_arithmetic_example(self):
        for h in (-0.3, 0.0, 0.7):
            p = Params(beta=3, mu=1, b=1, h=h)
            m = McGeheeState(1.0, 0.0, math.pi / 2, 2.0)
            assert energy_residual(m, p) == pytest.approx(-2 * h)

    def test_first_integral_along_flow(self):
        p = Params(beta=3, mu=1.3, b=0.5, h=-0.25)
        m0 = McGeheeState(0.8, 0.1, 1.0, 0.6)
        p_level = Params(3, 1.3, 0.5, h=p.h + 0.5 * energy_residual(m0, p) / m0.r ** p.beta)
        assert abs(energy_residual(m0, p_level)) < 1e-12
        traj = integrate(mcgehee_rhs(p_level), m0.as_array(), (0.0, 10.0), TIGHT,
                         monitors={"E": lambda t, y: energy_residual(McGeheeState(*y), p_level)})
        assert traj.invariant_drift["E"] <= 1e-8


class TestCollisionFlow:
    def _on_c(self, theta, phi, p):
        mag = math.sqrt(2 * p.b / delta(theta, p.mu) ** (p.beta / 2))
        return McGeheeState(0.0, mag * math.cos(phi), theta, mag * math.sin(phi))

    def test_u_zero_gives_v_stationary(self):
        p = Params(beta=3, mu=2, b=0.5)
        m = self._on_c(0.8, 0.0, p)  # u = 0
        dv, dth, du = collision_flow(m, p)
        assert dv == 0.0 and dth == 0.0
        assert du == pytest.approx(p.b * p.beta * (p.mu - 1) * math.sin(1.6)
                                   / (2 * delta(0.8, p.mu) ** ((p.beta + 2) / 2)))

    def test_isotropic_diagonal(self):
        p = Params(beta=3.5, mu=1, b=0.5)
        m = self._on_c(math.pi / 4, 1.0, p)
        dv, dth, du = collision_flow(m, p)
        assert du == pytest.approx(0.5 * (p.beta - 2) * m.u * m.v)

    def test_membership_enforced(self):
        p = Params(beta=3, mu=1, b=0.5)
        with pytest.raises(ValueError):
            collision_flow(McGeheeState(0.0, 5.0, 0.0, 0.0), p)  # off the manifold
        with pytest.raises(ValueError):
            collision_flow(McGeheeState(0.1, 1.0, 1.0, 0.0), p)  # r != 0

    def test_v_prime_nonpositive(self):
        p = Params(beta=4, mu=1.5, b=0.7)
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = self._on_c(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi), p)
            dv = collision_flow(m, p)[0]
            assert dv <= 0.0
            if abs(m.u) > 1e-12:
                assert dv < 0.0

    def test_gradient_like_along_arcs(self):
        p = Params(beta=3, mu=1.4, b=0.5)
        rng = np.random.default_rng(12)
        for _ in range(5):
            m = self._on_c(rng.uniform(0, 2 * math.pi), rng.uniform(0.3, 2.8), p)
            traj = integrate(collision_rhs(p), [m.v, m.theta, m.u], (0.0, 8.0), TIGHT)
            v = traj.states[:, 0]
            assert np.all(np.diff(v) <= 1e-12)


class TestEquilibria:
    def test_eight_with_unit_speed(self):
        p = Params(beta=3.7, mu=1, b=0.5)
        eqs = equilibria(p)
        assert len(eqs) == 8
        assert all(abs(e.location.v) == pytest.approx(1.0) for e in eqs)
        assert all(e.location.r == 0.0 and e.location.u == 0.0 for e in eqs)

    def test_anisotropic_axis_value(self):
        p = Params(beta=4, mu=4, b=0.5)
        eqs = {e.label: e for e in equilibria(p)}
        assert eqs["A+_0"].location.v == pytest.approx(0.25)

    def test_beta_two_not_admitted(self):
        with pytest.raises(ValueError):
            equilibria(Params(beta=2, mu=4, b=0.5))

    def test_field_vanishes_at_all(self):
        p = Params(beta=2.6, mu=2.2, b=1.3, h=0.4)
        for e in equilibria(p):
            assert np.max(np.abs(mcgehee_field(e.location, p))) < 1e-12

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowed_spectrum_is_not_classified(self):
        # Delta^(beta/2) overflows, so every eigenvalue underflows to 0
        with pytest.raises(ArithmeticError):
            equilibria(Params(beta=3, mu=1e300, b=0.5))


class TestLinearization:
    def test_matrix_matches_fd_jacobian(self):
        for p in (Params(3, 1.2, 0.5, h=-0.25), Params(2.5, 2.0, 1.0, h=0.1),
                  Params(4, 1.05, 0.5, h=-1.0)):
            for e in equilibria(p):
                sign = 1 if e.location.v > 0 else -1
                z0 = [0.0, e.location.theta, 0.0]
                J_fd = fd_jacobian_reduced(z0, p, sign)
                assert np.allclose(linearize_at(e, p), J_fd, atol=1e-6)

    def test_closed_form_eigenvalues_match_fd_jacobian(self):
        p = Params(3, 1.2, 0.5, h=-0.25)
        for e in equilibria(p):
            sign = 1 if e.location.v > 0 else -1
            J_fd = fd_jacobian_reduced([0.0, e.location.theta, 0.0], p, sign)
            got = np.sort_complex(np.linalg.eigvals(J_fd))
            expect = np.sort_complex(np.array(e.eigenvalues))
            assert np.allclose(got, expect, rtol=1e-6, atol=1e-8)

    def test_pi_half_family_eigenvalue_structure(self):
        # radial eigenvalue sqrt(2b); the (theta, u) block contributes
        # (beta-2)sqrt(2b)/4 +- (1/2) sqrt(b/2 [(beta-2)^2 - 8 beta (mu-1)])
        beta, b, mu = 3.0, 0.5, 1.2
        lam = equilibrium_eigenvalues(math.pi / 2, +1, Params(beta, mu, b))
        root = np.sqrt(complex(0.5 * b * ((beta - 2) ** 2 - 8 * beta * (mu - 1))))
        expect = (math.sqrt(2 * b),
                  (beta - 2) * math.sqrt(2 * b) / 4 + root / 2,
                  (beta - 2) * math.sqrt(2 * b) / 4 - root / 2)
        assert np.allclose(np.sort_complex(np.array(lam)), np.sort_complex(np.array(expect)))

    def test_degenerate_isotropic_case(self):
        # at mu = 1 the pi/2 family has eigenvalues {sqrt(2b), (beta-2)sqrt(2b)/2, 0};
        # the zero eigenvalue puts mu = 1 outside the hyperbolic classification
        lam = equilibrium_eigenvalues(math.pi / 2, +1, Params(3, 1, 0.5))
        vals = sorted(v.real for v in lam)
        assert vals == pytest.approx([0.0, 0.5, 1.0])
        assert all(v.imag == 0.0 for v in lam)


class TestClassification:
    def test_pattern(self):
        p = Params(beta=3, mu=1.2, b=0.5)
        reports = {e.label: e for e in classify(p)}
        for name in ("0", "pi"):
            assert reports[f"A+_{name}"].stability is Stability.SADDLE
            assert reports[f"A-_{name}"].stability is Stability.SADDLE
        for name in ("pi/2", "3pi/2"):
            assert reports[f"A+_{name}"].stability in (Stability.SOURCE, Stability.SPIRAL_SOURCE)
            assert reports[f"A-_{name}"].stability in (Stability.SINK, Stability.SPIRAL_SINK)

    def test_spiral_threshold_value(self):
        assert spiral_threshold(3.0) == pytest.approx(25 / 24)

    def test_spiral_onset(self):
        below = classify(Params(3, 1.01, 0.5))
        assert not any(e.spiraling for e in below)
        above = classify(Params(3, 1.2, 0.5))
        assert all(e.spiraling for e in above if "pi/2" in e.label)

    def test_threshold_independent_of_b(self):
        for mu in (1.02, 1.08, 1.5):
            a = [e.stability for e in classify(Params(3, mu, 0.1))]
            bb = [e.stability for e in classify(Params(3, mu, 10.0))]
            assert a == bb

    def test_all_real_positive_below_threshold(self):
        lam = equilibrium_eigenvalues(math.pi / 2, +1, Params(3, 1.01, 0.5))
        assert all(v.imag == 0.0 and v.real > 0 for v in lam)

    def test_mu_one_rejected(self):
        with pytest.raises(ValueError):
            classify(Params(3, 1.0, 0.5))

    def test_grid_pattern(self):
        for beta in (2.5, 3.0, 4.0):
            for b in (0.5, 1.0):
                for mu in (1.01, 1.2, 2.0):
                    kinds = [e.stability for e in classify(Params(beta, mu, b))]
                    assert sum(k is Stability.SADDLE for k in kinds) == 4
                    assert sum(k in (Stability.SOURCE, Stability.SPIRAL_SOURCE)
                               for k in kinds) == 2
                    assert sum(k in (Stability.SINK, Stability.SPIRAL_SINK)
                               for k in kinds) == 2


class TestInvariantManifolds:
    def test_collision_manifold_invariance(self):
        # r' = r v: a start with r = 0 keeps r = 0 exactly (bitwise)
        p = Params(beta=3, mu=1.3, b=0.5, h=-0.25)
        m0 = equilibrium_location(0.3 + math.pi / 2, 1, p)  # not an equilibrium angle
        traj = integrate(mcgehee_rhs(p), m0.as_array(), (0.0, 5.0))
        assert np.all(traj.states[:, 0] == 0.0)

    @pytest.mark.parametrize("beta", [2.5, 3.0, 5.0])
    def test_no_equilibria_off_collision_manifold(self, beta):
        p = Params(beta, 1.5, 0.5, h=-0.25)
        assert min_field_norm_on_level(p) > 1e-6

    def test_beta_four_probe(self):
        # the two off-manifold equilibrium conditions coincide at beta = 4; the
        # scan reports the minimum on-level field norm without a fixed verdict
        value = min_field_norm_on_level(Params(4.0, 1.5, 0.5, h=-0.25))
        assert math.isfinite(value) and value >= 0.0
        print(f"beta=4 off-manifold probe: min on-level field norm = {value:.3e}")


class TestBasin:
    P = Params(beta=3, mu=1.2, b=0.5, h=-0.25)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            basin_fraction(self.P, 0, 10.0)
        for horizon in (math.inf, math.nan, 0.0, -5.0):
            with pytest.raises(ValueError):
                basin_fraction(self.P, 10, horizon)

    def test_deterministic_under_seed(self):
        a = basin_fraction(self.P, 200, 30.0, seed=123)
        b = basin_fraction(self.P, 200, 30.0, seed=123)
        assert a == b
        c = basin_fraction(self.P, 200, 30.0, seed=124)
        assert isinstance(c, float)

    def test_fraction_tends_to_one_near_sink(self):
        fracs = [basin_fraction(self.P, 300, 40.0, box=BasinBox.near_sink(self.P, w), seed=5)
                 for w in (0.4, 0.2, 0.1)]
        assert fracs[-1] >= fracs[0] - 1e-9
        assert fracs[-1] > 0.95

    def test_escaping_samples_raise_instead_of_counting_as_misses(self):
        # above the escape energy every sample of this box runs off to infinity
        p = Params(3, 1.2, 0.5, h=0.5)
        box = BasinBox(r=(0.3, 1.5), theta=(0.0, 2 * math.pi), u=(-0.5, 0.5), v_sign=+1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ArithmeticError, match="200 of 200"):
                basin_fraction(p, 200, 40.0, box=box, seed=1)

    def test_box_must_meet_energy_level(self):
        p = Params(beta=3, mu=1.2, b=0.5, h=-5.0)
        box = BasinBox(r=(2.0, 3.0), theta=(0.0, 1.0), u=(0.0, 0.1))
        with pytest.raises(ValueError):
            basin_fraction(p, 50, 5.0, box=box)

    def test_agrees_with_adaptive_integrator_spot_checks(self):
        # cross-validate the batched fixed-step march against event-located
        # adaptive integrations on a handful of samples
        p = self.P
        rng = np.random.default_rng(9)
        box = BasinBox.near_sink(p)
        hit = Event(lambda t, y: y[0] - 1e-6, "collision", terminal=True, direction=-1)
        for _ in range(10):
            r = rng.uniform(*box.r)
            th = rng.uniform(*box.theta)
            u = rng.uniform(*box.u)
            s2 = (2 * r ** (p.beta - 1) + 2 * p.b / delta(th, p.mu) ** (p.beta / 2)
                  + 2 * p.h * r ** p.beta - u * u)
            m = McGeheeState(r, -math.sqrt(s2), th, u)
            traj = integrate(mcgehee_rhs(p), m.as_array(), (0.0, 40.0),
                             IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11), events=[hit])
            single = bool(traj.event_times("collision"))
            batched = basin_fraction(p, 1, 40.0,
                                     box=BasinBox((r, r), (th, th), (u, u)), seed=0)
            assert single == (batched == 1.0)
