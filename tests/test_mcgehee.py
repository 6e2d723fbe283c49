"""Regularized coordinates, collision manifold, equilibria, classification."""

import math
from collections import Counter
from dataclasses import replace
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anisokepler import mcgehee
from anisokepler.core import CartesianState, DomainError, Params, cartesian_rhs, hamiltonian
from anisokepler.integrate import Event, IntegratorConfig, MaxStepsExceeded, integrate
from anisokepler.mcgehee import (
    BasinBox,
    McGeheeState,
    Stability,
    _field_arrays,
    basin_fraction,
    delta,
    energy_residual,
    equilibria,
    from_mcgehee,
    level_through,
    linearize_at,
    mcgehee_rhs,
    min_field_norm_on_level,
    spiral_threshold,
    to_mcgehee,
)

from conftest import level_jacobian

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def field(m, p):
    """The regularized field (r', v', theta', u') at m: the integrator's closure."""
    return mcgehee_rhs(p)(0.0, m.as_array())


def a_plus_pi_half(p):
    """The report of the source A+_(pi/2)."""
    return {e.label: e for e in equilibria(p)}["A+_pi/2"]


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
                if math.hypot(s.x, s.y) < 0.1:
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
        f = field(McGeheeState(0, 0, 0, 0), p)
        assert f[0] == 0.0
        assert f[1] == pytest.approx(-p.b * (p.beta - 2) / p.mu ** (p.beta / 2))
        assert f[2] == 0.0 and f[3] == 0.0

    def test_nonzero_v_adds_quadratic_term(self):
        p = Params(beta=3, mu=2, b=0.7)
        v0 = 0.4
        f = field(McGeheeState(0, v0, 0, 0), p)
        expected = 0.5 * (p.beta - 2) * v0 ** 2 - p.b * (p.beta - 2) / p.mu ** 1.5
        assert f[1] == pytest.approx(expected)

    def test_vanishes_at_equilibrium(self):
        p = Params(beta=3, mu=1.5, b=0.5, h=-0.2)
        eq = a_plus_pi_half(p).location
        assert eq.v == pytest.approx(math.sqrt(2 * p.b))
        assert np.max(np.abs(field(eq, p))) < 1e-12

    def test_requires_beta_above_two(self):
        # the field serves beta >= 2 (beta = 2 is the integrable case)
        with pytest.raises(ValueError):
            mcgehee_rhs(Params(1.5, 1, 1))

    def test_time_rescaled_consistency_with_cartesian_flow(self):
        # dual-integration oracle: the regularized orbit, reparametrized by
        # dt/dtau = r^(beta/2+1), shadows the Cartesian orbit
        s = CartesianState(1.1, 0.2, -0.2, 0.9)
        base = Params(3.0, 1.4, 0.5)
        p = Params(3.0, 1.4, 0.5, h=hamiltonian(s, base))
        t_end = 0.5
        cart = integrate(cartesian_rhs(p), s.as_array(), (0.0, t_end), TIGHT)
        m0 = to_mcgehee(s, p)
        rescaled = mcgehee_rhs(p)

        def with_time(t, y):
            return np.append(rescaled(t, y[:4]), y[0] ** (p.beta / 2 + 1))

        hit = Event(lambda t, y: y[4] - t_end, "t-final", terminal=True)
        reg = integrate(with_time, np.append(m0.as_array(), 0.0), (0.0, 50.0), TIGHT,
                        events=[hit])
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
        batch = np.stack(_field_arrays(np, *y, p))
        assert batch.shape == y.shape
        for i in range(y.shape[1]):
            # bitwise: a sample's field does not depend on the rest of the batch
            alone = np.stack(_field_arrays(np, *y[:, i:i + 1], p))[:, 0]
            assert np.array_equal(batch[:, i], alone)
            # a single state runs on Python floats, whose power (the C
            # library's pow, as numpy's scalar power) may round the last bit
            # differently from numpy's vectorized one; terms stay below
            # 2 * 3^6, whose ulp is 2.3e-13, so allow a few ulp
            scalar = field(McGeheeState(*y[:, i]), p)
            assert np.max(np.abs(scalar - batch[:, i])) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(p=st.builds(Params, beta=_reals(2.0, 6.0), mu=_reals(1.0, 4.0),
                       b=_reals(0.01, 2.0), h=_reals(-1.0, 1.0)),
           y=_state_batches())
    def test_batch_within_8_eps_of_the_paper_formula(self, p, y):
        # the paper's field, with sin 2 theta, r^beta and Delta^((beta+2)/2), at
        # 40 digits on the same doubles; the error of each component stays below
        # 8 eps times its largest term (plus 8 times the smallest subnormal, for
        # a product that underflows)
        batch = np.stack(_field_arrays(np, *y, p))
        with mpmath.workdps(40):
            beta, mu, b, h = (mpmath.mpf(x) for x in (p.beta, p.mu, p.b, p.h))
            for i, (r, v, th, u) in enumerate(y.T.tolist()):
                r, v, th, u = (mpmath.mpf(x) for x in (r, v, th, u))
                D = mu * mpmath.cos(th) ** 2 + mpmath.sin(th) ** 2
                terms = ([r * v],
                         [(beta - 2) / 2 * v * v, r ** (beta - 1), 2 * h * r ** beta,
                          -b * (beta - 2) / D ** (beta / 2)],
                         [u],
                         [(beta - 2) / 2 * u * v,
                          b * beta * (mu - 1) * mpmath.sin(2 * th) / (2 * D ** ((beta + 2) / 2))])
                for k, parts in enumerate(terms):
                    err = abs(mpmath.mpf(float(batch[k, i])) - mpmath.fsum(parts))
                    largest = max(abs(t) for t in parts)
                    assert err <= 8 * (np.finfo(float).eps * largest + math.ulp(0.0))


class TestChartConjugacy:
    """The McGehee field is the push-forward of the Cartesian field through
    `to_mcgehee`, times dt/dtau = r^(beta/2+1), on the level h = hamiltonian(s)."""

    @settings(max_examples=200, deadline=None)
    @given(beta=_reals(2.0, 6.0), mu=_reals(1.0, 4.0), b=_reals(0.05, 2.0),
           r=_reals(0.2, 3.0), theta=_reals(0.1, 2 * math.pi - 0.1),
           px=_reals(-2.0, 2.0), py=_reals(-2.0, 2.0))
    def test_mcgehee_field_is_the_rescaled_pushforward(self, beta, mu, b, r, theta, px, py):
        # theta stays off the 0/2pi cut of to_mcgehee, so the difference is smooth
        s = CartesianState(r * math.cos(theta), r * math.sin(theta), px, py)
        p = Params(beta, mu, b, h=hamiltonian(s, Params(beta, mu, b)))
        y = s.as_array()
        f = cartesian_rhs(p)(0.0, y)
        # a displacement of 1e-4 r along the flow: at the corners of these
        # ranges the central difference stays within 3e-8 (1 + |field|)
        step = 1e-4 * r / np.linalg.norm(f)
        ahead, behind = (to_mcgehee(CartesianState(*(y + sign * step * f)), p).as_array()
                         for sign in (1.0, -1.0))
        pushed = r ** (beta / 2 + 1) * (ahead - behind) / (2 * step)
        want = field(to_mcgehee(s, p), p)
        assert np.all(np.abs(pushed - want) <= 1e-6 * (1.0 + np.abs(want)))


class _CountingNumpy:
    """numpy as a namespace, counting the names taken from it."""

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(np, name)


class _CountingArray(np.ndarray):
    """An array counting the ufuncs applied to it and to every array made from it."""

    calls = Counter()

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _CountingArray.calls[ufunc.__name__] += 1
        out = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
        return out.view(_CountingArray)


class TestFieldCost:
    def test_one_sine_cosine_pair_and_two_powers_per_call(self):
        # beta = 3.5 keeps numpy's ** on its general power ufunc (an exponent of
        # 2 would take the square fast path)
        p = Params(3.5, 1.7, 0.5, h=-0.25)
        y = np.random.default_rng(0).uniform(0.1, 2.0, (4, 50))
        xp = _CountingNumpy()
        _CountingArray.calls = Counter()
        batch = _field_arrays(xp, *y.view(_CountingArray), p)
        assert xp.calls == {"cos": 1, "sin": 1}
        calls = _CountingArray.calls
        assert (calls["cos"], calls["sin"], calls["power"]) == (1, 1, 2)
        assert np.array_equal(np.stack(batch), np.stack(_field_arrays(np, *y, p)))


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

    @pytest.mark.parametrize("beta", [2, 2.5, 3])
    def test_level_through_zeroes_the_residual(self, beta):
        p = Params(beta, 1.3, 0.5, h=-0.25)
        m = McGeheeState(0.8, 0.1, 1.0, 0.6)
        level = level_through(m, p)
        assert abs(energy_residual(m, level)) <= 1e-12
        inline = p.h + energy_residual(m, p) / (2 * m.r ** beta)
        assert level == replace(p, h=level.h)
        assert float(level.h).hex() == float(inline).hex()

    def test_level_through_needs_r_positive(self):
        with pytest.raises(DomainError):
            level_through(McGeheeState(0.0, 1.0, 0.5, 0.0), Params(3, 1.3, 0.5))


class TestCollisionFlow:
    def _on_c(self, theta, phi, p):
        mag = math.sqrt(2 * p.b / delta(theta, p.mu) ** (p.beta / 2))
        return McGeheeState(0.0, mag * math.cos(phi), theta, mag * math.sin(phi))

    def _flow(self, m, p):
        """(v', theta', u') at a point of C: the field at r = 0, where r' = r v = 0."""
        dr, dv, dth, du = field(m, p)
        assert dr == 0.0
        return dv, dth, du

    def test_u_zero_gives_v_stationary(self):
        p = Params(beta=3, mu=2, b=0.5)
        m = self._on_c(0.8, 0.0, p)  # u = 0
        dv, dth, du = self._flow(m, p)
        # v' = -(beta-2) u^2/2 on C, up to the roundoff of the energy relation
        scale = p.b * (p.beta - 2) / delta(0.8, p.mu) ** (p.beta / 2)
        assert abs(dv) <= 4 * np.finfo(float).eps * scale
        assert dth == 0.0
        assert du == pytest.approx(p.b * p.beta * (p.mu - 1) * math.sin(1.6)
                                   / (2 * delta(0.8, p.mu) ** ((p.beta + 2) / 2)))

    def test_isotropic_diagonal(self):
        p = Params(beta=3.5, mu=1, b=0.5)
        m = self._on_c(math.pi / 4, 1.0, p)
        dv, dth, du = self._flow(m, p)
        assert du == pytest.approx(0.5 * (p.beta - 2) * m.u * m.v)

    def test_v_prime_nonpositive(self):
        p = Params(beta=4, mu=1.5, b=0.7)
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = self._on_c(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi), p)
            dv = self._flow(m, p)[0]
            assert dv <= 0.0
            if abs(m.u) > 1e-12:
                assert dv < 0.0

    def test_gradient_like_along_arcs(self):
        p = Params(beta=3, mu=1.4, b=0.5)
        rng = np.random.default_rng(12)
        for _ in range(5):
            m = self._on_c(rng.uniform(0, 2 * math.pi), rng.uniform(0.3, 2.8), p)
            traj = integrate(mcgehee_rhs(p), m.as_array(), (0.0, 8.0), TIGHT)
            assert np.all(traj.states[:, 0] == 0.0)
            v = traj.states[:, 1]
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
            assert np.max(np.abs(field(e.location, p))) < 1e-12

    def test_overflowed_spectrum_is_not_classified(self):
        # Delta^(beta/2) overflows, so every eigenvalue underflows to 0
        with pytest.raises(ArithmeticError):
            equilibria(Params(beta=3, mu=1e300, b=0.5))

    def test_overflowed_location_raises_at_mu_one(self):
        # 2b overflows to inf; at mu = 1 no classification runs, so the
        # finiteness check must not depend on it
        with pytest.raises(ArithmeticError):
            equilibria(Params(beta=3, mu=1.0, b=1e308))


class TestLinearization:
    def test_matrix_matches_field_jacobian(self):
        for p in (Params(3, 1.2, 0.5, h=-0.25), Params(2.5, 2.0, 1.0, h=0.1),
                  Params(4, 1.05, 0.5, h=-1.0)):
            for e in equilibria(p):
                # the complex step is exact to roundoff
                assert np.allclose(linearize_at(e.location, p), level_jacobian(e.location, p),
                                   rtol=0.0, atol=1e-15)

    def test_closed_form_eigenvalues_match_field_jacobian(self):
        p = Params(3, 1.2, 0.5, h=-0.25)
        for e in equilibria(p):
            got = np.sort_complex(np.linalg.eigvals(level_jacobian(e.location, p)))
            expect = np.sort_complex(np.array(e.eigenvalues))
            assert np.allclose(got, expect, rtol=1e-12, atol=1e-15)

    def test_pi_half_family_eigenvalue_structure(self):
        # radial eigenvalue sqrt(2b); the (theta, u) block contributes
        # (beta-2)sqrt(2b)/4 +- (1/2) sqrt(b/2 [(beta-2)^2 - 8 beta (mu-1)])
        beta, b, mu = 3.0, 0.5, 1.2
        lam = a_plus_pi_half(Params(beta, mu, b)).eigenvalues
        root = np.sqrt(complex(0.5 * b * ((beta - 2) ** 2 - 8 * beta * (mu - 1))))
        expect = (math.sqrt(2 * b),
                  (beta - 2) * math.sqrt(2 * b) / 4 + root / 2,
                  (beta - 2) * math.sqrt(2 * b) / 4 - root / 2)
        assert np.allclose(np.sort_complex(np.array(lam)), np.sort_complex(np.array(expect)))

    def test_degenerate_isotropic_case(self):
        # at mu = 1 the pi/2 family has eigenvalues {sqrt(2b), (beta-2)sqrt(2b)/2, 0};
        # the zero eigenvalue puts mu = 1 outside the hyperbolic classification
        lam = a_plus_pi_half(Params(3, 1, 0.5)).eigenvalues
        vals = sorted(v.real for v in lam)
        assert vals == pytest.approx([0.0, 0.5, 1.0])
        assert all(v.imag == 0.0 for v in lam)


class TestClassification:
    def test_pattern(self):
        p = Params(beta=3, mu=1.2, b=0.5)
        reports = {e.label: e for e in equilibria(p)}
        for name in ("0", "pi"):
            assert reports[f"A+_{name}"].stability is Stability.SADDLE
            assert reports[f"A-_{name}"].stability is Stability.SADDLE
        for name in ("pi/2", "3pi/2"):
            assert reports[f"A+_{name}"].stability in (Stability.SOURCE, Stability.SPIRAL_SOURCE)
            assert reports[f"A-_{name}"].stability in (Stability.SINK, Stability.SPIRAL_SINK)

    def test_spiral_threshold_value(self):
        assert spiral_threshold(3.0) == pytest.approx(25 / 24)

    def test_spiral_onset(self):
        below = equilibria(Params(3, 1.01, 0.5))
        assert not any(e.spiraling for e in below)
        above = equilibria(Params(3, 1.2, 0.5))
        assert all(e.spiraling for e in above if "pi/2" in e.label)

    def test_threshold_independent_of_b(self):
        for mu in (1.02, 1.08, 1.5):
            a = [e.stability for e in equilibria(Params(3, mu, 0.1))]
            bb = [e.stability for e in equilibria(Params(3, mu, 10.0))]
            assert a == bb

    def test_all_real_positive_below_threshold(self):
        lam = a_plus_pi_half(Params(3, 1.01, 0.5)).eigenvalues
        assert all(v.imag == 0.0 and v.real > 0 for v in lam)

    def test_mu_one_left_unclassified(self):
        # at mu = 1 the pi/2 family has a zero eigenvalue: no stability, no spiral
        reports = equilibria(Params(3, 1.0, 0.5))
        assert [e.stability for e in reports] == [None] * 8
        assert not any(e.spiraling for e in reports)

    def test_grid_pattern(self):
        for beta in (2.5, 3.0, 4.0):
            for b in (0.5, 1.0):
                for mu in (1.01, 1.2, 2.0):
                    kinds = [e.stability for e in equilibria(Params(beta, mu, b))]
                    assert sum(k is Stability.SADDLE for k in kinds) == 4
                    assert sum(k in (Stability.SOURCE, Stability.SPIRAL_SOURCE)
                               for k in kinds) == 2
                    assert sum(k in (Stability.SINK, Stability.SPIRAL_SINK)
                               for k in kinds) == 2

    @settings(max_examples=200, deadline=None)
    @given(_reals(2.05, 6.0), _reals(1.001, 4.0), _reals(0.05, 2.0))
    # at the spiral threshold, where the (theta, u) block has a double eigenvalue
    @example(4.888442211055276, 1.2133373487503305, 2.0)
    def test_pattern_over_continuous_ranges(self, beta, mu, b):
        # 4 saddles, 2 sources, 2 sinks at every (beta, mu, b); each reported
        # spectrum is the spectrum of the reported linearization, compared by
        # characteristic polynomial: near a double eigenvalue the eigenvalues
        # themselves carry up to sqrt(eps) of roundoff, the coefficients do not
        p = Params(beta, mu, b)
        reports = equilibria(p)
        kinds = Counter(e.stability for e in reports)
        assert kinds[Stability.SADDLE] == 4
        assert kinds[Stability.SOURCE] + kinds[Stability.SPIRAL_SOURCE] == 2
        assert kinds[Stability.SINK] + kinds[Stability.SPIRAL_SINK] == 2
        for e in reports:
            got = np.poly(linearize_at(e.location, p))
            want = np.poly(e.eigenvalues)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (e.label, got, want)


class TestInvariantManifolds:
    def test_collision_manifold_invariance(self):
        # r' = r v: a start with r = 0 keeps r = 0 exactly (bitwise)
        p = Params(beta=3, mu=1.3, b=0.5, h=-0.25)
        theta = 0.3 + math.pi / 2  # not an equilibrium angle
        m0 = McGeheeState(0.0, math.sqrt(2 * p.b / delta(theta, p.mu) ** (p.beta / 2)), theta, 0.0)
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
        with pytest.raises(ArithmeticError, match="escape orbits"):
            basin_fraction(p, 200, 40.0, box=box, seed=1)

    def test_step_limit_binds_the_shared_step(self, monkeypatch):
        # at mu = 1 this sample is a bounded orbit that never collides, so only
        # the horizon or the step limit ends the run
        monkeypatch.setattr(mcgehee, "IntegratorConfig", partial(IntegratorConfig, max_steps=500))
        p = Params(3.0, 1.0, 0.5, h=-0.1)
        box = BasinBox(r=(3.58, 3.5801), theta=(0.05, 0.0501), u=(3.7, 3.7001))
        with pytest.raises(MaxStepsExceeded, match="exceeded 500 steps"):
            basin_fraction(p, 1, 40.0, box=box)

    def test_box_rejects_non_finite_bounds_and_bad_sign(self):
        for bound in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                BasinBox(r=(0.05, 0.35), theta=(bound, 1.9), u=(-0.15, 0.15))
        for v_sign in (0, 2, -3):
            with pytest.raises(ValueError):
                BasinBox(r=(0.05, 0.35), theta=(1.3, 1.9), u=(-0.15, 0.15), v_sign=v_sign)
        with pytest.raises(ValueError, match=r"range of r is reversed: 0.35\.\.0.05"):
            BasinBox(r=(0.35, 0.05), theta=(1.3, 1.9), u=(-0.15, 0.15))
        with pytest.raises(ValueError, match=r"range of theta is reversed: 1.9\.\.1.3"):
            BasinBox(r=(0.05, 0.35), theta=(1.9, 1.3), u=(-0.15, 0.15))
        with pytest.raises(ValueError, match=r"range of u is reversed: 0.15\.\.-0.15"):
            BasinBox(r=(0.05, 0.35), theta=(1.3, 1.9), u=(0.15, -0.15))

    def test_box_must_meet_energy_level(self):
        p = Params(beta=3, mu=1.2, b=0.5, h=-5.0)
        box = BasinBox(r=(2.0, 3.0), theta=(0.0, 1.0), u=(0.0, 0.1))
        with pytest.raises(ValueError):
            basin_fraction(p, 50, 5.0, box=box)

    @pytest.mark.parametrize("mu", [1.2, 3.0])
    def test_agrees_with_adaptive_integrator_spot_checks(self, mu):
        # cross-validate the ensemble stepping against event-located single
        # integrations on a handful of samples, at both ends of the mu sweep
        p = replace(self.P, mu=mu)
        rng = np.random.default_rng(9)
        box = BasinBox.near_sink(p)
        hit = Event(lambda t, y: y[0] - 1e-6, "collision", terminal=True)
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
