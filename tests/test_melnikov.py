"""Parabolic orbits, Melnikov integrals, closed Gamma forms, chaos indicator."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisokepler.melnikov as melnikov
from anisokepler.melnikov import (
    ChaosVerdict,
    chaos_verdict,
    i1_integrand_eta,
    i1_parity_check,
    i2_amplitude,
    i2_beta_roots,
    i2_closed_form,
    i2_quadrature,
    m1_direct_quadrature,
    melnikov_M2,
    parabolic_rt,
    parabolic_velocities,
    perturbation_W2,
    perturbation_W2_partials,
)

BETAS = [1.75, 2.0, 2.5, 3.0, 4.0, 5.0]
PS = [0.5, 1.0, 2.0]
# dense near the endpoint singularity at beta = 3/2, the poles of the exact
# form at beta = 2, 3 and beyond
EXACT_BETAS = ([1.502, 1.503, 1.505, 1.51, 1.52, 1.55, 1.6, 1.75, 1.9, 1.99, 2.0, 2.01]
               + [round(b, 2) for b in np.arange(2.25, 10.0, 0.25)] + [2.999, 3.0, 3.001, 10.0])


def i2_exact(p_par, beta):
    """I2 from the Beta-function integral of cos^a(w) cos(4w), a = 2 beta - 4, in
    mpmath at 40 digits; rgamma is 0 at the poles beta = 2 and 3."""
    with mpmath.workdps(40):
        beta = mpmath.mpf(beta)
        a = 2 * beta - 4
        integral = (2 * mpmath.pi * mpmath.gamma(a + 1) / 2 ** (a + 1)
                    * mpmath.rgamma(1 + (a + 4) / 2) * mpmath.rgamma(1 + (a - 4) / 2))
        prefactor = 2 ** (beta - 2) * beta * mpmath.mpf(p_par) ** (mpmath.mpf(1.5) - beta)
        return float(prefactor * integral)


class TestParabolicOrbit:
    def test_perihelion(self):
        # r = k^2/2 = p/2 at the perihelion angle theta = pi
        r, t, theta = parabolic_rt(0.0, 1.3)
        assert r == 0.65
        assert t == 0.0 and theta == math.pi

    def test_parity(self):
        # r even, t odd, theta - pi odd in eta
        for eta in (0.3, 1.0, 4.7):
            rp, tp, thp = parabolic_rt(eta, 0.8)
            rm, tm, thm = parabolic_rt(-eta, 0.8)
            assert rp == rm and tp == -tm
            assert thp - math.pi == pytest.approx(math.pi - thm, abs=1e-15)

    def test_defining_odes_by_finite_differences(self):
        # oracle: differentiate the parametric triple in eta and compare with
        # dr/dt = +-sqrt(2r - k^2)/r and dtheta/dt = k/r^2
        p_par = 1.7
        k = math.sqrt(p_par)
        d = 1e-6
        for eta in (-2.0, -0.5, 0.4, 1.5, 3.0):
            r, _, _ = parabolic_rt(eta, p_par)
            rp, tp, thp = parabolic_rt(eta + d, p_par)
            rm, tm, thm = parabolic_rt(eta - d, p_par)
            dt = tp - tm
            rdot_fd = (rp - rm) / dt
            thdot_fd = (thp - thm) / dt
            expect_r = math.copysign(math.sqrt(2 * r - k * k), eta) / r
            assert rdot_fd == pytest.approx(expect_r, rel=1e-6, abs=1e-8)
            assert thdot_fd == pytest.approx(k / r ** 2, rel=1e-6)
            vr, vth = parabolic_velocities(eta, p_par)
            assert vr == pytest.approx(expect_r, rel=1e-12, abs=1e-15)
            assert vth == pytest.approx(k / r ** 2, rel=1e-12)

    def test_positive_parameter_required(self):
        # every function that takes p checks it (the I2 routes in TestI2)
        routes = (lambda p_par: parabolic_rt(0.3, p_par),
                  lambda p_par: parabolic_velocities(0.3, p_par),
                  lambda p_par: i1_integrand_eta(0.3, p_par, 2.5),
                  lambda p_par: i1_parity_check(p_par, 2.5),
                  lambda p_par: m1_direct_quadrature(p_par, 2.5, 0.4),
                  lambda p_par: melnikov_M2(0.4, p_par, 2.5))
        for route in routes:
            for p_par in (-1.0, 0.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="orbit parameter"):
                    route(p_par)


class TestPerturbation:
    BETA = 2.5

    def test_vanishes_on_vertical_axis(self):
        assert perturbation_W2(2.0, math.pi / 2, self.BETA) == pytest.approx(0.0, abs=1e-16)

    def test_decay(self):
        vals = [perturbation_W2(r, 0.0, self.BETA) for r in (1.0, 10.0, 100.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] == pytest.approx(self.BETA / (2 * 100.0 ** self.BETA))

    def test_partials_match_finite_differences(self):
        d = 1e-6
        for (r, th) in ((1.2, 0.4), (3.0, 2.2), (0.7, -1.0)):
            wr, wth = perturbation_W2_partials(r, th, self.BETA)
            fr = (perturbation_W2(r + d, th, self.BETA)
                  - perturbation_W2(r - d, th, self.BETA)) / (2 * d)
            fth = (perturbation_W2(r, th + d, self.BETA)
                   - perturbation_W2(r, th - d, self.BETA)) / (2 * d)
            assert wr == pytest.approx(fr, rel=1e-6, abs=1e-10)
            assert wth == pytest.approx(fth, rel=1e-6, abs=1e-10)

    def test_theta_partial_is_minus_m2_integrand_profile(self):
        # dW2/dtheta = -(beta/2) sin(2 theta)/r^beta, the integrand of M2 up to sign
        beta = self.BETA
        for (r, th) in ((1.5, 0.3), (2.5, 1.9)):
            _, wth = perturbation_W2_partials(r, th, beta)
            assert -wth == pytest.approx(0.5 * beta * math.sin(2 * th) / r ** beta)

    def test_beta_bound(self):
        with pytest.raises(ValueError):
            perturbation_W2(1.0, 0.0, 1.4)


class TestM2:
    def test_zero_at_theta0_zero(self):
        assert abs(melnikov_M2(0.0, 1.0, 2.5)) < 1e-12

    def test_equals_i2_at_quarter(self):
        m2 = melnikov_M2(math.pi / 4, 1.3, 2.5)
        assert m2 == pytest.approx(i2_quadrature(1.3, 2.5), rel=1e-10)

    def test_beta4_unit_p_value_pi(self):
        assert melnikov_M2(math.pi / 4, 1.0, 4.0) == pytest.approx(math.pi, abs=1e-10)

    def test_sinusoidal_profile(self):
        i2 = i2_quadrature(0.9, 3.4)
        for th0 in np.linspace(0, 2 * math.pi, 9):
            assert melnikov_M2(th0, 0.9, 3.4) == pytest.approx(i2 * math.sin(2 * th0), abs=1e-10)

    @pytest.mark.parametrize("beta", [1.502, 1.75, 2.5, 3.0, 4.0, 7.5])
    def test_matches_exact_i2_times_sin(self, beta):
        i2 = i2_exact(0.8, beta)
        for th0 in np.linspace(0, 2 * math.pi, 13):
            assert melnikov_M2(th0, 0.8, beta) == pytest.approx(
                i2 * math.sin(2 * th0), abs=1e-13 * max(1.0, abs(i2)))

    def test_normalization_offset_invariance(self):
        # the sin(2 .) integrand ignores the pi shift fixing the perihelion angle
        beta, p_par, th0 = 2.8, 1.1, 0.6
        from scipy.integrate import quad

        def with_phase(shift):
            f = lambda w: math.cos(w) ** (2 * beta - 4) * math.sin(4 * w + 2 * th0 + 2 * shift)
            val, _ = quad(f, -math.pi / 2, math.pi / 2, limit=200, epsabs=1e-13, epsrel=1e-12)
            return 2.0 ** (beta - 2.0) * beta * p_par ** (1.5 - beta) * val

        assert with_phase(0.0) == pytest.approx(with_phase(math.pi), abs=1e-12)


class TestI1AndM1:
    @pytest.mark.parametrize("beta,p_par", [(3.0, 1.0), (2.5, 2.0)])
    def test_i1_below_tolerance(self, beta, p_par):
        assert abs(i1_parity_check(p_par, beta)) <= 1e-10

    def test_i1_check_fails_off_the_symmetric_phase(self, monkeypatch):
        # with the perihelion angle moved off pi, I1 is not zero; a quadrature
        # on nodes mirrored about the perihelion would still return 0
        monkeypatch.setattr(melnikov, "THETA_NORMALIZATION_OFFSET", math.pi / 3)
        assert abs(i1_parity_check(1.0, 2.5)) > 1e-3

    def test_i1_integrand_odd_pointwise(self):
        for eta in (0.2, 0.9, 3.3, 10.0):
            a = i1_integrand_eta(eta, 1.4, 2.5)
            b = i1_integrand_eta(-eta, 1.4, 2.5)
            assert a == pytest.approx(-b, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("p_par", PS)
    def test_m1_residual_small(self, beta, p_par):
        assert abs(m1_direct_quadrature(p_par, beta, 0.4)) <= 1e-10

    def test_m1_check_fails_on_a_wrong_r_partial(self, monkeypatch):
        # dW2/dr scaled by r^0.1 is no longer the partial of a function that
        # vanishes at both ends, so the integral of the "total derivative" is not 0
        partials = melnikov.perturbation_W2_partials

        def wrong(r, theta, beta):
            wr, wth = partials(r, theta, beta)
            return wr * r ** 0.1, wth

        monkeypatch.setattr(melnikov, "perturbation_W2_partials", wrong)
        assert abs(m1_direct_quadrature(1.0, 2.5, 0.4)) > 1e-3

    def test_endpoint_decay_rate(self):
        beta = 2.5
        for eta in (10.0, 30.0, 100.0):
            r, _, th = parabolic_rt(eta, 1.0)
            assert perturbation_W2(r, th, beta) <= beta / (2 * r ** beta) + 1e-18

    def test_two_melnikov_forms_agree(self):
        # direct form versus the bracket form built from finite differences of
        # the Kepler Hamiltonian in polar phase space
        beta, p_par, theta0 = 2.5, 1.2, 0.4
        direct = m1_direct_quadrature(p_par, beta, theta0)
        assert abs(direct) <= 1e-10

        def h0(r, th, pr, pth):
            return 0.5 * (pr * pr + pth * pth / (r * r)) - 1.0 / r

        def bracket_integrand(eta):
            # {W2, H0} = dH0/dpr * dW2/dr + dH0/dptheta * dW2/dtheta, with the
            # momentum partials of H0 taken by finite differences
            r, _, th = parabolic_rt(eta, p_par)
            pr, _ = parabolic_velocities(eta, p_par)
            pth = math.sqrt(p_par)
            d = 1e-6
            dH_dpr = (h0(r, th, pr + d, pth) - h0(r, th, pr - d, pth)) / (2 * d)
            dH_dpth = (h0(r, th, pr, pth + d) - h0(r, th, pr, pth - d)) / (2 * d)
            wr, wth = perturbation_W2_partials(r, th + theta0, beta)
            return dH_dpr * wr + dH_dpth * wth

        # pointwise agreement of the two integrands
        for eta in (-2.0, -0.5, 0.3, 1.7):
            r, _, th = parabolic_rt(eta, p_par)
            rdot, thdot = parabolic_velocities(eta, p_par)
            wr, wth = perturbation_W2_partials(r, th + theta0, beta)
            assert bracket_integrand(eta) == pytest.approx(rdot * wr + thdot * wth,
                                                           rel=1e-5, abs=1e-10)


class TestI2:
    def test_roots_of_factor(self):
        assert i2_closed_form(1.0, 2.0) == 0.0
        assert i2_closed_form(1.0, 3.0) == 0.0

    def test_beta4_is_pi(self):
        assert i2_closed_form(1.0, 4.0) == pytest.approx(math.pi, abs=1e-12)

    def test_domain_error_below_three_halves(self):
        with pytest.raises(ValueError):
            i2_closed_form(1.0, 1.5)

    @pytest.mark.parametrize("p_par", [-1.0, 0.0, math.nan, math.inf])
    def test_orbit_parameter_must_be_positive(self, p_par):
        for fn in (i2_quadrature, i2_closed_form, i2_amplitude):
            with pytest.raises(ValueError, match="orbit parameter"):
                fn(p_par, 2.5)

    def test_gamma_overflow_raises(self):
        # the Gamma products overflow from beta ~ 149 on; inf or NaN must not
        # pass the agreement check
        assert math.isfinite(i2_closed_form(1.0, 140.0))
        for beta in (150.0, 180.0, 200.0):
            with pytest.raises(ArithmeticError):
                i2_closed_form(1.0, beta)

    def test_sign_change_only_across_two_and_three(self):
        assert i2_closed_form(1.0, 2.9) * i2_closed_form(1.0, 3.1) < 0
        grid = np.arange(1.51, 10.0, 0.007)
        vals = np.array([i2_closed_form(1.0, b) for b in grid])
        flips = np.count_nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
        assert flips == 2

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("p_par", PS)
    def test_quadrature_matches_closed_form(self, beta, p_par):
        q = i2_quadrature(p_par, beta)
        c = i2_closed_form(p_par, beta)
        assert abs(q - c) <= 1e-6 * max(1.0, abs(c))

    @pytest.mark.parametrize("p_par", [0.7, 1.0])
    def test_both_routes_match_exact_reference(self, p_par):
        for beta in EXACT_BETAS:
            exact = i2_exact(p_par, beta)
            for route in (i2_quadrature, i2_closed_form):
                assert abs(route(p_par, beta) - exact) <= 1e-13 * max(1.0, abs(exact)), \
                    (route.__name__, beta)

    def test_quadrature_converges_next_to_three_halves(self):
        # the endpoint singularity cos^(2 beta - 4) is strongest here
        for beta in np.arange(1.502, 1.51, 0.001):
            exact = i2_exact(1.0, float(beta))
            assert abs(i2_quadrature(1.0, float(beta)) - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("beta", [1.75, 2.5, 4.0])
    def test_scaling_law(self, beta):
        base = i2_closed_form(1.0, beta)
        for p_par in PS:
            assert i2_closed_form(p_par, beta) == pytest.approx(
                p_par ** (1.5 - beta) * base, rel=1e-12)
            assert i2_quadrature(p_par, beta) == pytest.approx(
                p_par ** (1.5 - beta) * base, rel=1e-9, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(log_p=st.floats(-6.0, 6.0),
           beta=st.sampled_from([1.502, 1.6, 1.75, 2.0, 2.5, 2.999, 3.0, 3.001, 4.0, 7.5, 10.0]))
    def test_scaling_law_holds_for_every_p(self, log_p, beta):
        # the closed form at p is its p = 1 value times p^(3/2 - beta), and
        # exactly 0 at the zeros beta = 2, 3 for every p: the Gamma forms are
        # compared at p = 1, so no p lifts their roundoff residue above 1e-10
        p_par = 10.0 ** log_p
        expect = p_par ** (1.5 - beta) * i2_closed_form(1.0, beta)
        got = i2_closed_form(p_par, beta)
        assert abs(got - expect) <= 4 * math.ulp(expect)
        if beta in (2.0, 3.0):
            assert got == 0.0

    def test_scaled_value_outside_the_float_range_raises(self):
        for call in (lambda: i2_closed_form(1e-300, 5.0), lambda: i2_quadrature(1e-300, 5.0),
                     lambda: i2_amplitude(1e-300, 5.0), lambda: melnikov_M2(0.4, 1e-300, 5.0)):
            with pytest.raises(ArithmeticError,
                               match=r"p = 1e-300, beta = 5\.0 leaves the float range"):
                call()
        # at the zeros too: p^(3/2 - beta) itself is out of range
        with pytest.raises(ArithmeticError, match="float range"):
            i2_closed_form(1e-300, 3.0)

    def test_scale_below_the_normal_floats_raises(self):
        # p^(3/2 - beta) = 1e-310 is subnormal: a nonzero value scaled by it
        # would keep few digits, or none
        for call in (lambda: i2_closed_form(1e200, 3.05), lambda: i2_quadrature(1e200, 3.05),
                     lambda: i2_amplitude(1e200, 3.05), lambda: melnikov_M2(0.4, 1e200, 3.05)):
            with pytest.raises(ArithmeticError, match=r"p = 1e\+200, beta = 3\.05 leaves the "
                                                      r"float range \(magnitude below 2\.2e-308\)"):
                call()
        # a scale of 1e-307 is still normal
        assert i2_amplitude(1e200, 3.035) == pytest.approx(2.0 ** 1.035 * 1e-307, rel=1e-12)
        # an exact zero needs no digits: the closed form at beta = 3, scale 1e-450
        assert i2_closed_form(1e300, 3.0) == 0.0

    def test_roots_located_to_tolerance(self):
        roots = i2_beta_roots()
        assert len(roots) == 2
        assert abs(roots[0] - 2.0) <= 1e-10
        assert abs(roots[1] - 3.0) <= 1e-10

    def test_amplitude(self):
        assert i2_amplitude(1.0, 4.0) == 4.0
        assert i2_amplitude(2.0, 2.0) == pytest.approx(2 ** 0 * 2 ** -0.5)


class TestVerdict:
    def test_values(self):
        assert chaos_verdict(2.5) is ChaosVerdict.SIMPLE_ZEROS
        assert chaos_verdict(3.0) is ChaosVerdict.ZERO_M2
        assert chaos_verdict(2.0) is ChaosVerdict.ZERO_M2
        assert chaos_verdict(4.0) is ChaosVerdict.SIMPLE_ZEROS

