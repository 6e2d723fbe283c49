"""Parabolic orbits, Melnikov integrals, closed Gamma forms, chaos indicator."""

import math

import numpy as np
import pytest

from anisokepler.core import Params
from anisokepler.melnikov import (
    ChaosVerdict,
    ParabolicOrbit,
    chaos_verdict,
    i1_integrand_eta,
    i1_parity_check,
    i2_amplitude,
    i2_beta_roots,
    i2_closed_form,
    i2_quadrature,
    m1_direct_quadrature,
    m1_vanishes,
    melnikov_M2,
    melnikov_analysis,
    parabolic_rt,
    parabolic_velocities,
    perturbation_W2,
    perturbation_W2_partials,
)

BETAS = [1.75, 2.0, 2.5, 3.0, 4.0, 5.0]
PS = [0.5, 1.0, 2.0]


class TestParabolicOrbit:
    def test_perihelion(self):
        orb = ParabolicOrbit(1.3)
        r, t, theta = parabolic_rt(0.0, orb)
        assert r == pytest.approx(orb.r_min) == pytest.approx(orb.k ** 2 / 2)
        assert t == 0.0 and theta == 0.0
        r_n, _, theta_n = parabolic_rt(0.0, orb, normalized=True)
        assert theta_n == pytest.approx(math.pi)

    def test_parity(self):
        orb = ParabolicOrbit(0.8)
        for eta in (0.3, 1.0, 4.7):
            rp, tp, thp = parabolic_rt(eta, orb)
            rm, tm, thm = parabolic_rt(-eta, orb)
            assert rp == rm and tp == -tm and thp == -thm

    def test_defining_odes_by_finite_differences(self):
        # oracle: differentiate the parametric triple in eta and compare with
        # dr/dt = +-sqrt(2r - k^2)/r and dtheta/dt = k/r^2
        orb = ParabolicOrbit(1.7)
        k = orb.k
        d = 1e-6
        for eta in (-2.0, -0.5, 0.4, 1.5, 3.0):
            r, _, _ = parabolic_rt(eta, orb)
            rp, tp, _ = parabolic_rt(eta + d, orb)
            rm, tm, _ = parabolic_rt(eta - d, orb)
            _, _, thp = parabolic_rt(eta + d, orb)
            _, _, thm = parabolic_rt(eta - d, orb)
            dt = tp - tm
            rdot_fd = (rp - rm) / dt
            thdot_fd = (thp - thm) / dt
            expect_r = math.copysign(math.sqrt(2 * r - k * k), eta) / r
            assert rdot_fd == pytest.approx(expect_r, rel=1e-6, abs=1e-8)
            assert thdot_fd == pytest.approx(k / r ** 2, rel=1e-6)
            vr, vth = parabolic_velocities(eta, orb)
            assert vr == pytest.approx(expect_r, rel=1e-12, abs=1e-15)
            assert vth == pytest.approx(k / r ** 2, rel=1e-12)

    def test_positive_parameter_required(self):
        with pytest.raises(ValueError):
            ParabolicOrbit(0.0)


class TestPerturbation:
    P = Params(beta=2.5, mu=1.1, b=0.01)

    def test_vanishes_on_vertical_axis(self):
        assert perturbation_W2(2.0, math.pi / 2, self.P) == pytest.approx(0.0, abs=1e-16)

    def test_decay(self):
        vals = [perturbation_W2(r, 0.0, self.P) for r in (1.0, 10.0, 100.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] == pytest.approx(self.P.beta / (2 * 100.0 ** self.P.beta))

    def test_partials_match_finite_differences(self):
        d = 1e-6
        for (r, th) in ((1.2, 0.4), (3.0, 2.2), (0.7, -1.0)):
            wr, wth = perturbation_W2_partials(r, th, self.P)
            fr = (perturbation_W2(r + d, th, self.P) - perturbation_W2(r - d, th, self.P)) / (2 * d)
            fth = (perturbation_W2(r, th + d, self.P) - perturbation_W2(r, th - d, self.P)) / (2 * d)
            assert wr == pytest.approx(fr, rel=1e-6, abs=1e-10)
            assert wth == pytest.approx(fth, rel=1e-6, abs=1e-10)

    def test_theta_partial_is_minus_m2_integrand_profile(self):
        # dW2/dtheta = -(beta/2) sin(2 theta)/r^beta, the integrand of M2 up to sign
        p = self.P
        for (r, th) in ((1.5, 0.3), (2.5, 1.9)):
            _, wth = perturbation_W2_partials(r, th, p)
            assert -wth == pytest.approx(0.5 * p.beta * math.sin(2 * th) / r ** p.beta)

    def test_beta_bound(self):
        with pytest.raises(ValueError):
            perturbation_W2(1.0, 0.0, Params(beta=1.4, mu=1.1, b=0.01))


class TestM2:
    def test_zero_at_theta0_zero(self):
        p = Params(beta=2.5, mu=1.1, b=0.01)
        assert abs(melnikov_M2(0.0, ParabolicOrbit(1.0), p)) < 1e-12

    def test_equals_i2_at_quarter(self):
        p = Params(beta=2.5, mu=1.1, b=0.01)
        m2 = melnikov_M2(math.pi / 4, ParabolicOrbit(1.3), p)
        assert m2 == pytest.approx(i2_quadrature(1.3, 2.5), rel=1e-10)

    def test_beta4_unit_p_value_pi(self):
        p = Params(beta=4, mu=1.1, b=0.01)
        assert melnikov_M2(math.pi / 4, ParabolicOrbit(1.0), p) == pytest.approx(math.pi, abs=1e-10)

    def test_sinusoidal_profile(self):
        p = Params(beta=3.4, mu=1.1, b=0.01)
        orb = ParabolicOrbit(0.9)
        i2 = i2_quadrature(0.9, 3.4)
        for th0 in np.linspace(0, 2 * math.pi, 9):
            assert melnikov_M2(th0, orb, p) == pytest.approx(i2 * math.sin(2 * th0), abs=1e-10)

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
        p = Params(beta=beta, mu=1.1, b=0.01)
        assert abs(i1_parity_check(ParabolicOrbit(p_par), p)) <= 1e-10

    def test_i1_integrand_odd_pointwise(self):
        p = Params(beta=2.5, mu=1.1, b=0.01)
        orb = ParabolicOrbit(1.4)
        for eta in (0.2, 0.9, 3.3, 10.0):
            a = i1_integrand_eta(eta, orb, p)
            b = i1_integrand_eta(-eta, orb, p)
            assert a == pytest.approx(-b, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("p_par", PS)
    def test_m1_residual_small(self, beta, p_par):
        p = Params(beta=beta, mu=1.1, b=0.01)
        assert abs(m1_vanishes(ParabolicOrbit(p_par), p)) <= 1e-10

    def test_endpoint_decay_rate(self):
        p = Params(beta=2.5, mu=1.1, b=0.01)
        orb = ParabolicOrbit(1.0)
        for eta in (10.0, 30.0, 100.0):
            r, _, th = parabolic_rt(eta, orb, normalized=True)
            assert perturbation_W2(r, th, p) <= p.beta / (2 * r ** p.beta) + 1e-18

    def test_two_melnikov_forms_agree(self):
        # direct form versus the bracket form built from finite differences of
        # the Kepler Hamiltonian in polar phase space
        p = Params(beta=2.5, mu=1.1, b=0.01)
        orb = ParabolicOrbit(1.2)
        theta0 = 0.4
        direct = m1_direct_quadrature(orb, p, theta0)
        assert abs(direct) <= 1e-10

        def h0(r, th, pr, pth):
            return 0.5 * (pr * pr + pth * pth / (r * r)) - 1.0 / r

        def bracket_integrand(eta):
            # {W2, H0} = dH0/dpr * dW2/dr + dH0/dptheta * dW2/dtheta, with the
            # momentum partials of H0 taken by finite differences
            r, _, th = parabolic_rt(eta, orb, normalized=True)
            pr, _ = parabolic_velocities(eta, orb)
            pth = orb.k
            d = 1e-6
            dH_dpr = (h0(r, th, pr + d, pth) - h0(r, th, pr - d, pth)) / (2 * d)
            dH_dpth = (h0(r, th, pr, pth + d) - h0(r, th, pr, pth - d)) / (2 * d)
            wr, wth = perturbation_W2_partials(r, th + theta0, p)
            return dH_dpr * wr + dH_dpth * wth

        # pointwise agreement of the two integrands
        for eta in (-2.0, -0.5, 0.3, 1.7):
            r, _, th = parabolic_rt(eta, orb, normalized=True)
            rdot, thdot = parabolic_velocities(eta, orb)
            wr, wth = perturbation_W2_partials(r, th + theta0, p)
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    @pytest.mark.parametrize("beta", [1.75, 2.5, 4.0])
    def test_scaling_law(self, beta):
        base = i2_closed_form(1.0, beta)
        for p_par in PS:
            assert i2_closed_form(p_par, beta) == pytest.approx(
                p_par ** (1.5 - beta) * base, rel=1e-12)
            assert i2_quadrature(p_par, beta) == pytest.approx(
                p_par ** (1.5 - beta) * base, rel=1e-9, abs=1e-12)

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

    def test_analysis_bundle(self):
        p = Params(beta=2.5, mu=1.1, b=0.01)
        res = melnikov_analysis(ParabolicOrbit(1.0), p)
        assert abs(res.i1) <= 1e-10
        assert res.i2_quadrature == pytest.approx(res.i2_closed_form, rel=1e-8)
        assert res.theta0_zeros == (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
        res3 = melnikov_analysis(ParabolicOrbit(1.0), Params(beta=3, mu=1.1, b=0.01))
        assert res3.theta0_zeros == ()
