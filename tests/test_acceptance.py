"""Acceptance gate: every criterion at its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion.
"""

import math

import numpy as np
import pytest

from conftest import criterion, level_jacobian, zeta1_trig

from anisokepler.cli import EXIT_OK, main
from anisokepler.core import Params, _jacobian
from anisokepler.integrate import IntegratorConfig, integrate
from anisokepler.infinity import (
    SQRT2,
    InfinityState,
    _infinity_arrays,
    i0_flow_closed_form,
    infinity_equilibria,
    infinity_rhs,
    limit_circle,
)
from anisokepler.beta2 import (
    PolarState,
    beta2_energy_residual,
    beta2_mcgehee_rhs,
    classify_heteroclinic,
    HeteroclinicTarget,
    integral_G,
    poisson_bracket_H2_G,
    polar_hamiltonian,
)
from anisokepler.mcgehee import (
    BasinBox,
    McGeheeState,
    Stability,
    basin_fraction,
    delta,
    equilibria,
    linearize_at,
    spiral_threshold,
)
from anisokepler.melnikov import (
    i1_parity_check,
    i2_beta_roots,
    i2_closed_form,
    i2_quadrature,
    m1_direct_quadrature,
)
from anisokepler.torus import (
    SplittingVerdict,
    comparison_section,
    connection_beta,
    splitting_gap,
    splitting_verdict,
    zeta1,
)
from anisokepler.integrate import Event

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def test_criterion_1_eigenvalue_table():
    with criterion(1, "eigenvalue table and 4-2-2 classification pattern", 5.0):
        for beta in (2.5, 3.0, 4.0):
            for b in (0.5, 1.0):
                for mu in (1.01, 1.2, 2.0):
                    p = Params(beta, mu, b, h=-0.25)
                    reports = equilibria(p)
                    kinds = [e.stability for e in reports]
                    assert sum(k is Stability.SADDLE for k in kinds) == 4
                    assert sum(k in (Stability.SOURCE, Stability.SPIRAL_SOURCE)
                               for k in kinds) == 2
                    assert sum(k in (Stability.SINK, Stability.SPIRAL_SINK)
                               for k in kinds) == 2
                    for e in reports:
                        got = np.sort_complex(np.linalg.eigvals(level_jacobian(e.location, p)))
                        want = np.sort_complex(np.array(e.eigenvalues))
                        scale = np.maximum(1.0, np.abs(want))
                        assert np.all(np.abs(got - want) <= 1e-6 * scale), (
                            f"{e.label} at beta={beta}, mu={mu}, b={b}: {got} vs {want}")


def test_criterion_2_spiral_threshold():
    with criterion(2, "spiral onset brackets (beta+2)^2/(8 beta) to 1e-6", 5.0):
        def has_complex_pair(beta, mu, b=0.7):
            # detection threshold 1e-6: near mu = 1 the block has a near-double
            # real root whose numerically computed pair can carry a spurious
            # sqrt(roundoff)-size imaginary part (~1e-8)
            J = linearize_at(McGeheeState(0.0, math.sqrt(2 * b), math.pi / 2, 0.0),
                             Params(beta, mu, b))
            return any(abs(lam.imag) > 1e-6 for lam in np.linalg.eigvals(J))

        for beta in (2.5, 3.0, 4.0):
            lo, hi = 1.0 + 1e-9, 3.0
            assert not has_complex_pair(beta, lo) and has_complex_pair(beta, hi)
            while hi - lo > 1e-6:
                mid = 0.5 * (lo + hi)
                if has_complex_pair(beta, mid):
                    hi = mid
                else:
                    lo = mid
            analytic = spiral_threshold(beta)
            assert lo <= analytic <= hi or abs(0.5 * (lo + hi) - analytic) <= 1e-6
        assert spiral_threshold(3.0) == pytest.approx(25 / 24, abs=1e-15)


def test_criterion_3_connection_shift_constants():
    with criterion(3, "quadrature of the branch-shift integral: 3pi/4 and pi/2", 1.0):
        assert abs(zeta1(3, 0.0) - 0.75 * math.pi) <= 1e-8
        assert abs(zeta1(4, -math.pi / 2) - math.pi / 2) <= 1e-8
        for beta in (3, 4):
            for th in np.linspace(-math.pi, math.pi, 50):
                assert abs(zeta1(beta, float(th)) - zeta1_trig(beta, float(th))) <= 1e-8


def test_criterion_4_splitting():
    with criterion(4, "saddle-connection gap linear in eps, slope 2 zeta1 (5%)", 30.0):
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
        for beta in (3, 4):
            p0 = Params(float(beta), 1.0, 0.5)
            gap0, _, _ = splitting_gap(beta, p0, cfg)
            assert gap0 <= 10 * max(cfg.rel_tol, cfg.abs_tol)
            assert splitting_verdict(gap0, cfg) is SplittingVerdict.CONNECTED
            eps_grid = np.array([1e-3, 2e-3, 4e-3])
            gaps = []
            for eps in eps_grid:
                p = Params(float(beta), 1.0 + float(eps), 0.5)
                gap, _, _ = splitting_gap(beta, p, cfg)
                assert splitting_verdict(gap, cfg) is SplittingVerdict.BROKEN
                gaps.append(gap)
            slope = float(np.dot(eps_grid, gaps) / np.dot(eps_grid, eps_grid))
            predicted = 2.0 * zeta1(beta, comparison_section(beta))
            assert abs(slope - predicted) <= 0.05 * predicted


def test_criterion_5_infinity_manifold():
    with criterion(5, "C+- eigenvalues and I0 heteroclinics: theta-theta0 = -2(psi-psi0), "
                      "vbar = sqrt2 sin((theta+k)/2)", 10.0):
        p = Params(3.0, 1.4, 0.5, h=0.0)
        rep = infinity_equilibria(p)
        assert np.allclose(sorted(rep.c_plus.eigenvalues),
                           sorted([-SQRT2, -SQRT2 / 2, 0.0]), atol=1e-9)
        assert np.allclose(sorted(rep.c_minus.eigenvalues),
                           sorted([SQRT2, SQRT2 / 2, 0.0]), atol=1e-9)
        # the same spectrum from the field: its complex-step Jacobian on the
        # (rho, theta, ubar) block, vbar being the direction off the level
        for circle in (rep.c_plus, rep.c_minus):
            for th in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
                J = _jacobian(_infinity_arrays, [0.0, circle.vbar, float(th), 0.0], p)
                lam = np.sort_complex(np.linalg.eigvals(J[np.ix_([0, 2, 3], [0, 2, 3])]))
                assert np.allclose(lam, sorted(circle.eigenvalues), atol=1e-9)

        rng = np.random.default_rng(42)
        for _ in range(20):
            th0 = float(rng.uniform(0, 2 * math.pi))
            ps0 = float(rng.uniform(0.3, math.pi - 0.3))
            curve = i0_flow_closed_form(th0, ps0)
            s0 = InfinityState(0.0, SQRT2 * math.cos(ps0), th0, SQRT2 * math.sin(ps0))
            fwd = integrate(infinity_rhs(p), s0.as_array(), (0.0, 40.0), TIGHT)
            bwd = integrate(infinity_rhs(p), s0.as_array(), (0.0, -40.0), TIGHT)
            assert limit_circle(fwd.times, fwd.states) == "+"
            assert limit_circle(np.abs(bwd.times), bwd.states) == "-"
            vb, th, ub = fwd.states[:, 1], fwd.states[:, 2], fwd.states[:, 3]
            psi = np.unwrap(np.arctan2(ub / SQRT2, vb / SQRT2))
            # the -2 slope lives in theta(psi); dpsi/dtheta is -1/2
            assert np.max(np.abs(th - curve.theta_of_psi(psi))) <= 1e-8
            assert np.max(np.abs(vb - curve.vbar_of_theta(th))) <= 1e-8


def test_criterion_6_beta2_integrability():
    with criterion(6, "beta=2: |{H2,G}| <= 1e-10 (1000 states); drifts <= 1e-8", 10.0):
        p = Params(2.0, 1.5, 0.5)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            s = PolarState(float(rng.uniform(0.3, 4.0)), float(rng.uniform(0, 2 * math.pi)),
                           float(rng.normal(0, 1)), float(rng.normal(0, 1.5)))
            worst = max(worst, abs(poisson_bracket_H2_G(s, p)))
        assert worst <= 1e-10

        for _ in range(20):
            s = PolarState(float(rng.uniform(1.0, 2.5)), float(rng.uniform(0, 2 * math.pi)),
                           float(rng.uniform(-0.2, 0.2)), float(rng.uniform(1.3, 1.8)))
            h = polar_hamiltonian(s, p)
            lvl = Params(2.0, p.mu, p.b, h=h)
            m0 = McGeheeState(s.r, s.r * s.pr, s.theta, s.ptheta)
            assert abs(beta2_energy_residual(m0, lvl)) < 1e-12

            def h2_of(t, y):
                return polar_hamiltonian(PolarState(y[0], y[2], y[1] / y[0], y[3]), lvl)

            def g_of(t, y):
                return integral_G(PolarState(y[0], y[2], y[1] / y[0], y[3]), lvl)

            traj = integrate(beta2_mcgehee_rhs(lvl), m0.as_array(), (0.0, 10.0), TIGHT,
                             monitors={"H2": h2_of, "G": g_of})
            assert traj.invariant_drift["H2"] <= 1e-8
            assert traj.invariant_drift["G"] <= 1e-8


def test_criterion_7_collision_infinity_heteroclinics():
    with criterion(7, "beta=2 heteroclinic classes reached by backward flow (1e-3)", 30.0):
        p = Params(2.0, 2.0, 0.5, h=0.0)
        vb0 = 1.5
        cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
        hit = Event(lambda t, y: y[0] - 1e-6, "collision", terminal=True)

        cases = [
            # sqrt(1/k) = sqrt(2b) forces Delta = 1: the orbit rides theta = pi/2
            (1.0 / (2 * p.b), math.pi / 2, HeteroclinicTarget.DIAGONAL_FIXED_POINTS),
            (p.mu / (2 * p.b), 0.9, HeteroclinicTarget.AXIS_FIXED_POINTS),
            (3.5, 0.9, HeteroclinicTarget.PERIODIC_ORBIT),
        ]
        for k, th0, target in cases:
            rho0 = k * (vb0 ** 2 - 2)
            cls = classify_heteroclinic(rho0, vb0, p)
            assert cls.target is target
            assert 0.0 < math.sqrt(1 / cls.k) <= math.sqrt(2 * p.b) + 1e-12
            ub2 = max(2 + 2 * p.b * rho0 / delta(th0, p.mu) - vb0 ** 2, 0.0)
            m0 = McGeheeState(1 / rho0, vb0 / math.sqrt(rho0), th0,
                              math.sqrt(ub2) / math.sqrt(rho0))
            assert abs(beta2_energy_residual(m0, p)) < 1e-9
            traj = integrate(beta2_mcgehee_rhs(p), m0.as_array(), (0.0, -200.0), cfg,
                             events=[hit])
            assert traj.event_times("collision")
            assert abs(traj.final_state[1] - cls.v_limit) <= 1e-3

        # case 1: equator family rides vbar = sqrt2 with v ~ sqrt2 sqrt(r) -> 0;
        # r decays only algebraically here, so the backward leg is long
        rho0, th0 = 0.25, 0.9
        cls = classify_heteroclinic(rho0, SQRT2, p)
        assert cls.target is HeteroclinicTarget.EQUATOR_PERIODIC
        ub0 = math.sqrt(2 * p.b * rho0 / delta(th0, p.mu))
        m0 = McGeheeState(1 / rho0, SQRT2 / math.sqrt(rho0), th0, ub0 / math.sqrt(rho0))
        assert abs(beta2_energy_residual(m0, p)) < 1e-9
        traj = integrate(beta2_mcgehee_rhs(p), m0.as_array(), (0.0, -2500.0), cfg, events=[hit])
        assert traj.event_times("collision")
        r_end, v_end = traj.final_state[0], traj.final_state[1]
        assert abs(v_end * math.sqrt(1 / r_end) - SQRT2) <= 1e-3


def test_criterion_8_melnikov_integrals():
    with criterion(8, "I2 quadrature vs Gamma forms (1e-6); roots {2,3}; I1, M1 <= 1e-10",
                   10.0):
        for beta in (1.75, 2.0, 2.5, 3.0, 4.0, 5.0):
            for p_par in (0.5, 1.0, 2.0):
                q = i2_quadrature(p_par, beta)
                c = i2_closed_form(p_par, beta)
                assert abs(q - c) <= 1e-6 * max(1.0, abs(c))
                assert abs(i1_parity_check(p_par, beta)) <= 1e-10
                # theta0 != 0: at theta0 = 0 the M1 integrand is odd and cancels
                # on the mirrored quadrature nodes whatever W2 is
                assert abs(m1_direct_quadrature(p_par, beta, 0.4)) <= 1e-10
        assert abs(i2_closed_form(1.0, 4.0) - math.pi) <= 1e-8
        roots = i2_beta_roots()
        assert len(roots) == 2
        assert abs(roots[0] - 2.0) <= 1e-10 and abs(roots[1] - 3.0) <= 1e-10


def test_criterion_9_collision_basin_fraction():
    with criterion(9, "seeded 10^4-sample basin near the sink: fraction > 0.9", 60.0):
        p = Params(3.0, 1.2, 0.5, h=-0.25)
        box = BasinBox.near_sink(p)
        frac = basin_fraction(p, 10_000, 40.0, box=box, seed=2024)
        frac_again = basin_fraction(p, 10_000, 40.0, box=box, seed=2024)
        assert frac == frac_again
        assert frac > 0.9


def test_criterion_10_melnikov_cli_profile(tmp_path):
    with criterion(10, "CLI melnikov sweep: I2/A sign pattern with zeros only at 2, 3",
                   10.0):
        out = tmp_path / "figure3.csv"
        code = main(["melnikov", "--beta-grid", "1.6:5:0.01", "--p", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        beta, ratio = [], []
        for line in out.read_text(encoding="utf-8").splitlines():
            if line.startswith("#"):
                continue
            parts = line.split(",")
            beta.append(float(parts[0]))
            ratio.append(float(parts[3]))
        beta = np.array(beta)
        ratio = np.array(ratio)
        assert beta[0] == pytest.approx(1.6) and beta[-1] == pytest.approx(5.0)
        # exact zeros may only sit on the roots beta = 2, 3 hit by the grid
        zero_betas = beta[ratio == 0.0]
        assert all(min(abs(zb - 2.0), abs(zb - 3.0)) < 1e-9 for zb in zero_betas)
        signs = np.sign(ratio[ratio != 0.0])
        flips = np.count_nonzero(signs[:-1] * signs[1:] < 0)
        assert flips == 2
        assert np.all(ratio[beta <= 1.99] > 0)
        assert np.all(ratio[(beta >= 2.01) & (beta <= 2.99)] < 0)
        assert np.all(ratio[beta >= 3.01] > 0)


def test_criterion_11_splitting_family():
    with criterion(11, "beta = 2 + 2/j, j = 1..6: connected at mu = 1; gap slope (j+1)pi/2 "
                       "(2e-3)", 10.0):
        eps_grid = np.array([1e-4, 2e-4, 4e-4, 8e-4])
        for j in range(1, 7):
            beta = connection_beta(j)
            gap0, _, _ = splitting_gap(beta, Params(beta, 1.0, 0.5), TIGHT)
            assert splitting_verdict(gap0, TIGHT) is SplittingVerdict.CONNECTED
            gaps = [splitting_gap(beta, Params(beta, 1.0 + float(eps), 0.5), TIGHT)[0]
                    for eps in eps_grid]
            # least squares a eps + c eps^2: the eps^2 term grows like j^3
            (a, _), *_ = np.linalg.lstsq(np.column_stack((eps_grid, eps_grid ** 2)), gaps,
                                         rcond=None)
            predicted = (j + 1) * math.pi / 2
            assert abs(a - predicted) <= 2e-3 * predicted, (j, a / predicted - 1.0)
