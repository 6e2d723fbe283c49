"""CLI surface: subcommands, CSV format, manifests, exit codes, reproducibility."""

import gc
import json
import math
import resource
import shlex
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from anisokepler import cli, mcgehee
from anisokepler.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, build_parser, main
from anisokepler.core import CartesianState, Params, hamiltonian
from anisokepler.integrate import IntegratorConfig, MaxStepsExceeded
from anisokepler.melnikov import i2_closed_form
from anisokepler.torus import comparison_section, zeta1


def read_rows(path):
    meta, cols, rows = {}, [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# columns:"):
            cols = line.split(":", 1)[1].strip().split(",")
        elif line.startswith("#"):
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = val.strip()
        else:
            rows.append(line.split(","))
    return meta, cols, rows


def validation_message(argv, capsys):
    """The message of the one exit-2 record `main(argv)` prints."""
    capsys.readouterr()
    assert main(argv) == EXIT_VALIDATION
    record = json.loads(capsys.readouterr().err)
    assert record["exit_code"] == EXIT_VALIDATION
    return record["message"]


class TestMelnikovCommand:
    def test_sweep_profile(self, tmp_path):
        out = tmp_path / "mel.csv"
        code = main(["melnikov", "--beta-grid", "1.6:5:0.01", "--p", "1", "--out", str(out)])
        assert code == EXIT_OK
        meta, cols, rows = read_rows(out)
        assert cols == ["beta", "i2_quadrature", "i2_closed_form", "i2_over_A"]
        beta = np.array([float(r[0]) for r in rows])
        i2q = np.array([float(r[1]) for r in rows])
        i2c = np.array([float(r[2]) for r in rows])
        ratio = np.array([float(r[3]) for r in rows])
        assert np.max(np.abs(i2q - i2c)) <= 1e-6 * np.maximum(1, np.abs(i2c)).max()
        # sign pattern: positive below 2, negative on (2, 3), positive above 3
        assert np.all(ratio[beta < 1.99] > 0)
        assert np.all(ratio[(beta > 2.01) & (beta < 2.99)] < 0)
        assert np.all(ratio[beta > 3.01] > 0)

    def test_reproducible_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["melnikov", "--beta-grid", "1.8:2.4:0.1", "--p", "0.5"]
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "mel.csv"
        main(["melnikov", "--beta-grid", "1.8:2:0.1", "--out", str(out)])
        manifest = json.loads((tmp_path / "mel.csv.manifest.json").read_text())
        assert manifest["command"] == "melnikov"
        assert "numpy" in manifest["versions"] and "anisokepler" in manifest["versions"]
        assert "invariant_drift" in manifest

    @pytest.mark.parametrize("p_par,grid", [("1", "1.6:5:0.01"), ("0.3", "1.6:5:0.01"),
                                             ("7.5", "1.6:5:0.01"), ("1e-3", "1.6:3:0.05")])
    def test_closed_form_column_is_the_library_value(self, tmp_path, p_par, grid):
        # the column is i2_closed_form at --p, bit for bit (17 digits round-trip)
        out = tmp_path / "mel.csv"
        assert main(["melnikov", "--beta-grid", grid, "--p", p_par, "--out", str(out)]) \
            == EXIT_OK
        _, cols, rows = read_rows(out)
        for row in rows:
            beta = float(row[cols.index("beta")])
            assert float(row[cols.index("i2_closed_form")]) == i2_closed_form(float(p_par), beta)

    def test_grid_validation(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["melnikov", "--beta-grid", "1.2:5:0.1", "--out", str(out)]) \
            == EXIT_VALIDATION
        assert main(["melnikov", "--beta-grid", "oops", "--out", str(out)]) == EXIT_VALIDATION
        capsys.readouterr()
        for grid in ("1.6:inf:0.1", "nan:5:0.1"):
            assert main(["melnikov", "--beta-grid", grid, "--out", str(out)]) \
                == EXIT_VALIDATION
            record = json.loads(capsys.readouterr().err)
            assert record["message"] == ("grid start, stop and step must be finite, "
                                         f"got {grid!r}")
        assert validation_message(["melnikov", "--beta-grid", "3:2:0.1", "--out", str(out)],
                                  capsys) == "grid requires step > 0 and stop >= start"
        assert not out.exists()

    def test_grid_point_count_is_bounded(self, tmp_path, capsys):
        # counted as a float before any array exists: an infinite count, one
        # beyond the array size limit and one beyond any memory all fail alike
        out = tmp_path / "x.csv"
        for grid, count in (("1.6:1e300:1e-300", "inf"), ("1.6:5:1e-300", "3.4e+300"),
                            ("1.6:1e10:1e-5", "1e+15"), ("1:1000001:1", "1000001")):
            assert main(["melnikov", "--beta-grid", grid, "--out", str(out)]) \
                == EXIT_VALIDATION
            record = json.loads(capsys.readouterr().err)
            assert record["message"] == (f"grid {grid!r} has {count} points, "
                                         f"more than {cli.MAX_GRID_POINTS}")
        assert not out.exists()

    def test_orbit_parameter_validation(self, tmp_path):
        out = tmp_path / "x.csv"
        for p in ("nan", "0", "-1", "inf"):
            assert main(["melnikov", "--beta-grid", "1.8:2:0.1", "--p", p, "--out", str(out)]) \
                == EXIT_VALIDATION
        assert not out.exists()

    def test_ratio_column_does_not_depend_on_p(self, tmp_path):
        # at p = 1e-4 the closed form is still evaluated at p = 1, so beta = 3
        # passes; I2/A is the same bytes for every p
        ratios = []
        for p in ("1e-4", "1", "1e4"):
            out = tmp_path / f"m{p}.csv"
            assert main(["melnikov", "--p", p, "--out", str(out)]) == EXIT_OK
            _, _, rows = read_rows(out)
            assert all(math.isfinite(float(x)) for r in rows for x in r)
            ratios.append([r[3] for r in rows])
        assert ratios[0] == ratios[1] == ratios[2]

    def test_scale_outside_float_range_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["melnikov", "--p", "1e-300", "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["exit_code"] == EXIT_NUMERICAL
        assert "p = 1e-300, beta = " in record["message"]
        assert "leaves the float range" in record["message"]

    def test_scale_below_normal_floats_is_numerical_failure(self, tmp_path, capsys):
        # the default grid reaches beta = 3.04, where 1e200^(3/2 - beta) is 1e-308
        out = tmp_path / "x.csv"
        assert main(["melnikov", "--p", "1e200", "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["exit_code"] == EXIT_NUMERICAL
        assert ("p = 1e+200, beta = 3.04 leaves the float range (magnitude below 2.2e-308)"
                in record["message"])

    def test_gamma_forms_once_per_beta(self, tmp_path, monkeypatch):
        calls = []
        closed_form = cli.i2_closed_form

        def counted(p_param, beta):
            calls.append(p_param)
            return closed_form(p_param, beta)

        monkeypatch.setattr(cli, "i2_closed_form", counted)
        out = tmp_path / "mel.csv"
        code = main(["melnikov", "--beta-grid", "1.8:2.4:0.1", "--p", "0.5", "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_rows(out)
        assert len(rows) == 7
        # at p = 1 only: the value at --p is that one scaled
        assert calls == [1.0] * len(rows)

    def test_grid_past_the_gamma_overflow(self, tmp_path):
        # Gamma(beta + 1/2) overflows from beta ~ 171 on; the closed form takes
        # the ratio of the Gammas from their logarithms
        out = tmp_path / "x.csv"
        assert main(["melnikov", "--beta-grid", "150:780:10", "--out", str(out)]) == EXIT_OK
        _, _, rows = read_rows(out)
        assert len(rows) == 64 and float(rows[-1][0]) == 780.0
        for _, quadrature, closed, _ in rows:
            assert abs(float(quadrature) - float(closed)) <= 1e-6 * abs(float(closed))

    def test_grid_past_the_quadrature_bound_is_one_record(self, tmp_path, capsys):
        # from beta ~ 787.9 on the quadrature's integrand overflows: the run
        # fails with one record on stderr, naming the failing beta, and no
        # numpy warning
        for grid, failing in (("787:788:1", 788.0), ("900:900:1", 900.0)):
            out = tmp_path / "x.csv"
            assert main(["melnikov", "--beta-grid", grid, "--out", str(out)]) == EXIT_NUMERICAL
            assert not out.exists()
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1
            record = json.loads(err)
            assert record["exit_code"] == EXIT_NUMERICAL
            assert f"the quadrature of I2 fails at beta = {failing}:" in record["message"]

    def test_grid_past_the_power_of_two_overflow_names_it(self, tmp_path, capsys):
        # from beta = 1025 on, 2^(beta-1) itself exceeds the floats: the record
        # says so, names beta and carries no errno tuple of the OverflowError
        out = tmp_path / "x.csv"
        assert main(["melnikov", "--beta-grid", "1030:1030:1", "--out", str(out)]) \
            == EXIT_NUMERICAL
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["exit_code"] == EXIT_NUMERICAL
        assert record["message"] == ("the quadrature of I2 fails at beta = 1030.0: "
                                     "2^(beta-1) overflows the floats")


class TestEquilibriaCommand:
    def test_eight_rows_with_spiral_flag(self, tmp_path):
        out = tmp_path / "eq.csv"
        code = main(["equilibria", "--beta", "3", "--mu", "1.05", "--b", "0.5",
                     "--out", str(out)])
        assert code == EXIT_OK
        meta, cols, rows = read_rows(out)
        assert len(rows) == 8
        by_label = {r[0]: r for r in rows}
        assert by_label["A+_pi/2"][cols.index("spiraling")] == "1"  # 1.05 > 25/24
        kinds = [r[cols.index("stability")] for r in rows]
        assert kinds.count("saddle") == 4

    def test_validation_beta(self, tmp_path):
        assert main(["equilibria", "--beta", "2", "--mu", "1.2", "--b", "0.5",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_VALIDATION

    def test_overflowed_spectrum_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        for flags in (["--mu", "1e300"], ["--mu", "1", "--b", "1e308"]):
            assert main(["equilibria", *flags, "--out", str(out)]) == EXIT_NUMERICAL
            assert not out.exists()
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["exit_code"] == EXIT_NUMERICAL

    def test_tiny_coupling_keeps_the_closed_form_spectrum(self, tmp_path):
        # linearize_at is the paper's closed form; a complex step of 2^-100 would
        # underflow against b = 1e-300, which this spectrum still resolves
        out = tmp_path / "eq.csv"
        assert main(["equilibria", "--b", "1e-300", "--out", str(out)]) == EXIT_OK
        _, cols, rows = read_rows(out)
        assert len(rows) == 8
        assert all(math.isfinite(float(x)) for r in rows for x in r[1:cols.index("stability")])

    def test_no_integrator_options(self, tmp_path):
        # equilibria integrates nothing, so it takes no --rtol, --atol or --max-steps
        out = tmp_path / "x.csv"
        for flags in (["--rtol", "1e-3"], ["--atol", "1e-3"], ["--max-steps", "5"]):
            assert main(["equilibria", *flags, "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()


class TestSimulateCommand:
    def test_initial_needs_four_values(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert validation_message(["simulate", "--initial", "1,0,0", "--out", str(out)],
                                  capsys) == "--initial needs 4 comma-separated values, got 3"
        assert validation_message(["simulate", "--initial", "1,0,x,1", "--out", str(out)],
                                  capsys) == "--initial values must be numbers, got '1,0,x,1'"
        assert not out.exists()

    def test_value_starting_with_a_minus_sign(self, tmp_path, capsys):
        # "-1,0,0,1" is the value of --initial, not a flag: the mirror image of
        # the default orbit starts at x = -1 and, like it, falls into the origin
        out = tmp_path / "m.csv"
        argv = ["simulate", "--coords", "cartesian", "--initial", "-1,0,0,1", "--out", str(out)]
        assert main(argv + ["--t-final", "0.5"]) == EXIT_OK
        _, _, rows = read_rows(out)
        assert [float(x) for x in rows[0][:5]] == [0.0, -1.0, 0.0, 0.0, 1.0]
        out.unlink()
        capsys.readouterr()
        assert main(argv) == EXIT_NUMERICAL
        assert not out.exists()
        assert "collision at the origin" in json.loads(capsys.readouterr().err)["message"]

    def test_mcgehee_rows_carry_residual(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--coords", "mcgehee", "--beta", "3", "--mu", "1.2",
                     "--b", "0.5", "--initial", "1,0,0.5,0.8",
                     "--t-final", "5", "--out", str(out)])
        assert code == EXIT_OK
        meta, cols, rows = read_rows(out)
        assert cols[-1] == "energy_residual_drift"
        drifts = [abs(float(r[-1])) for r in rows]
        assert max(drifts) < 1e-8

    def test_inconsistent_h_rejected(self, tmp_path):
        code = main(["simulate", "--coords", "mcgehee", "--beta", "3", "--mu", "1.2",
                     "--b", "0.5", "--h", "-0.25", "--initial", "1,0,0.5,0.8",
                     "--t-final", "5", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_VALIDATION
        # a non-finite --h cannot agree with any level
        code = main(["simulate", "--coords", "mcgehee", "--h", "nan", "--initial", "1,0,0.5,0.8",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_VALIDATION
        # a non-finite end time is rejected instead of integrating forever
        for t_final in ("nan", "inf"):
            for coords in ("mcgehee", "cartesian"):
                code = main(["simulate", "--coords", coords, "--t-final", t_final,
                             "--out", str(tmp_path / "x.csv")])
                assert code == EXIT_VALIDATION
        assert not (tmp_path / "x.csv").exists()

    def test_mcgehee_chart_takes_beta_two(self, tmp_path):
        out = tmp_path / "b2.csv"
        code = main(["simulate", "--coords", "mcgehee", "--beta", "2", "--initial", "1,0,0.3,1",
                     "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_rows(out)
        assert len(rows) > 5
        assert max(abs(float(r[-1])) for r in rows) < 1e-8
        code = main(["simulate", "--coords", "mcgehee", "--beta", "1.5",
                     "--initial", "1,0,0.3,1", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "x.csv").exists()

    def test_tolerance_validation(self, tmp_path):
        out = tmp_path / "x.csv"
        for rtol in ("0", "1e-16", "-1e-8"):
            assert main(["simulate", "--rtol", rtol, "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    def test_cartesian(self, tmp_path):
        out = tmp_path / "simc.csv"
        code = main(["simulate", "--coords", "cartesian", "--beta", "2", "--mu", "1",
                     "--b", "0.5", "--initial", "1,0,0,1.2", "--t-final", "3",
                     "--out", str(out)])
        assert code == EXIT_OK
        _, cols, rows = read_rows(out)
        assert cols[0] == "t" and len(rows) > 5

    def test_cartesian_far_start_is_free_flight(self, tmp_path):
        # the cube of |(x, y)| = 1e200 overflows the floats; the pull is 0
        out = tmp_path / "far.csv"
        code = main(["simulate", "--coords", "cartesian", "--initial", "1e200,0,0,1",
                     "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_rows(out)
        assert len(rows) > 1 and float(rows[-1][0]) == 10.0
        assert all(math.isfinite(float(x)) for row in rows for x in row)
        assert all(float(r[2]) == pytest.approx(float(r[0])) for r in rows)  # y = t

    def test_cartesian_collision_names_the_chart(self, tmp_path, capsys):
        # the default orbit falls into the origin, which only McGehee's chart passes
        out = tmp_path / "d.csv"
        code = main(["simulate", "--coords", "cartesian", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        message = json.loads(capsys.readouterr().err)["message"]
        assert "collision at the origin" in message and "--coords mcgehee" in message

    def test_overflowing_start_names_the_state(self, tmp_path, capsys):
        # the weighted norm of the initial momentum 1e200 overflows; the start-up
        # step size refuses it instead of dividing by a zero step, and the
        # record does not report a collision
        out = tmp_path / "o.csv"
        code = main(["simulate", "--coords", "cartesian", "--initial", "0,1,1e200,0",
                     "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        message = json.loads(err)["message"]
        assert message == ("the weighted norm of the field at t = 0.0, "
                           "y = [0.0, 1.0, 1e+200, 0.0] overflows the floats")

    def test_rejected_trial_stage_prints_no_warning(self, tmp_path):
        # at beta = 2.5 a trial stage lands past r = 0, where r^(beta-1) is NaN
        # on numpy scalars, and at mu = 1e200 a power overflows; the stepper
        # rejects such a stage, and no numpy RuntimeWarning (ComplexWarning
        # included) reaches the output of the successful run
        out = tmp_path / "r.csv"
        for flags in (["--beta", "2.5", "--t-final", "400"], ["--mu", "1e200", "--t-final", "5"]):
            code = main(["simulate", "--coords", "mcgehee", *flags,
                         "--initial", "0.5,-0.8,1.4,0.1", "--out", str(out)])
            assert code == EXIT_OK, flags
            assert read_rows(out)[2]

    @pytest.mark.parametrize("flags", [["--t-final", "200"],
                                       ["--beta", "4", "--mu", "3", "--initial", "0.2,-1,1.0,0.3",
                                        "--t-final", "100"]])
    def test_step_past_the_collision_manifold_is_numerical_failure(self, tmp_path, capsys,
                                                                   flags):
        # near the sink on r = 0 the step grows to where the stepper's stability
        # function is negative, and r of about 1e-36 flips sign; at integer beta
        # r^(beta-1) stays real, so no stage is rejected (at beta = 2.5 one is,
        # and the run exits 0: test_rejected_trial_stage_prints_no_warning)
        out = tmp_path / "x.csv"
        code = main(["simulate", "--initial", "0.5,-0.8,1.4,0.1", *flags, "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["message"].startswith("the orbit stepped past the collision manifold "
                                            "to r = -")
        assert " at tau = " in record["message"]

    def test_numerical_failure_exit_code(self, tmp_path):
        # collision orbit with beta = 2 in Cartesian coordinates stalls the stepper
        out = tmp_path / "crash.csv"
        code = main(["simulate", "--coords", "cartesian", "--beta", "2", "--mu", "1",
                     "--b", "0.5", "--initial", "1,0,-1,0", "--t-final", "5",
                     "--out", str(out)])
        assert code == EXIT_NUMERICAL

    def test_max_steps_failure(self, tmp_path):
        code = main(["simulate", "--coords", "mcgehee", "--beta", "3", "--mu", "1.2",
                     "--b", "0.5", "--initial", "1,0,0.5,0.8", "--t-final", "50",
                     "--max-steps", "5", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_NUMERICAL

    def test_cartesian_level_is_the_initial_energy(self, tmp_path, capsys):
        # the Cartesian field carries no h: the run's level is H at the start,
        # and --h is checked against it as in the McGehee chart
        out = tmp_path / "c.csv"
        argv = ["simulate", "--coords", "cartesian", "--b", "0.02", "--initial", "1,0,0,1.1",
                "--t-final", "2", "--out", str(out)]
        assert main(argv) == EXIT_OK
        h0 = hamiltonian(CartesianState(1.0, 0.0, 0.0, 1.1), Params(3.0, 1.2, 0.02))
        assert read_rows(out)[0]["h"] == repr(h0) == "-0.41021451548625454"
        out.unlink()
        for h in ("5", "nan"):
            assert validation_message(argv + ["--h", h], capsys) == (
                f"--h {float(h)} is inconsistent with the initial state "
                "(its energy level is h = -0.41021451548625454)")
            assert not out.exists()
        assert main(argv + ["--h", repr(h0)]) == EXIT_OK

    def test_start_at_r_zero_must_lie_on_the_collision_manifold(self, tmp_path, capsys):
        # every level meets C at r = 0, so --h selects one there; a state off C
        # lies on none, and its energy relation would drift
        out = tmp_path / "c.csv"
        assert validation_message(["simulate", "--initial", "0,0,0,0", "--out", str(out)],
                                  capsys) == (
            "the initial state at r = 0 is off the collision manifold, so on no energy "
            "level: u^2 + v^2 - 2b/Delta^(beta/2) = -0.7607257743127308")
        assert not out.exists()
        # on C, u^2 + v^2 = 2b/Delta^(beta/2), typed to 17 digits
        p = Params(3.0, 1.2, 0.5)
        theta, v = 0.3, 0.2
        u = math.sqrt(2.0 * p.b / mcgehee.delta(theta, p.mu, math) ** (p.beta / 2.0) - v * v)
        argv = ["simulate", "--initial", f"0,{v!r},{theta!r},{u:.17g}", "--t-final", "1",
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert read_rows(out)[0]["h"] == "0.0"
        assert main(argv + ["--h", "-0.25"]) == EXIT_OK
        meta, _, rows = read_rows(out)
        assert meta["h"] == "-0.25"
        assert max(abs(float(r[-1])) for r in rows) < 1e-8  # off C it reaches 1.2e-5

    def test_level_beyond_the_float_range_is_numerical_failure(self, tmp_path, capsys):
        # r^beta overflows, so no float h puts the start on an energy level
        out = tmp_path / "x.csv"
        code = main(["simulate", "--coords", "mcgehee", "--initial", "1e200,-1,0,0",
                     "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["message"] == ("the energy level through r = 1e+200 is out of the "
                                     "float range: r^beta overflows at beta = 3.0")

    def test_residual_beyond_the_float_range_is_numerical_failure(self, tmp_path, capsys):
        # v^2 overflows while r^beta does not: h = inf is no float level either
        out = tmp_path / "x.csv"
        code = main(["simulate", "--coords", "mcgehee", "--initial", "1,1e200,0,0",
                     "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["message"] == ("the energy level through r = 1.0 is out of the float "
                                     "range: the energy residual overflows to h = inf")


class TestCollisionFlowCommand:
    def test_field_and_branch_rows(self, tmp_path):
        out = tmp_path / "cf.csv"
        code = main(["collision-flow", "--beta", "3", "--mu", "1", "--b", "0.5",
                     "--grid", "8", "--out", str(out)])
        assert code == EXIT_OK
        _, cols, rows = read_rows(out)
        kinds = {r[0] for r in rows}
        assert kinds == {"field", "branch-unstable"}
        # at mu = 1 the traced branch is the connection line -2 psi + theta = -pi
        branch = [(float(r[1]), float(r[2])) for r in rows if r[0] == "branch-unstable"]
        worst = max(abs(-2 * ps + th + math.pi) for th, ps in branch)
        assert worst < 1e-6

    def test_branch_of_every_family_member(self, tmp_path):
        # beta = 2.5 is j = 4 of the family beta = 2 + 2/j: its section is theta = pi
        out = tmp_path / "cf.csv"
        assert main(["collision-flow", "--beta", "2.5", "--mu", "1", "--grid", "2",
                     "--out", str(out)]) == EXIT_OK
        _, _, rows = read_rows(out)
        branch = [r for r in rows if r[0] == "branch-unstable"]
        assert branch and abs(float(branch[-1][1]) - math.pi) < 1e-9

    def test_field_rows_keep_the_anisotropic_term_at_mu_1e300(self, tmp_path):
        # Delta^((beta+4)/4) overflows here, and (mu - 1) b with b = 1e300 is
        # beyond the floats: the amplitude g is factored out of the field, so
        # every cell is finite, and dpsi/dtheta at (-pi/3, 2 pi/3) is the exact
        # 2.5 (the dropped anisotropic term gave 0.75)
        out = tmp_path / "cf.csv"
        for b in ("0.5", "1e300"):
            assert main(["collision-flow", "--beta", "3.5", "--mu", "1e300", "--b", b,
                         "--grid", "3", "--out", str(out)]) == EXIT_OK
            _, _, rows = read_rows(out)
            assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:])
            (row,) = [r for r in rows
                      if abs(float(r[1]) + math.pi / 3) < 1e-12
                      and abs(float(r[2]) - 2 * math.pi / 3) < 1e-12]
            assert float(row[4]) / float(row[3]) == pytest.approx(2.5, rel=1e-14)

    def test_seed_beyond_the_float_range_prints_one_record(self, tmp_path, capsys):
        # at mu = 1e300 the layer at theta = pi/2 (mod pi) is far narrower than
        # the spacing of the doubles: the trace refuses to cross it, the run
        # exits 3, and the record is all of stderr
        out = tmp_path / "x.csv"
        for beta in ("3", "2.5"):
            code = main(["collision-flow", "--beta", beta, "--mu", "1e300", "--grid", "2",
                         "--out", str(out)])
            assert code == EXIT_NUMERICAL
            record = json.loads(capsys.readouterr().err)
            assert "narrower than the spacing of the doubles" in record["message"]
        assert not out.exists()

    def test_grid_validation(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        for grid in ("0", "-2"):
            assert main(["collision-flow", "--grid", grid, "--out", str(out)]) \
                == EXIT_VALIDATION
        # grid^2 rows are held in memory: refused before any cell is built
        assert validation_message(["collision-flow", "--grid", "1001", "--out", str(out)],
                                  capsys) == ("--grid 1001 makes 1002001 cells, "
                                              f"more than {cli.MAX_GRID_POINTS}")
        assert not out.exists()

    def test_stalled_trace_names_the_branch(self, tmp_path, capsys):
        # at mu = 1e20 the stepper stalls in the layer at theta = -pi/2
        out = tmp_path / "x.csv"
        for argv in (["collision-flow", "--beta", "3", "--mu", "1e20", "--grid", "2"],
                     ["splitting", "--beta", "3", "--eps-list", "1e19"]):
            assert main(argv + ["--out", str(out)]) == EXIT_NUMERICAL
            assert not out.exists()
            record = json.loads(capsys.readouterr().err)
            assert record["message"].startswith("branch from (-pi, 0) stalls between theta = ")
            assert "before the section theta = 0.0: Required step size" in record["message"]

    def test_no_branch_off_the_connection_family(self, tmp_path):
        # beta = 3.5 is not 2 + 2/j: the field rows alone, and no branch rows
        out = tmp_path / "cf.csv"
        assert main(["collision-flow", "--beta", "3.5", "--grid", "3",
                     "--out", str(out)]) == EXIT_OK
        _, _, rows = read_rows(out)
        assert len(rows) == 9 and {r[0] for r in rows} == {"field"}


class TestInfinityFlowCommand:
    def test_beta_two_is_bad_input(self, tmp_path, capsys):
        out = tmp_path / "inf.csv"
        assert validation_message(["infinity-flow", "--beta", "2", "--out", str(out)], capsys) \
            == "this command covers beta > 2 (see beta2-verify)"
        assert not out.exists()

    def test_orbit_rows_self_certify(self, tmp_path):
        out = tmp_path / "inf.csv"
        code = main(["infinity-flow", "--beta", "3", "--mu", "1.4", "--b", "0.5",
                     "--orbits", "3", "--out", str(out)])
        assert code == EXIT_OK
        _, cols, rows = read_rows(out)
        i_line = cols.index("line_residual")
        i_vb = cols.index("vbar_closed_form_residual")
        assert max(abs(float(r[i_line])) for r in rows) < 1e-7
        assert max(abs(float(r[i_vb])) for r in rows) < 1e-7

    def test_psi_is_unwrapped_across_pi(self, tmp_path):
        # backward in s every orbit runs to psi = pi, and atan2 jumps to -pi
        # where psi passes it by roundoff: the column stays continuous
        out = tmp_path / "inf.csv"
        assert main(["infinity-flow", "--s-final", "-200", "--out", str(out)]) == EXIT_OK
        _, cols, rows = read_rows(out)
        for i in range(5):
            orbit = [r for r in rows if r[0] == str(i)]
            psi = np.array([float(r[cols.index("psi")]) for r in orbit])
            assert np.max(np.abs(np.diff(psi))) < 1.0
            assert psi[-1] == pytest.approx(math.pi, abs=1e-12)
        assert max(float(r[cols.index("psi")]) for r in rows) > math.pi
        assert max(abs(float(r[cols.index("line_residual")])) for r in rows) <= 1e-8

    def test_nan_field_names_the_nan(self, tmp_path, capsys):
        # (mu - 1) b overflows, so ubar' is NaN at the start and so is the
        # first step size: the record says so, with the time and the state
        out = tmp_path / "h.csv"
        code = main(["infinity-flow", "--b", "1e300", "--mu", "1e300", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        message = json.loads(capsys.readouterr().err)["message"]
        assert message.startswith("step size is NaN at t = 0.0, y = [0.0, ")
        assert message.endswith("the field or the state is not finite there")

    def test_takes_no_energy_option(self, tmp_path, capsys):
        # the inverted chart covers h = 0 only, so there is no --h; it is not
        # taken as an abbreviation of --help either
        out = tmp_path / "x.csv"
        for h in ("0", "-0.1"):
            assert main(["infinity-flow", "--h", h, "--out", str(out)]) == EXIT_VALIDATION
            assert "--h" in json.loads(capsys.readouterr().err)["message"]
        assert main(["splitting", "--eps", "0", "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    def test_h_validation(self, tmp_path):
        assert main(["infinity-flow", "--beta", "3", "--mu", "1.4", "--b", "0.5",
                     "--h", "-0.1", "--out", str(tmp_path / "x.csv")]) == EXIT_VALIDATION
        for orbits in ("0", "-3"):
            assert main(["infinity-flow", "--orbits", orbits,
                         "--out", str(tmp_path / "x.csv")]) == EXIT_VALIDATION
        assert not (tmp_path / "x.csv").exists()


class TestSplittingCommand:
    def test_rows(self, tmp_path):
        out = tmp_path / "sp.csv"
        for beta in (4.0, 3.0, 2.5, 2.03125):  # j = 1, 2, 4 and 64 of beta = 2 + 2/j
            code = main(["splitting", "--beta", repr(beta), "--b", "0.5",
                         "--eps-list", "0,1e-3", "--out", str(out)])
            assert code == EXIT_OK
            meta, cols, rows = read_rows(out)
            assert rows[0][cols.index("verdict")] == "connected-within-tolerance"
            assert rows[1][cols.index("verdict")] == "broken"
            # the first-order gap 2 zeta1 eps, with zeta1 from torus.zeta1 at the section
            two_zeta1 = 2 * zeta1(beta, comparison_section(beta))
            assert meta["two_zeta1"] == repr(two_zeta1)
            assert float(rows[1][cols.index("predicted_gap")]) == two_zeta1 * 1e-3

    def test_beta_outside_the_torus_gate(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["splitting", "--beta", "5", "--out", str(out)]) == EXIT_VALIDATION
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["message"] == ("saddle connections exist at beta = 2 + 2/j for a "
                                     "positive integer j only, got 5.0")
        assert not out.exists()

    def test_eps_list_validation(self, tmp_path, capsys):
        # epsilon = mu - 1 is the anisotropy of each row: the option is named,
        # not the mu it would make
        out = tmp_path / "x.csv"
        for eps_list in ("0,-1e-3", "inf", "1e-3,nan", "-1e-3", "-.5"):
            assert validation_message(["splitting", "--eps-list", eps_list, "--out", str(out)],
                                      capsys) == ("--eps-list values must be finite and "
                                                  f"non-negative, got {eps_list!r}")
        assert validation_message(["splitting", "--eps-list", "1e-3,abc", "--out", str(out)],
                                  capsys) == "--eps-list values must be numbers, got '1e-3,abc'"
        assert validation_message(["splitting", "--eps-list", ",", "--out", str(out)], capsys) \
            == "--eps-list needs one or more comma-separated values, got 0"
        assert not out.exists()


    def test_connection_beyond_the_bound_exits_at_once(self, tmp_path):
        # beta = 2.000000000000001 is the member j = 2251799813685248 of the
        # family, whose trace would build j/2 layer lines; the address space of
        # the child is capped so that a trace that starts fails instead of
        # filling the memory
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))

        out = tmp_path / "x.csv"
        for argv in (["splitting", "--beta", "2.000000000000001"],
                     ["collision-flow", "--beta", "2.000000000000001", "--mu", "1",
                      "--grid", "2"]):
            proc = subprocess.run([sys.executable, "-m", "anisokepler.cli", *argv,
                                   "--out", str(out)], capture_output=True, text=True,
                                  timeout=20, preexec_fn=cap_memory)
            assert proc.returncode == EXIT_VALIDATION, proc.stderr
            (line,) = proc.stderr.splitlines()
            assert json.loads(line)["message"] == (
                "beta = 2.000000000000001 is the connection exponent of j = "
                "2251799813685248, above the traced bound j <= 4096")
            assert not out.exists()


class TestBeta2VerifyCommand:
    def test_all_checks_pass(self, tmp_path):
        out = tmp_path / "b2.csv"
        code = main(["beta2-verify", "--n-states", "200", "--n-orbits", "3",
                     "--out", str(out)])
        assert code == EXIT_OK
        _, cols, rows = read_rows(out)
        assert all(r[cols.index("status")] == "pass" for r in rows)

    def test_count_validation(self, tmp_path):
        # a check that ran on nothing must not be reported as a pass
        out = tmp_path / "x.csv"
        for counts in (["--n-states", "0", "--n-orbits", "-1"], ["--n-orbits", "0"],
                       ["--n-states", "-5"]):
            assert main(["beta2-verify", *counts, "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    def test_takes_no_energy_option(self, tmp_path, capsys):
        # no check reads an h: the regularized one runs on the level through
        # its start, so neither the CSV nor the manifest names one
        out = tmp_path / "b2.csv"
        assert validation_message(["beta2-verify", "--h", "-0.25", "--out", str(out)],
                                  capsys) == "unrecognized arguments: --h -0.25"
        assert not out.exists()
        assert main(["beta2-verify", "--n-states", "20", "--n-orbits", "1",
                     "--out", str(out)]) == EXIT_OK
        assert "h" not in read_rows(out)[0]
        manifest = json.loads((tmp_path / "b2.csv.manifest.json").read_text(encoding="utf-8"))
        assert "h" not in manifest["config"]

    def test_max_steps_applies(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["beta2-verify", "--max-steps", "5", "--n-orbits", "2", "--n-states", "10",
                     "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()

    def test_strong_coupling_orbits_stay_off_the_collision(self, tmp_path):
        # ptheta scales with sqrt(2 b), so G > 0 on every start: at b = 1, seed 3
        # an unscaled orbit 10 (G < 0) fell into r = 0 and stalled
        out = tmp_path / "b2.csv"
        assert main(["beta2-verify", "--b", "1", "--seed", "3", "--out", str(out)]) == EXIT_OK
        _, cols, rows = read_rows(out)
        assert [r[cols.index("status")] for r in rows] == ["pass"] * 5

    START_1E300 = ("PolarState(r=1.4875171364017228, theta=5.347204965784701, "
                   "pr=0.13689657797998223, ptheta=2.428763090041499e+150)")
    Y_1E300 = ("[1.4875171364017228, 5.347204965784701, 0.13689657797998223, "
               "2.428763090041499e+150]")

    def failure_message(self, argv, tmp_path, capsys):
        """The message of the one exit-3 record `beta2-verify argv` prints."""
        out = tmp_path / "x.csv"
        capsys.readouterr()
        assert main(["beta2-verify", *argv, "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "numerical" and record["exit_code"] == EXIT_NUMERICAL
        return record["message"]

    def test_stalled_orbit_is_named(self, tmp_path, capsys):
        # at mu = b = 1e300 the first step of polar orbit 0 is NaN; the record
        # names the check, the orbit, its start and its span, and keeps the
        # stepper's text
        assert self.failure_message(["--mu", "1e300", "--b", "1e300", "--n-orbits", "2"],
                                    tmp_path, capsys) == (
            f"the H2/G drift check: polar orbit 0 from {self.START_1E300} fails on t in "
            f"[0, 10.0] (step size is NaN at t = 0.0, y = {self.Y_1E300}: the field or the "
            "state is not finite there)")

    @pytest.mark.parametrize("argv,start,cause", [
        (["--b", "1e300"], START_1E300,
         f"the weighted norm of the field at t = 0.0, y = {Y_1E300} overflows the floats"),
        (["--max-steps", "5"],
         "PolarState(r=1.4875171364017228, theta=5.347204965784701, pr=0.13689657797998223, "
         "ptheta=1.7173948508639372)", "exceeded 5 steps at t=1.295703079673987"),
    ], ids=["overflow", "max-steps"])
    def test_every_failed_orbit_is_named(self, tmp_path, capsys, argv, start, cause):
        # not only a stall: every stepper failure gets the same record
        assert self.failure_message(argv, tmp_path, capsys) == (
            f"the H2/G drift check: polar orbit 0 from {start} fails on t in [0, 10.0] "
            f"({cause})")

    def test_overflowing_bracket_is_named(self, tmp_path, capsys):
        # at b = 1e308 the complex-step Jacobian of state 5 overflows: no numpy
        # warning, and the record names the Poisson-bracket check and the state
        assert self.failure_message(["--b", "1e308"], tmp_path, capsys) == (
            "the Poisson-bracket check: state 5, PolarState(r=0.404782783238213, "
            "theta=0.7808948568301981, pr=-0.6651946734866135, ptheta=0.5272651051395296), "
            "fails (complex-step derivative at [0.7808948568301981, 0.5272651051395296] "
            "not finite)")

    def test_failed_orbit_keeps_the_error_class(self, tmp_path):
        ns = cli._parse(["beta2-verify", "--max-steps", "5", "--n-states", "10",
                         "--out", str(tmp_path / "x.csv")])
        with pytest.raises(MaxStepsExceeded, match="^the H2/G drift check: polar orbit 0 "):
            cli._run_beta2_verify(ns)

    def test_regularized_orbit_into_the_collision_reports(self, tmp_path):
        # the regularized start has g < 0, so its orbit links to the collision:
        # at b = 5 it reaches r = 0 by tau = 300, and g, which reads only theta
        # and u, is defined there: all five checks report, warning-free
        out = tmp_path / "b2.csv"
        assert main(["beta2-verify", "--b", "5", "--tau", "300", "--n-states", "1",
                     "--n-orbits", "1", "--out", str(out)]) == EXIT_OK
        _, cols, rows = read_rows(out)
        assert [r[cols.index("status")] for r in rows] == ["pass"] * 5

    def test_failed_regularized_orbit_is_named(self, tmp_path, capsys):
        # the step limit falls inside the regularized orbit: the record names the
        # check, its start and its span, and the stepper's error class stays
        argv = ["--b", "50", "--tau", "500", "--max-steps", "5000", "--n-states", "1",
                "--n-orbits", "1"]
        assert self.failure_message(argv, tmp_path, capsys) == (
            "the regularized check: orbit from McGeheeState(r=1.2, v=0.1, theta=0.9, u=0.7) "
            "fails on tau in [0, 500.0] (exceeded 5000 steps at t=171.1434691698875)")
        ns = cli._parse(["beta2-verify", *argv, "--out", str(tmp_path / "x.csv")])
        with pytest.raises(MaxStepsExceeded, match="^the regularized check: "):
            cli._run_beta2_verify(ns)


class TestBasinCommand:
    def test_fraction_row(self, tmp_path):
        out = tmp_path / "basin.csv"
        code = main(["basin", "--beta", "3", "--mu", "1.2", "--b", "0.5", "--h", "-0.25",
                     "--n", "300", "--horizon", "30", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        _, cols, rows = read_rows(out)
        frac = float(rows[0][cols.index("collision_fraction")])
        assert 0.0 <= frac <= 1.0
        out2 = tmp_path / "basin2.csv"
        main(["basin", "--beta", "3", "--mu", "1.2", "--b", "0.5", "--h", "-0.25",
              "--n", "300", "--horizon", "30", "--seed", "1", "--out", str(out2)])
        assert out.read_text().replace("basin2", "basin") == out2.read_text().replace(
            "basin2", "basin")

    def test_horizon_validation(self, tmp_path):
        out = tmp_path / "x.csv"
        for horizon in ("inf", "nan", "0", "-5"):
            assert main(["basin", "--n", "10", "--horizon", horizon, "--out", str(out)]) \
                == EXIT_VALIDATION
        for box in ("nan,0.35,1.3,1.9,-0.15,0.15", "0.05,0.35,1.3,inf,-0.15,0.15"):
            assert main(["basin", "--n", "10", "--box", box, "--out", str(out)]) \
                == EXIT_VALIDATION
        assert not out.exists()

    def test_box_beyond_the_float_range_prints_one_record(self, tmp_path, capsys):
        # the energy relation overflows there: the samples are off the level,
        # and the JSON record is all of stderr
        out = tmp_path / "x.csv"
        code = main(["basin", "--box", "1e200,1e201,0,1,0,0.1", "--n", "10",
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["message"] == "sampling box does not intersect the energy level"

    def test_step_limit_binds_the_ensemble(self, tmp_path, capsys, monkeypatch):
        # a bounded mu = 1 orbit that never collides runs to the step limit
        monkeypatch.setattr(mcgehee, "IntegratorConfig", partial(IntegratorConfig, max_steps=500))
        out = tmp_path / "x.csv"
        code = main(["basin", "--mu", "1", "--h", "-0.1", "--n", "1", "--horizon", "40",
                     "--box", "3.58,3.5801,0.05,0.0501,3.7,3.7001", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["exit_code"] == EXIT_NUMERICAL
        assert record["message"].startswith("exceeded 500 steps at t=")

    def test_overflowing_ensemble_start_names_one_sample(self, tmp_path, capsys):
        # at h = 1e300 the weighted field of every sample overflows at tau = 0;
        # the record names tau, the stepped count and one state, not all 4 x 10^4
        out = tmp_path / "x.csv"
        assert main(["basin", "--h", "1e300", "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()
        err = capsys.readouterr().err
        assert len(err.encode()) < 1024
        record = json.loads(err)
        assert record["error"] == "numerical" and record["exit_code"] == EXIT_NUMERICAL
        assert record["message"].startswith("the 10000 undecided samples could not start at "
                                            "tau = 0.0")
        assert record["message"].count("(r, v, theta, u) = [") == 1

    def test_sample_count_beyond_any_memory_is_numerical_failure(self, tmp_path, capsys):
        # 1e15 samples, 7.1 PiB: beyond a 48-bit address space, so the allocation
        # fails at once on any machine
        out = tmp_path / "x.csv"
        assert main(["basin", "--n", "1000000000000000", "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "numerical" and record["exit_code"] == EXIT_NUMERICAL
        assert record["message"].startswith("Unable to allocate")

    def test_reversed_box_range_names_the_coordinate(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert validation_message(["basin", "--box", "0.35,0.05,1.3,1.9,-0.15,0.15",
                                   "--out", str(out)], capsys) \
            == "sampling box range of r is reversed: 0.35..0.05"
        # at beta = 3 negative "radii" satisfy the energy relation, at beta = 2.5
        # their power is NaN: either way the box is refused for its r range
        for beta in ("3", "2.5"):
            assert validation_message(["basin", "--beta", beta, "--n", "100",
                                       "--box", "-0.35,-0.05,1.3,1.9,-0.15,0.15",
                                       "--out", str(out)], capsys) \
                == "sampling box range of r must satisfy r >= 0: -0.35..-0.05"
        box = "0.1,0.2,a,1,0,0.1"
        assert validation_message(["basin", "--box", box, "--out", str(out)], capsys) \
            == f"--box values must be numbers, got {box!r}"
        assert not out.exists()

    def test_sample_count_checked_by_the_parser(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        for n in ("0", "-3", "2.5"):
            assert main(["basin", "--n", n, "--out", str(out)]) == EXIT_VALIDATION
            assert "--n" in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()


class TestConfigAndErrors:
    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = melnikov\nbeta-grid = 1.8:2.2:0.1\np = 1.0\n")
        out = tmp_path / "m.csv"
        code = main(["--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        meta, _, rows = read_rows(out)
        assert len(rows) == 5
        # explicit flag wins over the config entry
        out2 = tmp_path / "m2.csv"
        code = main(["--config", str(cfg), "--p", "2.0", "--out", str(out2)])
        assert code == EXIT_OK
        meta2, _, _ = read_rows(out2)
        assert meta2["p"] == "2.0"

    def test_config_entry_the_command_does_not_take(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = melnikov\nrtol = 1e-8\n")
        out = tmp_path / "m.csv"
        assert main(["--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    def test_bad_config_is_bad_input(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        unknown = tmp_path / "unknown.cfg"
        unknown.write_text("command = foo\n")
        assert validation_message(["--config", str(unknown), "--out", out], capsys) \
            == "unknown command 'foo'"
        no_equals = tmp_path / "no_equals.cfg"
        no_equals.write_text("# a comment\n\ncommand melnikov\n")
        assert validation_message(["--config", str(no_equals), "--out", out], capsys) \
            == "config line without '=': 'command melnikov'"
        assert validation_message(["melnikov", "--out", out, "--config"], capsys) \
            == "--config needs a path"
        assert "No such file" in validation_message(
            ["--config", str(tmp_path / "missing.cfg"), "--out", out], capsys)
        assert not (tmp_path / "x.csv").exists()

    SEEDED = ("infinity-flow", "beta2-verify", "basin")

    def test_seed_checked_by_the_parser(self, tmp_path, capsys):
        # numpy's generators take no negative seed: every seeded command refuses
        # one alike, instead of failing in numpy or writing it to the CSV header
        out = tmp_path / "x.csv"
        for command in self.SEEDED:
            for seed in ("-1", "1.5"):
                assert validation_message([command, "--seed", seed, "--out", str(out)],
                                          capsys) \
                    == f"argument --seed: must be an integer of at least 0, got {seed!r}"
        assert not out.exists()

    def test_only_the_commands_that_draw_samples_take_a_seed(self, tmp_path, capsys):
        # the other five draw no random numbers: a seed is refused from a flag
        # and from a config file, with one record and no CSV
        out = tmp_path / "x.csv"
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = 1\n", encoding="utf-8")
        unseeded = [command for command in cli._RUNNERS if command not in self.SEEDED]
        assert unseeded == ["simulate", "equilibria", "collision-flow", "splitting", "melnikov"]
        for command in unseeded:
            assert validation_message([command, "--seed", "0", "--out", str(out)], capsys) \
                == "unrecognized arguments: --seed 0"
            assert validation_message([command, "--config", str(cfg), "--out", str(out)],
                                      capsys) == "unrecognized arguments: --seed 1"
            assert not out.exists()

    def test_the_seed_is_written_where_it_is_read(self, tmp_path):
        # a seeded command writes its seed to the CSV header and the manifest's
        # config echo; the others write none
        small = {"simulate": ["--t-final", "1"], "equilibria": [],
                 "collision-flow": ["--grid", "3"], "infinity-flow": ["--orbits", "1"],
                 "splitting": ["--eps-list", "0"],
                 "beta2-verify": ["--n-states", "10", "--n-orbits", "1", "--tau", "1"],
                 "melnikov": ["--beta-grid", "1.8:2:0.1"], "basin": ["--n", "50"]}
        assert list(small) == list(cli._RUNNERS)
        for command, argv in small.items():
            seeded = command in self.SEEDED
            out = tmp_path / f"{command}.csv"
            assert main([command, *argv, *(["--seed", "3"] if seeded else []),
                         "--out", str(out)]) == EXIT_OK
            meta, _, _ = read_rows(out)
            manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
            assert "seed" not in manifest
            if seeded:
                assert (meta["seed"], manifest["config"]["seed"]) == ("3", 3), command
            else:
                assert "seed" not in meta and "seed" not in manifest["config"], command

    def test_integrator_defaults_are_the_library_defaults(self):
        defaults = IntegratorConfig()
        integrating = []
        for command in cli._RUNNERS:
            ns = build_parser().parse_args([command, "--out", "x.csv"])
            if hasattr(ns, "rtol"):
                integrating.append(command)
                assert (ns.rtol, ns.atol, ns.max_steps) == (
                    defaults.rel_tol, defaults.abs_tol, defaults.max_steps)
        assert integrating == ["simulate", "collision-flow", "infinity-flow", "splitting",
                               "beta2-verify"]

    def test_missing_out(self):
        assert main(["melnikov"]) == EXIT_VALIDATION

    def test_unknown_command(self):
        assert main(["frobnicate", "--out", "x.csv"]) == EXIT_VALIDATION

    def test_error_record_is_json(self, tmp_path, capsys):
        for argv in (["equilibria", "--beta", "2", "--mu", "1.2", "--b", "0.5"],
                     ["splitting", "--beta", "5"],  # the torus gate rejects it
                     # bad flags are rejected by the parser and get the same record
                     ["collision-flow", "--grid", "abc"],
                     ["simulate", "--coords", "polar"]):
            assert main(argv + ["--out", str(tmp_path / "x.csv")]) == EXIT_VALIDATION
            err = capsys.readouterr().err.strip()
            record = json.loads(err.splitlines()[-1])
            assert record["exit_code"] == EXIT_VALIDATION
            assert set(record) == {"error", "message", "exit_code"}

    def test_non_finite_cell_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # no NaN or inf is written under exit code 0: a runner that returns one
        # gets one record naming the column and the row, and no CSV
        run = cli._RUNNERS["equilibria"]

        def nan_in_row_two(ns):
            meta, cols, rows, drift = run(ns)
            assert cols[1] == "theta"
            rows = [list(row) for row in rows]
            rows[1][1] = math.nan
            return meta, cols, rows, drift

        monkeypatch.setitem(cli._RUNNERS, "equilibria", nan_in_row_two)
        out = tmp_path / "x.csv"
        assert main(["equilibria", "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "numerical", "exit_code": EXIT_NUMERICAL,
                                        "message": "equilibria: nan in column 'theta', row 2"}

    def test_untraceable_branch_is_numerical_failure(self, tmp_path, capsys):
        # at mu = 10 the beta = 3 unstable branch meets psi = pi, where it turns
        # back in theta, before the section; at these loose tolerances too
        out = tmp_path / "x.csv"
        for argv in (["collision-flow", "--beta", "3", "--mu", "10", "--grid", "2"],
                     ["splitting", "--eps-list", "9"]):
            code = main(argv + ["--rtol", "1e-4", "--atol", "1e-6", "--out", str(out)])
            assert code == EXIT_NUMERICAL
            assert not out.exists()
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["exit_code"] == EXIT_NUMERICAL

    def test_branch_into_sink_fails_fast_at_default_tolerances(self, tmp_path, capsys):
        # the branch meets psi = pi at theta = -0.818, on its way into the sink
        # near (-pi/2, pi): the trace stops there, short of the section
        out = tmp_path / "x.csv"
        start = time.perf_counter()
        code = main(["collision-flow", "--beta", "3", "--mu", "10", "--grid", "2",
                     "--out", str(out)])
        assert time.perf_counter() - start < 5.0
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert "turns back in theta" in record["message"]

    def test_unwritable_out_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["equilibria", "--out", str(out)]) == EXIT_VALIDATION
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["exit_code"] == EXIT_VALIDATION

    def test_top_level_help(self, capsys):
        for flag in ("--help", "-h"):
            assert main([flag]) == EXIT_OK
            assert capsys.readouterr().out.startswith("usage: anisokepler")
        assert main([]) == EXIT_VALIDATION

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "anisokepler.cli", "melnikov",
             "--beta-grid", "1.8:2:0.1", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()


# main() without argv is the program path, which the console script and
# `python -m anisokepler.cli` take
FREEZE_COUNT_RUN = ("import gc, sys; from anisokepler.cli import main; main(); "
                    "print(gc.get_freeze_count())")


def test_the_program_freezes_the_import_time_heap(tmp_path):
    out = tmp_path / "eq.csv"
    proc = subprocess.run([sys.executable, "-c", FREEZE_COUNT_RUN,
                           "equilibria", "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert int(proc.stdout) > 0
    assert out.exists()


def test_main_with_argv_leaves_the_collector_as_it_was(tmp_path):
    frozen = gc.get_freeze_count()
    assert main(["equilibria", "--out", str(tmp_path / "eq.csv")]) == EXIT_OK
    assert gc.get_freeze_count() == frozen


def test_no_output_is_closed_by_a_finalizer(tmp_path):
    # the collector never finalizes a frozen object, so a file that only its
    # finalizer closed could lose its tail: -X dev reports a file left to its
    # finalizer as a ResourceWarning, and one held by a frozen object shows
    # only as a short CSV or a missing manifest
    program = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
               "-m", "anisokepler.cli"]
    out = tmp_path / "s.csv"
    proc = subprocess.run(program + ["simulate", "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "ResourceWarning" not in proc.stderr
    assert out.read_text(encoding="utf-8").endswith("\n")
    manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
    assert manifest["out"] == str(out)
    _, _, rows = read_rows(out)
    assert float(rows[-1][0]) == manifest["config"]["t_final"]

    out = tmp_path / "j.csv"
    proc = subprocess.run(program + ["beta2-verify", "--b", "1e308", "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_NUMERICAL, proc.stderr
    assert "ResourceWarning" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["exit_code"] == EXIT_NUMERICAL
    assert not out.exists()


def test_overflowing_anisotropy_power_prints_no_warning(tmp_path):
    # at mu = 1e300, Delta^(beta/2) exceeds the floats in the energy residual
    # columns; it is inf there, as on numpy, and no RuntimeWarning is printed
    out = tmp_path / "x.csv"
    for argv in (["infinity-flow", "--mu", "1e300"],
                 ["infinity-flow", "--beta", "4", "--mu", "1e300"],
                 ["simulate", "--coords", "mcgehee", "--mu", "1e300"]):
        assert main(argv + ["--out", str(out)]) == EXIT_OK, argv
        _, _, rows = read_rows(out)
        assert rows and all(math.isfinite(float(x)) for row in rows for x in row), argv


# every command at a small size, plus the one quadrature outside the CLI, in an
# interpreter where importing scipy fails
NO_SCIPY_RUN = """
import math
import sys
sys.modules["scipy"] = None
from anisokepler.cli import main
from anisokepler.torus import zeta1
out = sys.argv[1]
runs = [
    ["simulate", "--t-final", "1"],
    ["equilibria"],
    ["collision-flow", "--grid", "3"],
    ["infinity-flow", "--orbits", "1"],
    ["splitting", "--eps-list", "0,1e-3"],
    ["beta2-verify", "--n-states", "20", "--n-orbits", "1", "--tau", "1"],
    ["melnikov", "--beta-grid", "1.502:3:0.1"],
    ["basin", "--n", "50"],
]
print([main(argv + ["--out", out]) for argv in runs])
print(abs(zeta1(3, 0.0) - 0.75 * math.pi) < 1e-12)
"""


def test_every_command_runs_without_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path / "x.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == [str([EXIT_OK] * 8), "True"]


def readme_examples():
    """argv of each `anisokepler ...` line in the README's "Examples:" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Examples:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("anisokepler ")]


def test_readme_examples_run(tmp_path, capsys):
    examples = readme_examples()
    assert len(examples) == 4
    for argv in examples:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
        assert main(argv) == EXIT_OK, argv
        _, _, rows = read_rows(Path(argv[at]))
        assert rows, argv
    assert capsys.readouterr().err == ""
