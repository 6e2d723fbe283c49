"""CLI surface: subcommands, CSV format, manifests, exit codes, reproducibility."""

import json
import math
import subprocess
import sys
import time
from functools import partial

import numpy as np
import pytest

from anisokepler import cli, mcgehee
from anisokepler.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, build_parser, main
from anisokepler.integrate import IntegratorConfig


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
        # at p = 1e-4 the Gamma forms are still compared at p = 1, so beta = 3
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

    def test_gamma_overflow_is_numerical_failure(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["melnikov", "--beta-grid", "150:200:10", "--out", str(out)]) \
            == EXIT_NUMERICAL
        assert not out.exists()


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
        assert not out.exists()

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

    def test_nan_field_is_numerical_failure(self, tmp_path, capsys):
        # (mu - 1) b overflows to inf and meets sin(2 theta) = 0 or an infinite
        # power: the dpsi cells are NaN, so nothing is written
        out = tmp_path / "x.csv"
        code = main(["collision-flow", "--beta", "2.5", "--mu", "1e300", "--b", "1e300",
                     "--grid", "3", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        assert not (tmp_path / "x.csv.manifest.json").exists()
        record = json.loads(capsys.readouterr().err)
        assert record["message"] == "collision-flow: nan in column 'dpsi', row 1"

    def test_seed_beyond_the_float_range_prints_one_record(self, tmp_path, capsys):
        # the complex-step Jacobian at the saddle is not finite at mu = 1e300:
        # the run exits 3, and the record is all of stderr
        out = tmp_path / "x.csv"
        for beta in ("3", "2.5"):
            code = main(["collision-flow", "--beta", beta, "--mu", "1e300", "--grid", "2",
                         "--out", str(out)])
            assert code == EXIT_NUMERICAL
            record = json.loads(capsys.readouterr().err)
            assert "complex-step derivative" in record["message"]
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
        for beta in ("3", "2.5"):  # j = 2 and j = 4 of beta = 2 + 2/j
            code = main(["splitting", "--beta", beta, "--b", "0.5",
                         "--eps-list", "0,1e-3", "--out", str(out)])
            assert code == EXIT_OK
            _, cols, rows = read_rows(out)
            assert rows[0][cols.index("verdict")] == "connected-within-tolerance"
            assert rows[1][cols.index("verdict")] == "broken"

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
        for eps_list in ("0,-1e-3", "inf", "1e-3,nan"):
            assert validation_message(["splitting", "--eps-list", eps_list, "--out", str(out)],
                                      capsys) == ("--eps-list values must be finite and "
                                                  f"non-negative, got {eps_list!r}")
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

    def test_max_steps_applies(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["beta2-verify", "--max-steps", "5", "--n-orbits", "2", "--n-states", "10",
                     "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()


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

    def test_seed_checked_by_the_parser(self, tmp_path, capsys):
        # numpy's generators take no negative seed: every command refuses one
        # alike, instead of failing in numpy or writing it to the CSV header
        out = tmp_path / "x.csv"
        for command in cli._RUNNERS:
            for seed in ("-1", "1.5"):
                assert validation_message([command, "--seed", seed, "--out", str(out)],
                                          capsys) \
                    == f"argument --seed: must be an integer of at least 0, got {seed!r}"
        assert not out.exists()

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

    def test_untraceable_branch_is_numerical_failure(self, tmp_path, capsys):
        # at mu = 10 the beta = 3 unstable branch falls into a sink before the
        # section; at these loose tolerances it exceeds the arc-length cap first
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
        # the branch settles into the sink near (-pi/2, pi); the trace stops
        # there instead of integrating on toward tau = 1e5
        out = tmp_path / "x.csv"
        start = time.perf_counter()
        code = main(["collision-flow", "--beta", "3", "--mu", "10", "--grid", "2",
                     "--out", str(out)])
        assert time.perf_counter() - start < 5.0
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert "attracting equilibrium" in record["message"]

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
