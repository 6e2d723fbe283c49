"""CLI surface: subcommands, CSV format, manifests, exit codes, reproducibility."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from anisokepler.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main


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

    def test_grid_validation(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["melnikov", "--beta-grid", "1.2:5:0.1", "--out", str(out)]) \
            == EXIT_VALIDATION
        assert main(["melnikov", "--beta-grid", "oops", "--out", str(out)]) == EXIT_VALIDATION

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowed_spectrum_is_numerical_failure(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["equilibria", "--mu", "1e300", "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()


class TestSimulateCommand:
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
        # a non-finite end time is rejected instead of integrating forever
        for t_final in ("nan", "inf"):
            for coords in ("mcgehee", "cartesian"):
                code = main(["simulate", "--coords", coords, "--t-final", t_final,
                             "--out", str(tmp_path / "x.csv")])
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

    def test_grid_validation(self, tmp_path):
        out = tmp_path / "x.csv"
        for grid in ("0", "-2"):
            assert main(["collision-flow", "--grid", grid, "--out", str(out)]) \
                == EXIT_VALIDATION
        assert not out.exists()


class TestInfinityFlowCommand:
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
        code = main(["splitting", "--beta", "3", "--b", "0.5",
                     "--eps-list", "0,1e-3", "--out", str(out)])
        assert code == EXIT_OK
        _, cols, rows = read_rows(out)
        assert rows[0][cols.index("verdict")] == "connected-within-tolerance"
        assert rows[1][cols.index("verdict")] == "broken"


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

    def test_missing_out(self):
        assert main(["melnikov"]) == EXIT_VALIDATION

    def test_unknown_command(self):
        assert main(["frobnicate", "--out", "x.csv"]) == EXIT_VALIDATION

    def test_error_record_is_json(self, tmp_path, capsys):
        main(["equilibria", "--beta", "2", "--mu", "1.2", "--b", "0.5",
              "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err.strip()
        record = json.loads(err.splitlines()[-1])
        assert record["exit_code"] == EXIT_VALIDATION

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "anisokepler.cli", "melnikov",
             "--beta-grid", "1.8:2:0.1", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()
