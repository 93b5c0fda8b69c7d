import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

import isofokker.cli as cli
from isofokker.cli import VERIFY_CHECKS, UsageError, _initial_condition, main
from isofokker.grid import integrate, make_grid, read_csv_columns

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestSpectrumCommand:
    def test_ou_eigenvalues_json(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys,
            "spectrum", "--scenario", "ou", "--grid", "-12:12:2001",
            "--kmax", "7", "--out", str(tmp_path),
        )
        assert rc == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert np.max(np.abs(np.array(report["eigenvalues"]) - np.arange(8))) < 1e-3
        cols = read_csv_columns(tmp_path / "eigenfunctions.csv")
        assert "phi0" in cols and "x" in cols
        assert (tmp_path / "spectrum.json").exists()

    def test_config_embedded_in_report(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, "spectrum", "--kmax", "3", "--out", str(tmp_path))
        report = json.loads(out)
        assert report["config"]["kmax"] == 3
        assert report["config"]["scenario"] == "ou"

    def test_unknown_scenario_exits_one(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "spectrum", "--scenario", "bogus", "--out", str(tmp_path))
        assert rc == 1
        assert "unknown scenario" in err

    def test_unresolved_levels_exit_one(self, capsys, tmp_path):
        # the symmetric double well D = -0.8 x (x^2 - 9) has tunnelling pairs
        # that 2001 nodes cannot split: the eigensolver raises RuntimeError
        drift = tmp_path / "drift.csv"
        xs = np.linspace(-12.0, 12.0, 2001)
        np.savetxt(drift, np.column_stack([xs, -0.8 * xs * (xs**2 - 9.0)]), delimiter=",")
        rc, _, err = run_cli(
            capsys, "spectrum", "--scenario", f"csv:{drift}", "--kmax", "3", "--out", str(tmp_path)
        )
        assert rc == 1
        assert err.startswith("error:") and "resolution too coarse" in err


class TestDeformCommand:
    def test_isospectrality_report(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "deform", "--lambda", "0.5,0.5", "--kmax", "5", "--out", str(tmp_path)
        )
        assert rc == 0
        report = json.loads(out)
        assert report["max_abs_eig_diff"] <= 5e-3
        assert report["isospectral"] is True
        assert (tmp_path / "deformed_drift.csv").exists()

    def test_inadmissible_lambda_exits_one(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "deform", "--lambda", "-0.5", "--out", str(tmp_path))
        assert rc == 1
        assert "excluded interval" in err and "[-1, 0]" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_lambda_exits_one(self, capsys, tmp_path, value):
        rc, _, err = run_cli(capsys, "deform", f"--lambda={value}", "--out", str(tmp_path))
        assert rc == 1
        assert err.startswith("error: ") and f"lambda_0 = {value} is not finite" in err

    def test_missing_lambda_exits_one(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "deform", "--out", str(tmp_path))
        assert rc == 1
        assert "lambda" in err

    @pytest.mark.parametrize("lambdas, kmax", [("0.5", "1"), ("0.5,0.5", "2")])
    def test_kmax_not_above_parameter_count_exits_one(self, capsys, tmp_path, lambdas, kmax):
        rc, _, err = run_cli(capsys, "deform", "--lambda", lambdas, "--kmax", kmax, "--out", str(tmp_path))
        assert rc == 1
        assert "need kmax > n" in err

    @pytest.mark.parametrize("lambdas, kmax", [("0.5", "2"), ("0.5,0.5", "3")])
    def test_check_without_a_carried_level_exits_one(self, capsys, tmp_path, lambdas, kmax):
        # kmax = n + 1 would compare only the reinstated levels 0..n-1
        rc, _, err = run_cli(capsys, "deform", "--lambda", lambdas, "--kmax", kmax, "--out", str(tmp_path))
        assert rc == 1
        assert "need kmax > n + 1" in err

    def test_least_kmax_compares_first_carried_level(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, "deform", "--lambda", "0.5", "--kmax", "3", "--out", str(tmp_path))
        assert rc == 0
        report = json.loads(out)
        assert len(report["deformed_eigenvalues"]) == 2  # levels 0 and n = 1
        assert report["deformed_eigenvalues"][1] == pytest.approx(1.0, abs=1e-3)
        assert report["isospectral"] is True


class TestEvolveCommand:
    def test_moments_report(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys,
            "evolve", "--times", "0.25,1.0", "--ic", "gaussian:2,0.5",
            "--kmax", "7", "--out", str(tmp_path),
        )
        assert rc == 0
        report = json.loads(out)
        m = report["moments"][0]
        assert m["mean"] == pytest.approx(2.0 * math.exp(-0.25), abs=1e-3)
        assert m["mass"] == pytest.approx(1.0, abs=1e-6)
        assert "truncation_residual_l1" in report
        cols = read_csv_columns(tmp_path / "evolution.csv")
        assert "P_t0.25" in cols and "P_t1" in cols

    def test_fractional_flag(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys,
            "evolve", "--times", "1.0", "--alpha", "0.5", "--kmax", "5",
            "--ic", "gaussian:1,0.6", "--out", str(tmp_path),
        )
        assert rc == 0
        assert json.loads(out)["config"]["alpha"] == 0.5

    def test_csv_initial_condition(self, capsys, tmp_path):
        ic = tmp_path / "ic.csv"
        xs = np.linspace(-12, 12, 2001)
        with open(ic, "w") as fh:
            for x in xs:
                fh.write(f"{x},{math.exp(-(x - 1.0) ** 2):.17g}\n")
        rc, out, _ = run_cli(
            capsys,
            "evolve", "--times", "0.5", "--ic", f"csv:{ic}", "--kmax", "7",
            "--out", str(tmp_path),
        )
        assert rc == 0
        assert json.loads(out)["moments"][0]["mass"] == pytest.approx(1.0, abs=1e-6)

    def test_narrow_csv_initial_condition_gets_zero_tails(self, tmp_path):
        ic = tmp_path / "ic.csv"
        xs = np.linspace(-2.0, 3.0, 101)
        # non-zero at both ends, where clamping would leave constant tails
        np.savetxt(ic, np.column_stack([xs, 1.0 + 0.1 * xs]), delimiter=",", header="x,P", comments="")
        grid = make_grid(-12.0, 12.0, 2001)
        P0 = _initial_condition({"ic": f"csv:{ic}"}, grid)
        outside = (grid.x < -2.0) | (grid.x > 3.0)
        assert np.all(P0.values[outside] == 0.0)
        assert np.all(P0.values[~outside] > 0.0)
        assert integrate(P0) == pytest.approx(1.0, abs=1e-12)

    def test_ic_without_mass_on_grid_rejected(self, tmp_path):
        ic = tmp_path / "ic.csv"
        np.savetxt(ic, [[20.0, 1.0], [21.0, 1.0]], delimiter=",")
        with pytest.raises(UsageError, match="mass"):
            _initial_condition({"ic": f"csv:{ic}"}, make_grid(-12.0, 12.0, 2001))

    def test_unsorted_csv_initial_condition_exits_one(self, capsys, tmp_path):
        ic = tmp_path / "ic.csv"
        xs = np.linspace(-12, 12, 201)
        rows = np.column_stack([xs, np.exp(-(xs**2))])
        np.random.default_rng(3).shuffle(rows)
        np.savetxt(ic, rows, delimiter=",")
        rc, _, err = run_cli(capsys, "evolve", "--times", "0.5", "--ic", f"csv:{ic}", "--out", str(tmp_path))
        assert rc == 1
        assert "increasing" in err

    def test_non_finite_csv_initial_condition_exits_one(self, capsys, tmp_path):
        ic = tmp_path / "ic.csv"
        with open(ic, "w") as fh:
            fh.write("x,P\n-1,0.5\n0,nan\n1,0.5\n")
        rc, _, err = run_cli(capsys, "evolve", "--times", "0.5", "--ic", f"csv:{ic}", "--out", str(tmp_path))
        assert rc == 1
        assert "non-finite" in err

    def test_guard_failure_reported_as_error(self, capsys, tmp_path, coarse_ml_rule):
        rc, _, err = run_cli(capsys, "evolve", "--alpha", "0.5", "--out", str(tmp_path))
        assert rc == 1
        assert err.startswith("error:") and "differ" in err

    def test_bad_ic_exits_one(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "evolve", "--ic", "circle:1", "--out", str(tmp_path))
        assert rc == 1
        assert "unknown IC" in err


class TestMlCommand:
    def test_table(self, capsys, tmp_path):
        rc, _, _ = run_cli(
            capsys,
            "ml", "--alpha", "0.5", "--zmin", "-4", "--zmax", "0", "--steps", "5",
            "--out", str(tmp_path),
        )
        assert rc == 0
        with open(tmp_path / "mittag_leffler.csv") as fh:
            rows = fh.read().strip().splitlines()
        assert rows[0] == "z,E_alpha"
        assert len(rows) == 6
        z_last, e_last = (float(v) for v in rows[-1].split(","))
        assert z_last == 0.0 and e_last == 1.0

    def test_positive_z_rejected(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "ml", "--zmin", "-1", "--zmax", "1", "--out", str(tmp_path)
        )
        assert rc == 1

    def test_guard_failure_reported_as_error(self, capsys, tmp_path, coarse_ml_rule):
        rc, _, err = run_cli(capsys, "ml", "--alpha", "0.5", "--out", str(tmp_path))
        assert rc == 1
        assert err.startswith("error:") and "differ" in err


class TestBlackholeCommand:
    def test_potential_table(self, capsys, tmp_path):
        T = 1.0 / (4.0 * math.pi)
        rc, out, _ = run_cli(
            capsys,
            "blackhole", "--temperature", f"{T:.17g}", "--rmin", "0.1", "--rmax", "3",
            "--out", str(tmp_path),
        )
        assert rc == 0
        report = json.loads(out)
        assert report["equilibrium_radius"] == pytest.approx(1.0)
        cols = read_csv_columns(tmp_path / "blackhole.csv")
        i = np.argmin(np.abs(cols["x"] - 1.0))
        assert cols["U"][i] == pytest.approx(0.25, abs=1e-12)

    def test_deformed_thermal_potential(self, capsys, tmp_path):
        rc, _, _ = run_cli(
            capsys,
            "blackhole", "--rmin", "0.1", "--rmax", "3", "--lambda", "2.0",
            "--kmax", "5", "--out", str(tmp_path),
        )
        assert rc == 0
        cols = read_csv_columns(tmp_path / "blackhole.csv")
        assert "U_deformed" in cols and "D_deformed" in cols


class TestDarbouxCommand:
    def test_stage_energies(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "darboux", "--steps", "2", "--kmax", "7", "--out", str(tmp_path)
        )
        assert rc == 0
        report = json.loads(out)
        stage2 = np.array(report["stage_energies"]["2"])
        assert np.max(np.abs(stage2 - np.arange(len(stage2)))) < 5e-3
        assert (tmp_path / "darboux_drifts.csv").exists()

    def test_warns_beyond_four_steps(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "darboux", "--steps", "5", "--kmax", "7", "--out", str(tmp_path)
        )
        assert rc == 0
        assert "unvalidated" in err


class TestConfigHandling:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = ou\nkmax = 3\ngamma = 2.0\n")
        rc, out, _ = run_cli(
            capsys, "spectrum", "--config", str(cfg), "--kmax", "4", "--out", str(tmp_path)
        )
        assert rc == 0
        report = json.loads(out)
        assert report["config"]["kmax"] == 4  # flag wins
        assert float(report["config"]["gamma"]) == 2.0  # file fills the rest
        assert len(report["eigenvalues"]) == 5
        assert report["eigenvalues"][1] == pytest.approx(2.0, abs=5e-3)

    def test_malformed_config_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario ou\n")
        rc, _, err = run_cli(capsys, "spectrum", "--config", str(cfg), "--out", str(tmp_path))
        assert rc == 1
        assert "key=value" in err

    @pytest.mark.parametrize("command, key", [("spectrum", "kmx"), ("ml", "kmax")], ids=["typo", "not-taken"])
    def test_key_the_command_does_not_take_exits_one(self, capsys, tmp_path, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 3\n")
        rc, _, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(tmp_path))
        assert rc == 1
        assert key in err

    def test_file_value_of_wrong_type_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kmax = abc\n")
        rc, _, err = run_cli(capsys, "spectrum", "--config", str(cfg), "--out", str(tmp_path))
        assert rc == 1
        assert "kmax" in err and "abc" in err

    def test_file_values_take_the_flag_type(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kmax = 3\ngamma = 2\n")
        rc, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg), "--out", str(tmp_path))
        assert rc == 0
        config = json.loads(out)["config"]
        assert config["kmax"] == 3 and config["gamma"] == 2.0

    def test_env_var_default_out(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ISOFOKKER_OUT", str(tmp_path / "envout"))
        rc, _, _ = run_cli(capsys, "spectrum", "--kmax", "2")
        assert rc == 0
        assert (tmp_path / "envout" / "spectrum.json").exists()

    def test_determinism_byte_identical(self, capsys, tmp_path):
        args = ("deform", "--lambda", "0.7", "--kmax", "4", "--out", str(tmp_path))
        names = ("deform.json", "deformed_drift.csv")
        assert run_cli(capsys, *args)[0] == 0
        first = {n: (tmp_path / n).read_bytes() for n in names}
        assert run_cli(capsys, *args)[0] == 0
        for n in names:
            assert (tmp_path / n).read_bytes() == first[n]


class TestFlagTable:
    @pytest.mark.parametrize(
        "argv",
        [("verify", "--kmax", "3"), ("ml", "--scenario", "ou"), ("blackhole", "--steps", "3")],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_flag_the_command_does_not_read_exits_one(self, capsys, tmp_path, argv):
        rc, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert rc == 1
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv, message",
        [(("spectrum", "--gamma", "-1e-3"), "gamma must be positive"), (("ml", "--alpha", "-1e-1"), "alpha")],
        ids=["gamma", "alpha"],
    )
    def test_values_may_start_with_dash(self, capsys, tmp_path, argv, message):
        rc, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert rc == 1
        assert message in err and "expected one argument" not in err


class TestVerifyCommand:
    def test_passes_with_the_registry_checks(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, "verify", "--out", str(tmp_path))
        assert rc == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert [c["name"] for c in report["checks"]] == [check.name for check in VERIFY_CHECKS]
        assert json.loads((tmp_path / "verify.json").read_text()) == report

    def test_failed_check_exits_two(self, capsys, tmp_path, monkeypatch):
        failing = (VERIFY_CHECKS[0]._replace(tolerance=0.0),) + VERIFY_CHECKS[1:]
        monkeypatch.setattr(cli, "VERIFY_CHECKS", failing)
        rc, out, _ = run_cli(capsys, "verify", "--out", str(tmp_path))
        assert rc == 2
        report = json.loads(out)
        assert report["all_passed"] is False
        assert [c["passed"] for c in report["checks"]] == [False] + [True] * (len(failing) - 1)


def readme_command_lines() -> list[str]:
    """The lines of the ``sh`` block under "## Command line" in README.md."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("line", readme_command_lines(), ids=lambda line: line.split()[1])
def test_readme_command_line_runs(capsys, tmp_path, line):
    argv = shlex.split(line)
    assert argv[0] == "isofokker"
    rc, _, err = run_cli(capsys, *argv[1:], "--out", str(tmp_path))
    assert rc == 0, err
