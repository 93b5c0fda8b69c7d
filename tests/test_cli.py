import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import isofokker.cli as cli
import isofokker.darboux as darboux
import isofokker.evolve as evolve
import isofokker.isospectral as isospectral
import isofokker.spectral as spectral
from isofokker.cli import VERIFY_CHECKS, UsageError, _initial_condition, main
from isofokker.grid import (
    GridFunction, cumulative_integral, derivative, integrate, make_grid, read_csv_columns,
)
from isofokker.isospectral import IsoParams
from isofokker.scenarios import ou_scenario, schwarzschild_potential
from isofokker.spectral import DriftSpec, build_hamiltonian, ground_state_to_drift, solve_spectrum, unit_states

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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
        # the symmetric double well D = -1.6 x (x^2 - 9) has tunnelling pairs
        # that coincide at full precision on 2001 nodes: the eigensolver
        # raises RuntimeError
        drift = tmp_path / "drift.csv"
        xs = np.linspace(-12.0, 12.0, 2001)
        np.savetxt(drift, np.column_stack([xs, -1.6 * xs * (xs**2 - 9.0)]), delimiter=",")
        rc, _, err = run_cli(
            capsys, "spectrum", "--scenario", f"csv:{drift}", "--kmax", "3", "--out", str(tmp_path)
        )
        assert rc == 1
        assert err.startswith("error:") and "resolution too coarse" in err


class TestCsvScenario:
    """A csv: drift runs on the grid of its file."""

    @staticmethod
    def ou_file(tmp_path, n: int):
        path = tmp_path / f"ou{n}.csv"
        x = np.linspace(-10.0, 10.0, n)
        np.savetxt(path, np.column_stack([x, -x]), delimiter=",", header="x,D", comments="")
        return path

    @pytest.mark.parametrize("n", [2001, 1001])
    def test_evolves_on_the_file_grid(self, capsys, tmp_path, n):
        drift = self.ou_file(tmp_path, n)
        rc, out, _ = run_cli(
            capsys, "evolve", "--scenario", f"csv:{drift}", "--ic", "gaussian:2,0.5", "--times", "1",
            "--out", str(tmp_path),
        )
        assert rc == 0
        assert json.loads(out)["moments"][0]["mean"] == pytest.approx(2.0 / math.e, abs=1e-4)
        x = read_csv_columns(tmp_path / "evolution.csv")["x"]
        assert len(x) == n and (x[0], x[-1]) == (-10.0, 10.0)

    def test_grid_flag_exits_one(self, capsys, tmp_path):
        drift = self.ou_file(tmp_path, 2001)
        rc, _, err = run_cli(
            capsys, "spectrum", "--scenario", f"csv:{drift}", "--grid=-10:10:2001", "--out", str(tmp_path)
        )
        assert rc == 1
        assert err.startswith("error:") and "--grid" in err
        assert not (tmp_path / "spectrum.json").exists()


class TestScenarioParameter:
    """A scenario reads at most one of --gamma (ou) and --temperature (schwarzschild)."""

    @staticmethod
    def scenario_value(tmp_path, scenario: str) -> str:
        return f"csv:{TestCsvScenario.ou_file(tmp_path, 2001)}" if scenario == "csv" else scenario

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize(
        "scenario, key",
        [("box", "gamma"), ("ou", "temperature"), ("schwarzschild", "gamma"), ("csv", "gamma"), ("csv", "temperature")],
    )
    @pytest.mark.parametrize("command", ["spectrum", "darboux", "deform", "evolve"])
    def test_parameter_the_scenario_does_not_read_exits_one(self, capsys, tmp_path, command, scenario, key, given):
        argv = [command, "--scenario", self.scenario_value(tmp_path, scenario), "--kmax", "4"]
        if command == "deform":
            argv += ["--lambda", "0.5"]
        if given == "flag":
            argv += [f"--{key}", "0.1"]
        else:
            (tmp_path / "run.cfg").write_text(f"{key} = 0.1\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        rc, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert rc == 1
        assert err.startswith("error:") and f"--{key}" in err and scenario in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (("spectrum", "--scenario", "ou", "--gamma", "2"), "gamma", 2.0),
            (("spectrum", "--scenario", "ou"), "gamma", 1.0),
            (("spectrum", "--scenario", "schwarzschild", "--temperature", "0.05"), "temperature", 0.05),
            (("spectrum", "--scenario", "schwarzschild"), "temperature", 1.0 / (4.0 * math.pi)),
            (("spectrum", "--scenario", "box"), None, None),
            (("spectrum", "--scenario", "csv"), None, None),
            (("blackhole", "--temperature", "0.06"), "temperature", 0.06),
        ],
        ids=["ou-gamma", "ou-default", "schwarzschild-temperature", "schwarzschild-default", "box", "csv", "blackhole"],
    )
    def test_report_lists_the_parameter_read(self, capsys, tmp_path, argv, key, value):
        argv = [self.scenario_value(tmp_path, a) for a in argv]
        rc, out, err = run_cli(capsys, *argv, "--kmax", "3", "--out", str(tmp_path))
        assert rc == 0, err
        config = json.loads(out)["config"]
        assert {"gamma", "temperature"} & set(config) == ({key} if key else set())
        if key:
            assert config[key] == value


class TestDeformCommand:
    def test_isospectrality_report(self, capsys, tmp_path):
        # OU's ground level is the zero mode of its W: the deformed drift is
        # W + dW, known on every node, and the reference is the original levels
        rc, out, _ = run_cli(
            capsys, "deform", "--lambda", "0.5,0.5", "--kmax", "5", "--out", str(tmp_path)
        )
        assert rc == 0
        report = json.loads(out)
        assert report["max_abs_eig_diff"] <= 5e-6
        assert report["isospectral"] is True
        assert np.max(np.abs(np.subtract(report["reference_eigenvalues"], report["original_eigenvalues"][:4]))) <= 1e-9
        cols = read_csv_columns(tmp_path / "deformed_drift.csv")
        assert np.all(cols["W"] != 0.0) and np.all(cols["D"] != 0.0)
        tails = np.abs(cols["x"]) >= 11.0  # beyond the floor of either ground state, D^ = D
        assert np.max(np.abs(cols["D"] + cols["x"])[tails]) <= 1e-9

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

    @pytest.mark.parametrize("scenario", ["box", "schwarzschild"])
    def test_wall_scenarios_are_isospectral(self, capsys, tmp_path, scenario):
        # a wall ground state is no zero mode of the scenario's W: the deformed
        # drift and the reference both read -ln|phi_0|, as they always did, so
        # the walls' -ln phi divergence cancels
        rc, out, err = run_cli(
            capsys, "deform", "--scenario", scenario, "--lambda", "0.5,0.5", "--out", str(tmp_path)
        )
        assert rc == 0, err
        report = json.loads(out)
        gap = np.max(np.abs(np.subtract(report["deformed_eigenvalues"], report["reference_eigenvalues"])))
        assert report["max_abs_eig_diff"] == gap <= 5e-3
        assert report["isospectral"] is True
        scene = cli._SCENARIOS[scenario]
        grid = make_grid(*scene.grid)
        spectrum = solve_spectrum(
            build_hamiltonian(scene.drift(grid, {"temperature": scene.default}).W), report["config"]["kmax"]
        )
        deformed = isospectral.reinstate(darboux.build_chain(spectrum, 2), IsoParams([0.5, 0.5]))
        route = ground_state_to_drift(deformed.state(0))
        cols = read_csv_columns(tmp_path / "deformed_drift.csv")
        assert cols["W"].tobytes() == route.W.values.tobytes() and cols["D"].tobytes() == route.D.values.tobytes()
        kcheck = spectrum.kmax - 2
        reference = solve_spectrum(build_hamiltonian(ground_state_to_drift(spectrum.state(0)).W), kcheck).energies
        assert report["reference_eigenvalues"] == list(reference)

    def test_non_isospectral_deformation_exits_two(self, capsys, tmp_path, monkeypatch):
        # swap the deformed drift for OU at gamma = 2, whose levels are 0, 2, 4, ...
        reinstate = cli.reinstate
        monkeypatch.setattr(
            cli,
            "reinstate",
            lambda chain, params: replace(reinstate(chain, params), drift=ou_scenario(chain.base.grid, 2.0)),
        )
        rc, out, _ = run_cli(capsys, "deform", "--lambda", "0.5", "--kmax", "4", "--out", str(tmp_path))
        assert rc == 2
        report = json.loads(out)
        assert report["isospectral"] is False and report["max_abs_eig_diff"] > 0.5

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

    @pytest.mark.parametrize("alpha", ["0", "1", "1.5", "nan"])
    def test_alpha_outside_range_fails_before_the_solve(self, capsys, tmp_path, monkeypatch, alpha):
        def solve_spectrum(*args, **kwargs):
            raise AssertionError("solved before checking alpha")

        monkeypatch.setattr(cli, "solve_spectrum", solve_spectrum)
        rc, _, err = run_cli(capsys, "evolve", "--alpha", alpha, "--out", str(tmp_path))
        assert rc == 1
        assert err.startswith("error:") and "alpha" in err

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

    @pytest.mark.parametrize("bounds", [("--zmin=-inf",), ("--zmin=nan",), ("--zmax=nan",), ("--zmax=-inf",)])
    def test_non_finite_bounds_rejected_by_name(self, capsys, tmp_path, bounds):
        rc, _, err = run_cli(capsys, "ml", *bounds, "--out", str(tmp_path))
        assert rc == 1
        assert err.startswith("error:") and "--zmin" in err and "--zmax" in err
        assert "relaxation rate" not in err and not (tmp_path / "mittag_leffler.csv").exists()

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

    def test_deformed_columns_follow_closed_form(self, capsys, tmp_path):
        # one parameter: D^ = D + 2 (ln|phi^_0/phi_0|)' = D - 2 phi_0^2 / (I_0 + lambda)
        # with I_0 = int_{r_min}^r phi_0^2, bounded up to the Dirichlet walls,
        # where only the ratio's stencil footprint (three nodes a side) is
        # masked and written as 0
        rc, _, _ = run_cli(capsys, "blackhole", "--lambda", "2.0", "--kmax", "5", "--out", str(tmp_path))
        assert rc == 0
        cols = read_csv_columns(tmp_path / "blackhole.csv")
        grid = make_grid(0.1, 3.0, 581)
        drift = schwarzschild_potential(1.0 / (4.0 * math.pi), grid)
        phi0 = solve_spectrum(build_hamiltonian(drift.W), 5).state(0)
        closed = drift.D - 2.0 * phi0 * phi0 * (1.0 / (cumulative_integral(phi0 * phi0) + 2.0))
        inner = slice(3, -3)
        assert np.all(cols["D_deformed"][[0, 1, 2, -3, -2, -1]] == 0.0)
        assert np.max(np.abs(cols["D_deformed"][inner] - closed.values[inner])) <= 1e-8
        # U^ = U - 2 ln|phi^_0/phi_0| stays within O(1) of U next to the walls
        assert np.ptp((cols["U_deformed"] - cols["U"])[1:-1]) < 1.0
        # D = -U' holds for the deformed pair as for the original one
        slope = derivative(GridFunction(grid, cols["U_deformed"])).values
        assert np.max(np.abs(slope + cols["D_deformed"])[5:-5]) <= 1e-8


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

    def test_steps_equal_to_kmax_runs(self, capsys, tmp_path):
        # build_chain owns the rule: all levels but the top one may go
        rc, out, err = run_cli(capsys, "darboux", "--steps", "3", "--kmax", "3", "--out", str(tmp_path))
        assert rc == 0, err
        assert list(json.loads(out)["stage_energies"]["3"]) == [0.0]
        assert list(read_csv_columns(tmp_path / "darboux_states.csv")) == ["x", "phi3_stage3"]


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

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a run\n\nkmax = 3  # levels\n   \n  # indented comment\ngamma = 2\n")
        assert cli._load_config_file(str(cfg)) == {"kmax": "3", "gamma": "2"}

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


class TestUsageErrors:
    """Inputs the CLI refuses: exit 1, an error line naming the input, and no artifact."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (("spectrum", "--config", "{tmp}/missing.cfg"), "missing.cfg"),
            (("spectrum", "--grid=-12:12"), "-12:12"),
            (("spectrum", "--grid=-12:x:2001"), "-12:x:2001"),
            (("evolve", "--times", "1,x"), "1,x"),
            (("evolve", "--times", "-1"), "--times"),
            (("spectrum", "--scenario", "csv:{tmp}/missing.csv"), "missing.csv"),
            (("evolve", "--ic", "gaussian:1"), "gaussian:1"),
            (("evolve", "--ic", "gaussian:0,0"), "gaussian:0,0"),
            (("evolve", "--ic", "csv:{tmp}/missing.csv"), "missing.csv"),
            (("evolve", "--ic", "csv:{tmp}/three.csv"), "three.csv"),
            (("ml", "--steps", "1"), "--steps"),
            (("deform", "--lambda", ""), "deformation parameter"),
            (("darboux", "--steps", "4", "--kmax", "3"), "cannot delete 4 levels"),
            (("deform", "--lambda", "0.5,"), "0.5,"),
            (("deform", "--lambda", ",0.5"), ",0.5"),
            (("evolve", "--times", "1,,2"), "1,,2"),
            (("spectrum", "--scenario", "csv:{tmp}/header.csv"), "header.csv: no data rows"),
            (("evolve", "--ic", "csv:{tmp}/header.csv"), "header.csv: no data rows"),
            (("spectrum", "--scenario", "csv:{tmp}/short.csv"), "stencil reads 5 nodes"),
            (("spectrum", "--grid=-inf:12:2001"), "grid [-inf, 12.0] needs finite ends"),
            (("spectrum", "--grid=-1e308:1e308:2001"), "grid [-1e+308, 1e+308] with 2001 nodes has spacing inf"),
            (("spectrum", "--scenario", "box", "--grid=0:inf:101"), "grid [0.0, inf] needs finite ends"),
            (("spectrum", "--gamma", "nan"), "gamma must be positive and finite, got nan"),
            (("spectrum", "--gamma", "inf"), "gamma must be positive and finite, got inf"),
            (("spectrum", "--scenario", "schwarzschild", "--temperature", "nan"), "temperature must be positive and finite"),
            (("blackhole", "--temperature", "inf"), "temperature must be positive and finite, got inf"),
            (("evolve", "--ic", "gaussian:nan,1"), "needs a finite mean, got nan"),
            (("evolve", "--ic", "gaussian:0,inf"), "needs a positive finite variance, got inf"),
            (("evolve", "--ic", "gaussian:1e308,1"), "gaussian IC 'gaussian:1e308,1' has no positive mass on the grid"),
            (("evolve", "--ic", "gaussian:40,0.5"), "gaussian IC 'gaussian:40,0.5' has no positive mass on the grid"),
        ],
        ids=[
            "config-unreadable", "grid-two-fields", "grid-not-a-number", "times-not-a-number",
            "times-negative", "csv-drift-missing", "ic-gaussian-one-field", "ic-gaussian-zero-variance",
            "ic-csv-missing", "ic-csv-three-columns", "ml-one-step", "lambda-empty", "darboux-steps-above-kmax",
            "lambda-trailing-empty-field", "lambda-leading-empty-field", "times-empty-field",
            "csv-drift-no-rows", "ic-csv-no-rows", "csv-drift-three-samples",
            "grid-infinite-end", "grid-infinite-spacing", "grid-box-infinite-end", "gamma-nan", "gamma-inf",
            "temperature-nan", "blackhole-temperature-inf", "ic-gaussian-nan-mean", "ic-gaussian-inf-variance",
            "ic-gaussian-far-off-grid", "ic-gaussian-no-mass-on-grid",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_exits_one_naming_the_input(self, capsys, tmp_path, argv, needle):
        np.savetxt(tmp_path / "three.csv", np.ones((5, 3)), delimiter=",")
        (tmp_path / "header.csv").write_text("x,D\n")
        np.savetxt(tmp_path / "short.csv", [[0.0, 0.0], [0.5, -0.5], [1.0, -1.0]], delimiter=",")
        argv = [a.format(tmp=tmp_path) for a in argv]
        rc, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert rc == 1
        assert err.startswith("error:") and needle in err
        assert not (tmp_path / "out").exists()


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


def _scaled_rates(monkeypatch):
    factors = evolve.TemporalRule.factors
    monkeypatch.setattr(
        evolve.TemporalRule, "factors", lambda self, energies, t: factors(self, 1.02 * np.asarray(energies), t)
    )


def _raised_order(monkeypatch):
    relaxation = evolve.ml_relaxation  # the fractional rule's factor; capped at the classical order 1
    monkeypatch.setattr(evolve, "ml_relaxation", lambda alpha, eps, t: relaxation(min(alpha + 0.02, 1.0), eps, t))


def _raised_stage_energies(monkeypatch):
    step = darboux.darboux_step

    def raised(chain):
        new = step(chain)
        stage = new.stage_states[-1]
        stage = replace(stage, energies=stage.energies + 0.01 * (np.arange(len(stage)) > 0))
        return replace(new, stage_states=new.stage_states[:-1] + (stage,))

    monkeypatch.setattr(darboux, "darboux_step", raised)


def _scaled_lambdas(monkeypatch):
    reinstate = isospectral.reinstate
    monkeypatch.setattr(
        cli, "reinstate", lambda chain, params: reinstate(chain, IsoParams([1.05 * v for v in params.lambdas]))
    )


def _scaled_drifts(monkeypatch):
    to_drift = darboux.ground_state_to_drift

    def scaled(phi0):
        drift = to_drift(phi0)
        return DriftSpec(W=1.01 * drift.W, D=1.01 * drift.D)

    monkeypatch.setattr(darboux, "ground_state_to_drift", scaled)
    monkeypatch.setattr(isospectral, "ground_state_to_drift", scaled)


def _uncorrected_levels(monkeypatch):
    # the levels skip the Numerov update: they stay at the refinement's starting shifts
    refine = spectral._numerov_eigenpairs
    monkeypatch.setattr(
        spectral, "_numerov_eigenpairs", lambda op, levels, states: (np.array(levels), refine(op, levels, states)[1])
    )


def _unpolished_states(monkeypatch):
    # the states stay at the refinement's unrefined starts
    refine = spectral._numerov_eigenpairs
    monkeypatch.setattr(
        spectral,
        "_numerov_eigenpairs",
        lambda op, levels, states: (refine(op, levels, states)[0], unit_states(GridFunction(op.grid, states))),
    )


@pytest.mark.parametrize(
    "inject, caught_by",
    [
        (_scaled_rates, "ou_spectral_vs_cn_t1"),
        (_raised_order, "half_order_density_vs_erfc_modes"),
        (_raised_stage_energies, "partner_spectral_vs_cn_t1"),
        (_scaled_lambdas, "deformed_ground_closed_form"),
        (_scaled_drifts, "darboux_shape_invariance"),
        (_uncorrected_levels, "ou_spectrum_vs_integers"),
        (_unpolished_states, "darboux_shape_invariance"),
    ],
    ids=[
        "rates-x1.02", "alpha+0.02", "stage-energies+0.01", "lambda-x1.05", "drift-x1.01", "uncorrected-levels",
        "unpolished-states",
    ],
)
def test_verify_fails_under_injected_defect(capsys, tmp_path, monkeypatch, inject, caught_by):
    """Each defect verify must catch, injected by monkeypatch: exit 2, naming the check that sees it.

    Without a defect verify exits 0 (``TestVerifyCommand``).
    """
    inject(monkeypatch)
    rc, out, _ = run_cli(capsys, "verify", "--out", str(tmp_path))
    assert rc == 2
    assert caught_by in [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]


def test_script_entry_runs_a_command_in_a_fresh_process(tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "isofokker.cli", "ml", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "ml"
    assert json.loads((tmp_path / "ml.json").read_text()) == report
    assert (tmp_path / "mittag_leffler.csv").exists()


def test_text_files_name_their_encoding(tmp_path):
    # a UTF-8 config with a non-ASCII comment, a csv: drift and a csv: IC,
    # then the ml table: every text file the package reads or writes, in a
    # process where a locale-dependent open by the package is an error
    xs = np.linspace(-8.0, 8.0, 801)
    np.savetxt(tmp_path / "drift.csv", np.column_stack([xs, -xs]), delimiter=",", header="x,D", comments="")
    np.savetxt(tmp_path / "ic.csv", np.column_stack([xs, np.exp(-((xs - 1.0) ** 2))]), delimiter=",")
    (tmp_path / "run.cfg").write_text("# ρ(x, t) of a shifted Gaussian\ntimes = 0.5,1\nkmax = 6\n", encoding="utf-8")
    code = (
        "import sys, warnings\n"
        "warnings.filterwarnings('error', category=EncodingWarning, module='isofokker')\n"
        "from isofokker.cli import main\n"
        "out = sys.argv[1]\n"
        "sys.exit(main(sys.argv[2:] + ['--out', out]) or main(['ml', '--out', out]))\n"
    )
    argv = ["evolve", "--config", str(tmp_path / "run.cfg")]
    argv += ["--scenario", f"csv:{tmp_path / 'drift.csv'}", "--ic", f"csv:{tmp_path / 'ic.csv'}"]
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-c", code, str(tmp_path / "out"), *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(read_csv_columns(tmp_path / "out" / "evolution.csv")) == ["x", "P_t0.5", "P_t1"]
    assert (tmp_path / "out" / "mittag_leffler.csv").exists()


def test_console_script_is_run(monkeypatch):
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^isofokker = "isofokker\.cli:run"$', scripts, re.MULTILINE)
    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda argv=None: calls.append("main") or 0)
    assert cli.run() == 0
    assert calls == ["freeze", "main"]


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
