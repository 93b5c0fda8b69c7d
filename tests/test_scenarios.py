import math
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

from isofokker.grid import (
    cumulative_integral,
    derivative,
    integrate,
    make_grid,
    sample,
    sup_diff,
    write_csv,
)
from isofokker.scenarios import (
    _hermite,
    box_scenario,
    custom_drift,
    hawking_temperature,
    ou_reference_state,
    ou_scenario,
    ou_transition,
    schwarzschild_potential,
)
from isofokker.spectral import build_hamiltonian, solve_spectrum


def drift_consistency(ds):
    resid = ds.D + 2.0 * derivative(ds.W)
    a, z = resid.support
    return np.max(np.abs(resid.values[a:z]))


class TestOuScenario:
    def test_unit_gamma_eigenvalues(self, ou_spectrum):
        assert np.max(np.abs(ou_spectrum.energies - np.arange(8))) < 1e-3

    def test_gamma_two_first_excited(self, ou_grid):
        spec = solve_spectrum(build_hamiltonian(ou_scenario(ou_grid, gamma=2.0).W), 2)
        assert spec.energies[1] == pytest.approx(2.0, abs=2e-3)

    def test_stationary_variance(self, ou_grid):
        for gamma in (1.0, 2.0):
            ds = ou_scenario(ou_grid, gamma=gamma)
            p = sample(ou_grid, lambda x: np.exp(-gamma * x**2 / 2.0))
            p = p / integrate(p)
            var = integrate(sample(ou_grid, lambda x: x**2) * p)
            assert var == pytest.approx(1.0 / gamma, abs=1e-9)
            assert drift_consistency(ds) < 1e-9

    def test_reference_states_match_solver(self, ou_grid, ou_spectrum):
        for k in (0, 1, 4, 7):
            ref = ou_reference_state(ou_grid, k)
            diff = min(
                sup_diff(ou_spectrum.state(k), ref),
                sup_diff(-1.0 * ou_spectrum.state(k), ref),
            )
            assert diff < 5e-4

    def test_hermite_recurrence_matches_power_series(self):
        y = np.linspace(-6.0, 6.0, 241)
        for k in range(12):
            ref = np.polynomial.hermite.hermval(y, [0.0] * k + [1.0])
            assert np.max(np.abs(_hermite(k, y) - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12, k

    def test_transition_closed_form(self):
        mean, var = ou_transition(2.0, 0.5, 0.5)
        assert mean == pytest.approx(2.0 * math.exp(-0.5))
        assert var == pytest.approx(1.0 + (0.5 - 1.0) * math.exp(-1.0))

    def test_negative_gamma_rejected(self, ou_grid):
        with pytest.raises(ValueError):
            ou_scenario(ou_grid, gamma=-1.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_gamma_rejected_by_name(self, ou_grid, gamma):
        with pytest.raises(ValueError, match=f"^gamma must be positive and finite, got {gamma}$"):
            ou_scenario(ou_grid, gamma=gamma)


class TestBoxScenario:
    def test_flat_potential(self):
        g = make_grid(0.0, 1.0, 101)
        ds = box_scenario(g)
        assert np.all(ds.W.values == 0.0)
        assert np.all(ds.D.values == 0.0)


class TestSchwarzschild:
    def test_closed_form_value(self):
        # U(1) = 1/2 - 1/4 at T = 1/(4 pi)
        g = make_grid(0.1, 3.0, 581)
        U = 2.0 * schwarzschild_potential(1.0 / (4.0 * math.pi), g).W
        i = int(round((1.0 - g.c1) / g.h))
        assert U.values[i] == pytest.approx(0.25, abs=1e-14)

    def test_equilibrium_at_hawking_temperature(self):
        # U' = 0 exactly where T_h(r) = T
        T = 0.05
        g = make_grid(0.1, 3.0, 2901)
        U = 2.0 * schwarzschild_potential(T, g).W
        r_eq = 1.0 / (4.0 * math.pi * T)
        i = int(round((r_eq - g.c1) / g.h))
        dU = derivative(U)
        assert abs(dU.values[i]) < 1e-3 * (abs(r_eq - g.x[i]) / g.h + 1.0)
        assert hawking_temperature(r_eq) == pytest.approx(T)

    def test_cumulative_reconstruction(self):
        # integrating (T_h - T) dS over r_h reproduces the closed form
        T = 1.0 / (4.0 * math.pi)
        g = make_grid(0.1, 3.0, 581)
        U = 2.0 * schwarzschild_potential(T, g).W
        integrand = sample(g, lambda r: (1.0 / (4.0 * math.pi * r) - T) * 2.0 * math.pi * r)
        rec = cumulative_integral(integrand) + float(U.values[0])
        assert sup_diff(rec, U) < 1e-6

    def test_drift_consistency(self):
        ds = schwarzschild_potential(0.03, make_grid(0.2, 2.0, 901))
        assert drift_consistency(ds) < 1e-9

    def test_concavity_makes_potential_non_confining(self):
        # U'' = -2 pi T < 0 for every T; the drift potential bends down
        U = 2.0 * schwarzschild_potential(0.1, make_grid(0.1, 3.0, 581)).W
        d2 = derivative(derivative(U))
        assert np.all(d2.values < 0.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            schwarzschild_potential(-1.0, make_grid(0.1, 3.0, 581))
        with pytest.raises(ValueError):
            schwarzschild_potential(0.1, make_grid(-0.5, 3.0, 581))

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_temperature_rejected_by_name(self, T):
        with pytest.raises(ValueError, match=f"^ensemble temperature must be positive and finite, got {T}$"):
            schwarzschild_potential(T, make_grid(0.1, 3.0, 581))


class TestCustomDrift:
    def test_roundtrip_matches_ou(self, tmp_path, ou_grid):
        path = tmp_path / "drift.csv"
        with open(path, "w") as fh:
            for x in ou_grid.x:
                fh.write(f"{x:.17g},{-x:.17g}\n")
        ds = custom_drift(path)
        ref = ou_scenario(ou_grid)
        assert sup_diff(ds.D, ref.D) < 1e-12
        # prepotential recovered up to its additive constant
        got = ds.W + (-float(ds.W.values[0]))
        want = ref.W + (-float(ref.W.values[0]))
        assert sup_diff(got, want) < 1e-8

    def test_quartic_roundtrip(self, tmp_path):
        g = make_grid(-2.0, 2.0, 801)
        path = tmp_path / "quartic.csv"
        write_csv(path, {"D": sample(g, lambda x: -4.0 * x**3)})
        ds = custom_drift(path)
        ref = sample(g, lambda x: x**4 / 2.0 - g.c1**4 / 2.0)
        assert sup_diff(ds.W, ref + (-float(ref.values[0]))) < 1e-7

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n0.5,nan\n1.0,1.0\n")
        with pytest.raises(ValueError, match="finite"):
            custom_drift(path)

    @pytest.mark.parametrize(
        "text, match",
        [("0,1,2\n1,2,3\n2,3,4\n", "expected two columns"), ("0,1\n1,2\n", "at least 3 samples")],
    )
    def test_wrong_shape_rejected(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            custom_drift(path)

    def test_non_uniform_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n0.4,1.0\n1.0,1.0\n")
        with pytest.raises(ValueError, match="uniform"):
            custom_drift(path)

    def test_drift_consistency(self, tmp_path):
        g = make_grid(-3.0, 3.0, 1201)
        path = tmp_path / "tanh.csv"
        write_csv(path, {"D": sample(g, lambda x: -np.tanh(x))})
        assert drift_consistency(custom_drift(path)) < 1e-6


def test_import_does_not_load_scipy_special():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, isofokker, isofokker.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def _fresh_python(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports the package from this checkout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_import_does_not_load_scipy_linalg():
    assert _fresh_python("import sys, isofokker, isofokker.cli; print('scipy.linalg' in sys.modules)") == "False"


_LAPACK_IDENTITY = """
from scipy.linalg import lapack
from isofokker import build_hamiltonian, make_grid, ou_scenario, solve_spectrum
called = [(spectral, "dstebz"), (spectral, "dstein"), (oracle, "dgttrf"), (oracle, "dgttrs")]
assert all(getattr(module, name) is getattr(lapack, name) for module, name in called)
print(solve_spectrum(build_hamiltonian(ou_scenario(make_grid(-8.0, 8.0, 201)).W), 3).energies.tolist())
"""


@pytest.mark.parametrize(
    "imports",
    [
        "import scipy.linalg\nimport isofokker.oracle as oracle, isofokker.spectral as spectral",
        "import sys, isofokker.oracle as oracle, isofokker.spectral as spectral\n"
        "assert 'scipy.linalg' not in sys.modules\nimport scipy.linalg",
    ],
    ids=["scipy-linalg-first", "isofokker-first"],
)
def test_lapack_routines_are_scipys_in_either_import_order(imports):
    energies = solve_spectrum(build_hamiltonian(ou_scenario(make_grid(-8.0, 8.0, 201)).W), 3).energies
    assert _fresh_python(imports + _LAPACK_IDENTITY) == str(energies.tolist())


def test_lapack_loader_names_the_wrapper_it_did_not_find(monkeypatch, tmp_path):
    import isofokker._lapack as lapack

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(lapack, "scipy", types.SimpleNamespace(__path__=[str(tmp_path)]))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg" / "_flapack"))):
        lapack._load()
