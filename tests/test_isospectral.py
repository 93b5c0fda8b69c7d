import math
import random

import numpy as np
import pytest

from isofokker.darboux import build_chain
from isofokker.evolve import TemporalRule, project
from isofokker.grid import cumulative_integral, integrate, make_grid, sample, sup_diff
from isofokker import isospectral
from isofokker.isospectral import IsoParams, iso_pdf, reinstate
from isofokker.oracle import CnConfig, cn_evolve
from isofokker.scenarios import ou_scenario
from isofokker.spectral import (
    build_hamiltonian,
    ground_state_to_drift,
    solve_spectrum,
    unit_states,
)

from conftest import reinstate_reference


@pytest.fixture(scope="module")
def ou_chain2(ou_spectrum):
    return build_chain(ou_spectrum, 2)


@pytest.fixture(scope="module")
def defo_half(ou_chain2):
    """Single-parameter deformation at lambda = 0.5."""
    return reinstate(ou_chain2, IsoParams([0.5]))


@pytest.fixture(scope="module")
def defo_pair(ou_chain2):
    """Two-parameter deformation at lambda = (0.5, 0.5)."""
    return reinstate(ou_chain2, IsoParams([0.5, 0.5]))


class TestVirtualState:
    """For one parameter the reinstated ground state is the reciprocal virtual state phi0/(I_0 + lambda)."""

    def test_running_integral_reaches_one(self, ou_spectrum):
        # K_00(c2), against which admissibility is checked
        phi0 = ou_spectrum.state(0)
        assert cumulative_integral(phi0 * phi0).values[-1] == pytest.approx(1.0, abs=1e-9)

    def test_symmetry_at_origin(self, defo_half, ou_spectrum, ou_grid):
        # I0(0) = 1/2 for the even stationary density, so at lambda = 1/2
        # the unnormalized phi0/(I0 + lambda) equals phi0 at the origin
        phi0 = ou_spectrum.state(0)
        I0 = cumulative_integral(phi0 * phi0)
        mid = ou_grid.n_points // 2
        assert I0.values[mid] == pytest.approx(0.5, abs=1e-10)
        norm = np.sqrt(integrate(phi0 * phi0 * (1.0 / ((I0 + 0.5) * (I0 + 0.5)))))
        assert defo_half.states[0].values[mid] * norm == pytest.approx(phi0.values[mid], abs=1e-9)

    def test_large_lambda_limit(self, ou_chain2, ou_spectrum):
        # phi0/(I0 + lambda) -> phi0/lambda, so the reinstated ground state is the undeformed one
        defo = reinstate(ou_chain2, IsoParams([1e6]))
        assert sup_diff(defo.states[0], ou_spectrum.state(0)) < 2e-6

    @pytest.mark.parametrize("lam", [0.0, -1.0, -0.5, -1e-9])
    def test_excluded_interval_rejected(self, ou_chain2, lam):
        with pytest.raises(ValueError, match="excluded interval"):
            reinstate(ou_chain2, IsoParams([lam]))

    @pytest.mark.parametrize("lam", [0.5, 1e6, -1.0001, -2.0])
    def test_admissible_values_accepted(self, ou_chain2, lam):
        defo = reinstate(ou_chain2, IsoParams([lam]))
        assert np.all(np.isfinite(defo.states[0].values))
        assert np.all(np.isfinite(defo.drift.D.values))


class TestIsoParams:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, bad):
        # nan used to surface as a numpy warning and a misleading det M sign change,
        # +-inf as a zero norm
        with pytest.raises(ValueError, match=r"lambda_1 = -?(nan|inf) is not finite"):
            IsoParams([0.5, bad])


class TestReinstate:
    def test_single_parameter_ground_state_closed_form(self, defo_half, ou_spectrum):
        # phi^_0 = phi0 / (I0 + lambda) up to normalization
        phi0 = ou_spectrum.state(0)
        I0 = cumulative_integral(phi0 * phi0)
        ref = unit_states(phi0 * (1.0 / (I0 + 0.5)))
        assert sup_diff(defo_half.states[0], ref) < 1e-10

    def test_single_parameter_excited_states_orthonormal(self, defo_half):
        states = defo_half.states
        worst = max(
            abs(integrate(states[j] * states[k]) - (j == k))
            for j in range(len(states))
            for k in range(len(states))
        )
        assert worst < 1e-3  # second-order eigenvector floor at N=2001

    def test_two_parameter_isospectral_on_resolve(self, defo_pair, ou_spectrum):
        resolved = solve_spectrum(build_hamiltonian(defo_pair.drift.W), 5)
        assert np.max(np.abs(resolved.energies - np.arange(6))) <= 5e-3

    def test_deformed_basis_orthonormality_fine_grid(self):
        # the invariant tolerance needs the O(h^2) eigenvector floor below it
        g = make_grid(-12.0, 12.0, 4001)
        spec = solve_spectrum(build_hamiltonian(ou_scenario(g).W), 7)
        defo = reinstate(build_chain(spec, 2), IsoParams([0.5, 0.5]))
        worst = max(
            abs(integrate(defo.states[j] * defo.states[k]) - (j == k))
            for j in range(8)
            for k in range(8)
        )
        assert worst <= 1e-4

    def test_too_many_parameters_rejected(self, ou_chain2):
        with pytest.raises(ValueError, match="parameters"):
            reinstate(ou_chain2, IsoParams([0.5, 0.5, 0.5]))

    def test_inadmissible_parameter_rejected(self, ou_chain2):
        with pytest.raises(ValueError, match="excluded interval"):
            reinstate(ou_chain2, IsoParams([0.5, -0.25]))


class TestGramRoute:
    """The closed form against the chained reverse-Darboux operators it replaces."""

    @pytest.mark.parametrize(
        "lambdas", [(0.5,), (-1.3,), (1e3,), (0.5, 0.5), (0.8, 1.5), (-1.0001, 0.001), (-2.0, 0.3)]
    )
    def test_states_match_chained_route(self, ou_chain2, lambdas):
        defo = reinstate(ou_chain2, IsoParams(lambdas))
        ref = reinstate_reference(ou_chain2, lambdas)
        assert len(ref) == len(defo.states)
        for chained, gram in zip(ref, defo.states):
            assert 1.0 - abs(integrate(chained * gram)) <= 1e-7

    @pytest.mark.parametrize("lam", [0.5, -1.3, 1e3])
    def test_single_parameter_drift_matches_chained_route(self, ou_chain2, lam):
        defo = reinstate(ou_chain2, IsoParams([lam]))
        ref = ground_state_to_drift(reinstate_reference(ou_chain2, [lam])[0])
        assert sup_diff(defo.drift.D, ref.D, window=(-8, 8)) <= 1e-12

    def test_sign_change_of_det_rejected(self, ou_chain2, monkeypatch):
        # past the input check, a parameter inside [-1, 0] makes M(x) singular mid-grid
        monkeypatch.setattr(isospectral, "_check_admissible", lambda lam, i_end, s: None)
        with pytest.raises(ValueError, match="det M"):
            reinstate(ou_chain2, IsoParams([0.5, -0.5]))


def _seeded_lambdas(rng: random.Random, n: int) -> list[float]:
    """Admissible parameters of either sign, offset from [-1, 0] log-uniformly in [0.02, 20]."""
    offsets = [10 ** rng.uniform(math.log10(0.02), math.log10(20.0)) for _ in range(n)]
    return [d if rng.random() < 0.5 else -1.0 - d for d in offsets]


_NEAR_BOUNDARY = {2: (-1.0001, 0.001), 3: (0.001, -1.0005, 0.3), 4: (-1.0002, 0.0008, 5.0, -3.0)}


@pytest.fixture(scope="module")
def fine_ou():
    g = make_grid(-12.0, 12.0, 4001)
    return solve_spectrum(build_hamiltonian(ou_scenario(g).W), 7)


class TestFineGridResolve:
    """Deep reinstatement under grid refinement: re-solved spectra within the h^2-scaled bound."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_resolved_spectrum_at_4001_nodes(self, fine_ou, n):
        rng = random.Random(f"fine-resolve-{n}")
        vectors = [_seeded_lambdas(rng, n) for _ in range(3)] + [_NEAR_BOUNDARY[n]]
        assert any(min(v) < -1.0 and max(v) > 0.0 for v in vectors)  # mixed signs among them
        chain = build_chain(fine_ou, n)
        bound = 5e-3 * (2000 / 4000) ** 2  # 5e-3 at 2001 nodes, scaled by (h / h_2001)^2
        for lambdas in vectors:
            defo = reinstate(chain, IsoParams(lambdas))
            resolved = solve_spectrum(build_hamiltonian(defo.drift.W), 5)
            assert np.max(np.abs(resolved.energies - fine_ou.energies[:6])) <= bound, lambdas


class TestDeformedDrift:
    def test_closed_form_single_parameter(self, defo_half, ou_spectrum):
        # D^ = D - 2 phi0^2 / (I0 + lambda), I0 by quadrature oracle
        phi0 = ou_spectrum.state(0)
        I0 = cumulative_integral(phi0 * phi0)
        base = ground_state_to_drift(phi0)
        closed = base.D - 2.0 * phi0 * phi0 * (1.0 / (I0 + 0.5))
        got = defo_half.drift.D
        assert sup_diff(got, closed, window=(-8, 8)) < 1e-4

    def test_large_lambda_recovers_original(self, ou_chain2, ou_grid):
        ref = sample(ou_grid, lambda x: -x)
        d_million = reinstate(ou_chain2, IsoParams([1e6]))
        d_thousand = reinstate(ou_chain2, IsoParams([1e3]))
        r_million = sup_diff(d_million.drift.D, ref, window=(-8, 8))
        r_thousand = sup_diff(d_thousand.drift.D, ref, window=(-8, 8))
        assert r_million <= 1e-3
        assert r_thousand > r_million  # monotone approach

    def test_deformation_breaks_parity(self, defo_half):
        # the original drift is odd; the deformed one is not
        D = defo_half.drift.D
        a, z = D.support
        keep = slice(max(a, len(D.values) - z), min(z, len(D.values) - a))  # where D and its mirror image are
        asym = np.abs(D.values + D.values[::-1])
        assert np.max(asym[keep]) > 0.1


class TestIsoPdf:
    def test_ground_mode_is_stationary(self, defo_half):
        for t in (0.0, 1.0, 7.3):
            p = iso_pdf(defo_half, [1.0], t)
            stationary = defo_half.states[0] * defo_half.states[0]
            assert sup_diff(p, stationary / integrate(stationary)) < 1e-12

    def test_late_time_limit(self, defo_half, ou_spectrum, gaussian_ic):
        coeffs = project(gaussian_ic, ou_spectrum)
        stationary = defo_half.states[0] * defo_half.states[0]
        stationary = stationary / integrate(stationary)
        assert sup_diff(iso_pdf(defo_half, coeffs, 30.0), stationary) < 1e-10

    def test_matches_crank_nicolson(self, defo_half, ou_spectrum, gaussian_ic):
        coeffs = project(gaussian_ic, ou_spectrum)
        p0 = iso_pdf(defo_half, coeffs, 0.0)
        p1 = iso_pdf(defo_half, coeffs, 1.0)
        cn = cn_evolve(defo_half.drift, p0, CnConfig(dt=1e-3, t_end=1.0))
        assert sup_diff(p1, cn) <= 5e-3

    def test_fractional_rule_accepted(self, defo_half, ou_spectrum, gaussian_ic):
        coeffs = project(gaussian_ic, ou_spectrum)
        p = iso_pdf(defo_half, coeffs, 1.0, temporal=TemporalRule.fractional(0.5))
        assert integrate(p) == pytest.approx(1.0, abs=1e-9)
        assert np.min(p.values) > -1e-6

    def test_mismatched_coefficients_rejected(self, defo_half):
        with pytest.raises(ValueError, match="coefficients"):
            iso_pdf(defo_half, np.ones(9), 0.0)


@pytest.fixture(scope="module")
def double_well():
    # W = x^2/4 - ln cosh x gives the bistable drift D = -x + 2 tanh x,
    # whose lowest two levels are a near-degenerate tunneling pair
    from isofokker.spectral import DriftSpec

    g = make_grid(-12.0, 12.0, 2001)
    W = sample(g, lambda x: x**2 / 4.0 - np.log(np.cosh(x)))
    drift = DriftSpec(W=W, D=sample(g, lambda x: -x + 2.0 * np.tanh(x)))
    return drift, solve_spectrum(build_hamiltonian(W), 6)


class TestNonSymmetricScenario:
    """The construction must not lean on the linear drift's shape invariance."""

    def test_conservative_ground_level(self, double_well):
        _, spec = double_well
        assert spec.energies[0] == 0.0
        assert spec.energies[1] < 0.2  # tunneling splitting, well below the next gap

    def test_two_parameter_isospectrality(self, double_well):
        _, spec = double_well
        chain = build_chain(spec, 2)
        defo = reinstate(chain, IsoParams([0.8, 1.5]))
        resolved = solve_spectrum(build_hamiltonian(defo.drift.W), 4)
        assert np.max(np.abs(resolved.energies - spec.energies[:5])) <= 5e-3

    def test_negative_admissible_branch(self, double_well):
        # lambda < -1 flips the sign of the virtual state; the reciprocal
        # ground state stays node-free and the spectrum stays put
        _, spec = double_well
        chain = build_chain(spec, 2)
        defo = reinstate(chain, IsoParams([-1.3]))
        resolved = solve_spectrum(build_hamiltonian(defo.drift.W), 4)
        assert np.max(np.abs(resolved.energies - spec.energies[:5])) <= 5e-3


class TestLambdaRecoveryOfStates:
    def test_states_converge_to_originals(self, ou_chain2, ou_spectrum):
        # sup distance of deformed states to originals decreases 1e3 -> 1e6
        for k in (0, 2, 5):
            dists = []
            for lam in (1e3, 1e6):
                defo = reinstate(ou_chain2, IsoParams([lam]))
                dists.append(sup_diff(defo.states[k], ou_spectrum.state(k)))
            assert dists[1] < dists[0]
