import math

import numpy as np
import pytest

from isofokker.darboux import build_chain, partner_pdf
from isofokker.evolve import (
    FpeSolution,
    TemporalRule,
    evolve_pdf,
    moments,
    project,
    truncation_residual,
)
from isofokker.grid import integrate, make_grid, sample, simpson_weights, sup_diff
from isofokker.isospectral import IsoParams, iso_pdf, reinstate
from isofokker.mittag import ml_relaxation
from isofokker.scenarios import ou_transition
from isofokker.spectral import Spectrum, build_hamiltonian, solve_spectrum

from conftest import outside, span


@pytest.fixture(scope="module")
def gaussian_coeffs(gaussian_ic, ou_spectrum):
    return project(gaussian_ic, ou_spectrum)


@pytest.fixture(scope="module")
def classical_sol(ou_spectrum, gaussian_coeffs):
    return FpeSolution(ou_spectrum, gaussian_coeffs, TemporalRule.classical())


class TestTemporalRule:
    def test_classical_takes_no_alpha(self):
        # the one field: None is the classical rule
        assert TemporalRule.classical().alpha is None
        assert TemporalRule() == TemporalRule(alpha=None) == TemporalRule.classical()
        assert TemporalRule(alpha=0.5) == TemporalRule.fractional(0.5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.3])
    def test_fractional_alpha_range(self, alpha):
        with pytest.raises(ValueError):
            TemporalRule.fractional(alpha)

    def test_fractional_needs_an_alpha(self):
        # None is the classical rule's alpha, not a fractional order
        with pytest.raises(TypeError):
            TemporalRule.fractional(None)

    def test_fractional_factor_value(self):
        # E_{1/2}(-1) through the relaxation rule
        rule = TemporalRule.fractional(0.5)
        from scipy.special import erfc

        assert rule.factors([1.0], 1.0)[0] == pytest.approx(math.e * erfc(1.0), abs=1e-10)

    def test_zero_energy_never_decays(self):
        rule = TemporalRule.fractional(0.3)
        for t in (0.0, 1.0, 1e3):
            assert rule.factors([0.0], t)[0] == 1.0

    @pytest.mark.parametrize(
        "rule", [TemporalRule.classical(), TemporalRule.fractional(0.3), TemporalRule.fractional(0.75)]
    )
    def test_factors_match_per_mode_factor(self, rule):
        energies = np.array([0.0, 0.5, 1.0, 2.0, 7.0, 40.0])
        for t in (0.0, 0.01, 1.0, 25.0):
            if rule.alpha is None:
                per_mode = [math.exp(-e * t) for e in energies]
            else:
                per_mode = [ml_relaxation(rule.alpha, float(e), t) for e in energies]
            assert np.max(np.abs(rule.factors(energies, t) - per_mode)) <= 1e-14

    def test_factors_snap_numerical_zero_modes(self):
        rule = TemporalRule.fractional(0.5)
        for t in (0.0, 0.5, 1e2, 1e4):
            tau = rule.factors([0.0, -5e-9, -1e-12, 1.0], t)
            assert np.all(tau[:3] == 1.0)
        with pytest.raises(ValueError, match="negative relaxation rate"):
            rule.factors([0.0, -2e-8, 1.0], 1.0)

    def test_classical_factors_share_the_rate_check(self):
        rule = TemporalRule.classical()
        for t in (0.0, 0.5, 1e2, 1e4):
            tau = rule.factors([0.0, -5e-9, -1e-12, 1.0], t)
            assert np.all(tau[:3] == 1.0) and abs(tau[3] - math.exp(-t)) <= 1e-15
        with pytest.raises(ValueError, match="negative relaxation rate"):
            rule.factors([0.0, -2e-8, 1.0], 1.0)

    @pytest.mark.parametrize("rule", [TemporalRule.classical(), TemporalRule.fractional(0.5)])
    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rule, rate):
        with pytest.raises(ValueError, match="relaxation rate must be finite"):
            rule.factors([0.0, rate, 1.0], 1.0)

    @pytest.mark.parametrize("rule", [TemporalRule.classical(), TemporalRule.fractional(0.5)])
    def test_empty_rates(self, rule):
        assert rule.factors([], 1.0).shape == (0,)

    @pytest.mark.parametrize("t", [math.inf, -1.0])
    def test_classical_rejects_bad_time(self, t):
        # 0 * inf would make the zero mode NaN; a negative t would grow every mode
        rule = TemporalRule.classical()
        with pytest.raises(ValueError, match="time"):
            rule.factors([0.0, 1.0], t)


class TestProject:
    def test_stationary_projects_to_unit_vector(self, ou_spectrum):
        p = ou_spectrum.state(0) * ou_spectrum.state(0)
        c = project(p, ou_spectrum)
        assert c[0] == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(c[1:])) < 1e-7

    def test_two_mode_density(self, ou_spectrum):
        # P0 = phi0 (phi0 + phi2) is non-negative and has unit mass
        p = ou_spectrum.state(0) * (ou_spectrum.state(0) + ou_spectrum.state(2))
        assert integrate(p) == pytest.approx(1.0, abs=1e-8)
        c = project(p, ou_spectrum)
        assert c[0] == pytest.approx(1.0, abs=1e-7)
        assert abs(c[1]) < 1e-7
        assert c[2] == pytest.approx(1.0, abs=1e-7)

    def test_gaussian_against_highres_quadrature(self, ou_grid, ou_spectrum, gaussian_coeffs):
        # independent oracle: same integrand on a 4x finer grid with
        # analytic states
        from isofokker.scenarios import ou_reference_state

        fine = make_grid(-12.0, 12.0, 8001)
        p_fine = sample(fine, lambda x: np.exp(-((x - 2.0) ** 2)) / math.sqrt(math.pi))
        w = simpson_weights(fine)
        phi0 = ou_reference_state(fine, 0)
        ratio = p_fine.values / phi0.values
        for k in range(8):
            ref = float(w @ (ou_reference_state(fine, k).values * ratio))
            # solved states differ from the analytic ones at O(h^4): 2.7e-9
            # measured (7.8e-5 from the 3-point matrix's own vectors)
            assert gaussian_coeffs[k] == pytest.approx(ref, abs=1e-8)

    def test_heavier_tails_rejected(self, ou_grid, ou_spectrum):
        # variance 4 > stationary variance: phi0^{-1} P0 blows up
        p = sample(ou_grid, lambda x: np.exp(-(x**2) / 8.0) / math.sqrt(8.0 * math.pi))
        with pytest.raises(ValueError, match="tails"):
            project(p, ou_spectrum)

    def test_non_unit_mass_rejected(self, ou_grid, ou_spectrum):
        p = sample(ou_grid, lambda x: np.exp(-(x**2)))
        with pytest.raises(ValueError, match="mass"):
            project(p, ou_spectrum)

    def test_negative_density_rejected(self, ou_grid, ou_spectrum):
        p = sample(ou_grid, lambda x: np.sin(x) * np.exp(-(x**2)))
        with pytest.raises(ValueError, match="negative"):
            project(p, ou_spectrum)

    def test_missing_zero_mode_rejected(self):
        # absorbing walls push the lowest level above zero; the stationary
        # expansion does not apply and is diagnosed rather than mis-solved
        from isofokker.scenarios import box_scenario

        g = make_grid(0.0, 1.0, 801)
        spec = solve_spectrum(build_hamiltonian(box_scenario(g).W), 3)
        p = sample(g, lambda x: np.full_like(x, 1.0))
        with pytest.raises(ValueError, match="zero mode"):
            project(p, spec)


class TestEvolvePdf:
    def test_time_zero_reproduces_truncated_density(self, classical_sol, gaussian_ic):
        p0 = evolve_pdf(classical_sol, 0.0)
        # truncated expansion reproduces the density up to truncation error
        resid = truncation_residual(classical_sol, gaussian_ic)
        assert sup_diff(p0, gaussian_ic) < 2.0 * max(resid, 1e-12)

    def test_relaxes_to_stationary(self, classical_sol, ou_spectrum):
        stationary = ou_spectrum.state(0) * ou_spectrum.state(0)
        assert sup_diff(evolve_pdf(classical_sol, 30.0), stationary) < 1e-10

    def test_fractional_temporal_factor(self):
        # alpha = 0.5, eps = 1, t = 1: factor is E_{1/2}(-1) ~ 0.4275836
        rule = TemporalRule.fractional(0.5)
        assert rule.factors([1.0], 1.0)[0] == pytest.approx(0.4275835761558070, abs=1e-9)

    def test_mass_conservation_both_rules(self, ou_spectrum, gaussian_coeffs):
        for rule in (TemporalRule.classical(), TemporalRule.fractional(0.5)):
            sol = FpeSolution(ou_spectrum, gaussian_coeffs, rule)
            for t in (0.0, 0.25, 1.0, 10.0):
                mass = integrate(evolve_pdf(sol, t))
                assert abs(mass - gaussian_coeffs[0]) <= 1e-6

    def test_monotone_relaxation(self, ou_grid, ou_spectrum):
        p = sample(ou_grid, lambda x: np.exp(-((x - 1.0) ** 2) / 1.4) / math.sqrt(1.4 * math.pi))
        sol = FpeSolution(ou_spectrum, project(p, ou_spectrum), TemporalRule.classical())
        stationary = ou_spectrum.state(0) * ou_spectrum.state(0)
        dists = [sup_diff(evolve_pdf(sol, t), stationary) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(dists, dists[1:]))

    def test_positivity_up_to_truncation_undershoot(self, ou_grid, ou_spectrum, classical_sol):
        # a density the 8-mode basis resolves stays non-negative at all times
        p = sample(ou_grid, lambda x: np.exp(-((x - 0.5) ** 2) / 1.6) / math.sqrt(1.6 * math.pi))
        sol = FpeSolution(ou_spectrum, project(p, ou_spectrum), TemporalRule.classical())
        for t in (0.0, 0.25, 1.0, 3.0):
            assert np.min(evolve_pdf(sol, t).values) >= -1e-6
        # the strongly displaced gaussian is only clean once its truncated
        # high modes have decayed
        for t in (1.0, 3.0):
            assert np.min(evolve_pdf(classical_sol, t).values) >= -1e-6

    def test_alpha_to_one_matches_classical(self, ou_spectrum, gaussian_coeffs, classical_sol):
        frac = FpeSolution(ou_spectrum, gaussian_coeffs, TemporalRule.fractional(0.999))
        assert sup_diff(evolve_pdf(frac, 1.0), evolve_pdf(classical_sol, 1.0)) <= 5e-3

    def test_negative_time_rejected(self, classical_sol):
        with pytest.raises(ValueError):
            evolve_pdf(classical_sol, -0.1)

    @pytest.mark.parametrize("rule", [TemporalRule.classical(), TemporalRule.fractional(0.5)])
    def test_negative_level_rejected(self, ou_spectrum, gaussian_coeffs, rule):
        # a level far below zero is no numerical zero mode: it would grow, not relax
        energies = ou_spectrum.energies.copy()
        energies[1] = -1e-3
        spectrum = Spectrum(ou_spectrum.grid, ou_spectrum.values, ou_spectrum.support, energies=energies)
        with pytest.raises(ValueError, match="negative relaxation rate"):
            evolve_pdf(FpeSolution(spectrum, gaussian_coeffs, rule), 1.0)

    def test_coefficient_count_guard(self, ou_spectrum):
        with pytest.raises(ValueError, match="9 coefficients for 8 states"):
            evolve_pdf(FpeSolution(ou_spectrum, np.ones(9), TemporalRule.classical()), 1.0)


@pytest.fixture(scope="module")
def defo_pair(ou_spectrum):
    """Two-parameter deformation at lambda = (0.5, 0.5); its states span the whole grid."""
    return reinstate(build_chain(ou_spectrum, 2), IsoParams([0.5, 0.5]))


def _mode_sum_density(states, coeffs, factors):
    """Unit-mass phi_0 sum_k c_k tau_k phi_k, mode by mode, and its support.

    The support is the intersection of the ground state's and those of the
    states with c_k != 0.
    """
    used = [k for k, c in enumerate(coeffs) if c != 0.0]
    mask = outside(states[0])
    for k in used:
        mask = mask | outside(states[k])
    total = sum(coeffs[k] * factors[k] * states[k].values for k in used)
    raw = np.where(mask, 0.0, states[0].values * total)
    return raw / (simpson_weights(states[0].grid) @ raw), span(mask)


class TestExpansionKernel:
    @pytest.mark.parametrize("rule", [TemporalRule.classical(), TemporalRule.fractional(0.6)])
    def test_partner_pdf_matches_mode_sum(self, ou_chain3, gaussian_coeffs, rule):
        n = ou_chain3.n_steps
        factors = rule.factors(ou_chain3.stage_states[n].energies, 0.7)
        ref, support = _mode_sum_density(ou_chain3.stage_states[n].states, gaussian_coeffs[n:], factors)
        p = partner_pdf(ou_chain3, gaussian_coeffs, 0.7, rule)
        assert support != (0, p.grid.n_points)
        assert p.support == support
        assert np.max(np.abs(p.values - ref)) <= 1e-14

    @pytest.mark.parametrize("rule", [TemporalRule.classical(), TemporalRule.fractional(0.6)])
    def test_iso_pdf_matches_mode_sum(self, defo_pair, gaussian_coeffs, rule):
        self._check_iso_pdf(defo_pair, gaussian_coeffs, rule)

    @pytest.mark.parametrize("rule", [TemporalRule.classical(), TemporalRule.fractional(0.6)])
    def test_iso_pdf_matches_mode_sum_with_zeroed_modes(self, defo_pair, gaussian_coeffs, rule):
        coeffs = gaussian_coeffs.copy()
        coeffs[[1, 4]] = 0.0
        self._check_iso_pdf(defo_pair, coeffs, rule)

    @staticmethod
    def _check_iso_pdf(defo_pair, coeffs, rule):
        factors = rule.factors(defo_pair.energies, 0.7)
        ref, support = _mode_sum_density(defo_pair.states, coeffs, factors)
        p = iso_pdf(defo_pair, coeffs, 0.7, rule)
        assert p.support == support
        assert np.max(np.abs(p.values - ref)) <= 1e-14

    def test_bases_hold_their_states_once(self, ou_chain3, defo_pair):
        partner = ou_chain3.stage_states[ou_chain3.n_steps]
        a, z = partner.support
        assert (a, z) != (0, partner.grid.n_points) and not partner.values.flags.writeable
        assert np.all(partner.values[:, :a] == 0.0) and np.all(partner.values[:, z:] == 0.0)
        for f, row in zip(partner.states, partner.values):
            assert np.array_equal(f.values, row) and f.support == partner.support
        assert defo_pair.support == (0, defo_pair.grid.n_points) and not defo_pair.values.flags.writeable
        assert np.array_equal(defo_pair.values, [f.values for f in defo_pair.states])

    def test_near_zero_mass_rejected(self, ou_chain3, defo_pair):
        # phi_4 alone is orthogonal to the stage-3 ground state
        with pytest.raises(ValueError, match="zero total mass"):
            partner_pdf(ou_chain3, [0.0, 0.0, 0.0, 0.0, 1.0], 1.0)
        with pytest.raises(ValueError, match="zero total mass"):
            iso_pdf(defo_pair, np.zeros(8), 1.0)

    def test_evolve_pdf_does_not_renormalize(self, ou_spectrum):
        sol = FpeSolution(ou_spectrum, [0.5, 0.3], TemporalRule.classical())
        p = evolve_pdf(sol, 1.0)
        assert integrate(p) == pytest.approx(0.5, abs=1e-9)
        phi0, phi1 = ou_spectrum.state(0).values, ou_spectrum.state(1).values
        ref = phi0 * (0.5 * phi0 + 0.3 * math.exp(-ou_spectrum.energies[1]) * phi1)
        assert np.max(np.abs(p.values - ref)) <= 1e-14

    @pytest.mark.parametrize("t", [math.inf, -1.0])
    def test_every_density_rejects_bad_time(
        self, classical_sol, ou_chain3, defo_pair, gaussian_coeffs, t
    ):
        with pytest.raises(ValueError, match="time"):
            evolve_pdf(classical_sol, t)
        with pytest.raises(ValueError, match="time"):
            partner_pdf(ou_chain3, gaussian_coeffs, t)
        with pytest.raises(ValueError, match="time"):
            iso_pdf(defo_pair, gaussian_coeffs, t)


class TestMoments:
    def test_stationary_moments(self, ou_grid, ou_spectrum):
        p = ou_spectrum.state(0) * ou_spectrum.state(0)
        mean, second = moments(p, [1, 2])
        assert abs(mean) < 1e-10
        assert second == pytest.approx(1.0, abs=1e-9)  # O(h^4) eigenvector floor: 1.2e-10
        # analytic stationary density nails the gaussian moments
        exact = sample(ou_grid, lambda x: np.exp(-(x**2) / 2.0) / math.sqrt(2.0 * math.pi))
        assert moments(exact, [2])[0] == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_density_odd_moments_vanish(self, ou_grid):
        p = sample(ou_grid, lambda x: np.exp(-(x**2) / 2.0) / math.sqrt(2.0 * math.pi))
        odd = moments(p, [1, 3, 5])
        assert np.max(np.abs(odd)) < 1e-10

    def test_ou_transition_moments(self, classical_sol):
        for t in (0.25, 0.5, 1.0):
            p = evolve_pdf(classical_sol, t)
            m0, m1, m2 = moments(p, [0, 1, 2])
            mean_ref, var_ref = ou_transition(2.0, 0.5, t)
            assert abs(m1 / m0 - mean_ref) <= 1e-3 * abs(mean_ref)
            assert abs((m2 / m0 - (m1 / m0) ** 2) - var_ref) <= 1e-3 * var_ref


class TestTruncationResidual:
    def test_exact_expansion_has_tiny_residual(self, ou_spectrum):
        p = ou_spectrum.state(0) * (ou_spectrum.state(0) + ou_spectrum.state(2))
        sol = FpeSolution(ou_spectrum, project(p, ou_spectrum), TemporalRule.classical())
        assert truncation_residual(sol, p) < 1e-6

    def test_displaced_gaussian_reports_truncation(self, classical_sol, gaussian_ic):
        resid = truncation_residual(classical_sol, gaussian_ic)
        assert 1e-4 < resid < 0.5  # kmax=7 genuinely truncates this density
