import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from isofokker.darboux import build_chain, partner_drift, partner_pdf
from isofokker.evolve import FpeSolution, TemporalRule, evolve_pdf, project
from isofokker.grid import integrate, make_grid, sample, sup_diff
from isofokker.oracle import CnConfig, _flux_operator, cn_evolve, gl_residual
from isofokker.scenarios import ou_scenario, ou_transition
from isofokker.spectral import build_hamiltonian, solve_spectrum


def gaussian(grid, mean, var):
    return sample(grid, lambda x: np.exp(-((x - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var))


class TestCnConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CnConfig(dt=-1e-3, t_end=1.0)
        with pytest.raises(ValueError):
            CnConfig(dt=1e-3, t_end=-1.0)

    def test_dt_exceeding_h_rejected(self, ou_drift, ou_grid):
        p = gaussian(ou_grid, 0.0, 1.0)
        with pytest.raises(ValueError, match="dt"):
            cn_evolve(ou_drift, p, CnConfig(dt=0.1, t_end=1.0))


class TestCnEvolve:
    def test_stationary_density_is_fixed(self):
        # the spatial equilibrium mismatch is O(h^2), so the 1e-6 check runs
        # on a finer grid
        g = make_grid(-12.0, 12.0, 4001)
        drift = ou_scenario(g)
        spec = solve_spectrum(build_hamiltonian(drift.W), 1)
        p = spec.state(0) * spec.state(0)
        out = cn_evolve(drift, p, CnConfig(dt=1e-3, t_end=1.0))
        assert sup_diff(out, p) <= 1e-6

    def test_ou_transition_closed_form(self, ou_drift, ou_grid):
        p0 = gaussian(ou_grid, 2.0, 0.5)
        out = cn_evolve(ou_drift, p0, CnConfig(dt=1e-3, t_end=0.5))
        mean, var = ou_transition(2.0, 0.5, 0.5)
        assert sup_diff(out, gaussian(ou_grid, mean, var)) <= 1e-3

    def test_mass_conserved(self, ou_drift, ou_grid):
        p0 = gaussian(ou_grid, 2.0, 0.5)
        out = cn_evolve(ou_drift, p0, CnConfig(dt=1e-3, t_end=1.0))
        assert integrate(out) == pytest.approx(1.0, abs=1e-8)

    def test_second_order_in_time(self, ou_drift, ou_grid):
        # disagreement with a dt/4 reference drops ~4x when dt halves
        p0 = gaussian(ou_grid, 2.0, 0.5)

        def disagreement(dt):
            coarse = cn_evolve(ou_drift, p0, CnConfig(dt=dt, t_end=0.5))
            ref = cn_evolve(ou_drift, p0, CnConfig(dt=dt / 4.0, t_end=0.5))
            return sup_diff(coarse, ref)

        ratio = disagreement(1e-2) / disagreement(5e-3)
        assert 3.0 <= ratio <= 5.0

    def test_t_end_must_align_with_dt(self, ou_drift, ou_grid):
        p0 = gaussian(ou_grid, 0.0, 1.0)
        with pytest.raises(ValueError, match="multiple"):
            cn_evolve(ou_drift, p0, CnConfig(dt=3e-3, t_end=1.0))

    def test_non_unit_mass_rejected(self, ou_drift, ou_grid):
        p0 = sample(ou_grid, lambda x: np.exp(-(x**2)))
        with pytest.raises(ValueError, match="mass"):
            cn_evolve(ou_drift, p0, CnConfig(dt=1e-3, t_end=0.1))


def _cn_banded(drift, cfg):
    """The half step (dt/2) L as its three diagonals, and A = I - (dt/2) L in ``solve_banded`` layout."""
    lower, diag, upper = (0.5 * cfg.dt * band for band in _flux_operator(drift))
    ab = np.zeros((3, len(diag)))
    ab[0, 1:] = -upper[:-1]
    ab[1, :] = 1.0 - diag
    ab[2, :-1] = -lower[1:]
    return (lower, diag, upper), ab


def _cn_reference(drift, P0, cfg):
    """Crank-Nicolson steps with a banded factor-and-solve on every step.

    A step is 2 A^-1 p - p, the identity ``cn_evolve`` steps by.
    """
    _, ab = _cn_banded(drift, cfg)
    p = P0.values.copy()
    for _ in range(int(round(cfg.t_end / cfg.dt))):
        p = 2.0 * solve_banded((1, 1), ab, p) - p
    return p


def _cn_explicit_product(drift, P0, cfg):
    """Crank-Nicolson steps as written: A p_next = (I + (dt/2) L) p, the product formed explicitly."""
    (lower, diag, upper), ab = _cn_banded(drift, cfg)
    p = P0.values.copy()
    for _ in range(int(round(cfg.t_end / cfg.dt))):
        rhs = p + diag * p
        rhs[:-1] += upper[:-1] * p[1:]
        rhs[1:] += lower[1:] * p[:-1]
        p = solve_banded((1, 1), ab, rhs)
    return p


class TestCnFactorOnce:
    def test_ou_matches_per_step_solve(self, ou_drift, gaussian_ic):
        cfg = CnConfig(dt=1e-2, t_end=0.3)
        out = cn_evolve(ou_drift, gaussian_ic, cfg)
        assert np.array_equal(out.values, _cn_reference(ou_drift, gaussian_ic, cfg))

    def test_partner_drift_matches_per_step_solve(self, ou_spectrum, gaussian_ic):
        # the two-step partner drift has tails outside its support
        chain = build_chain(ou_spectrum, 2)
        drift = partner_drift(chain)
        assert drift.D.support != (0, drift.grid.n_points)
        P0 = partner_pdf(chain, project(gaussian_ic, ou_spectrum), 0.0)
        cfg = CnConfig(dt=1e-2, t_end=0.3)
        out = cn_evolve(drift, P0, cfg)
        assert np.array_equal(out.values, _cn_reference(drift, P0, cfg))


class TestOneSolvePerStep:
    """The one-solve step 2 A^-1 p - p is the CN step A^-1 (I + (dt/2) L) p up to round-off.

    20 steps at verify's fine dt; the two forms round differently, and the
    explicit product more, since (dt/2) L has entries near 70 on this grid.
    """

    CFG = CnConfig(dt=5e-3, t_end=0.1)

    def _assert_close(self, drift, P0):
        out = cn_evolve(drift, P0, self.CFG).values
        ref = _cn_explicit_product(drift, P0, self.CFG)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_ou(self, ou_drift, gaussian_ic):
        self._assert_close(ou_drift, gaussian_ic)

    def test_two_step_partner_drift(self, ou_spectrum, gaussian_ic):
        chain = build_chain(ou_spectrum, 2)
        drift = partner_drift(chain)
        P0 = partner_pdf(chain, project(gaussian_ic, ou_spectrum), 0.0)
        self._assert_close(drift, P0)


class TestSpectralVsCn:
    def test_ou_gaussian_agreement_at_t1(self, ou_drift, ou_spectrum, gaussian_ic):
        sol = FpeSolution(ou_spectrum, project(gaussian_ic, ou_spectrum), TemporalRule.classical())
        cn = cn_evolve(ou_drift, gaussian_ic, CnConfig(dt=1e-3, t_end=1.0))
        assert sup_diff(evolve_pdf(sol, 1.0), cn) <= 5e-3


class TestGlResidual:
    def test_zero_rate_gives_zero_residual(self):
        assert gl_residual(0.5, 0.0, 1e-3, 1.0) == 0.0

    def test_first_order_halving(self):
        r1 = gl_residual(0.5, 1.0, 1e-3, 1.0)
        r2 = gl_residual(0.5, 1.0, 5e-4, 1.0)
        assert 0.4 <= r2 / r1 <= 0.6

    def test_near_classical_limit_matches_ode_residual(self):
        # same discrete operators applied to e^{-t} with the fractional term
        # switched off
        dt, t_end = 1e-3, 1.0
        ts = np.arange(int(round(t_end / dt)) + 1) * dt
        T = np.exp(-ts)
        lhs = (T[1:] - T[:-1]) / dt
        classical = np.max(np.abs(lhs + T[1:])[ts[1:] > 0.1 * t_end])
        assert abs(gl_residual(0.999, 1.0, dt, t_end) - classical) <= 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            gl_residual(1.2, 1.0, 1e-3, 1.0)
        with pytest.raises(ValueError):
            gl_residual(0.5, 1.0, 1e-3, 1e-4)
