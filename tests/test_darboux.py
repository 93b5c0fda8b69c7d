import mpmath
import numpy as np
import pytest

from conftest import align_sign, crum_reference
from isofokker.darboux import DarbouxChain, build_chain, crum_states, darboux_step, partner_drift, partner_pdf
from isofokker.grid import (
    derivative,
    integrate,
    interior_sign_changes,
    log_derivative,
    make_grid,
    sample,
    sup_diff,
    sup_norm,
)
from isofokker.oracle import CnConfig, cn_evolve
from isofokker.isospectral import IsoParams, reinstate
from isofokker.scenarios import box_scenario, hawking_temperature, ou_scenario, schwarzschild_potential
from isofokker.spectral import (
    Basis,
    Spectrum,
    build_hamiltonian,
    ground_state_to_drift,
    normalized,
    sign_fixed,
    solve_spectrum,
)
from isofokker.evolve import project


class TestDarbouxStep:
    def test_ou_stage_energies(self, ou_chain3):
        # deleting the bottom level of the linear-drift spectrum shifts it down by one
        for s in (1, 2, 3):
            got = ou_chain3.stage_states[s].energies
            assert np.max(np.abs(got - np.arange(len(got)))) < 2e-3

    def test_annihilation_of_stage_ground(self, ou_chain3):
        # applying the stage operator to its own ground state gives ~0
        for s in (0, 1, 2):
            ground = ou_chain3.stage_states[s].state(0)
            kernel = log_derivative(ground)
            out = derivative(ground) - kernel * ground
            assert sup_norm(out) <= 1e-5 * sup_norm(ground)

    def test_stage_states_orthonormal(self, ou_chain3):
        states = ou_chain3.stage_states[1].states
        worst = max(
            abs(integrate(states[i] * states[j]) - (i == j))
            for i in range(len(states))
            for j in range(len(states))
        )
        assert worst < 1e-3

    def test_shape_invariance_of_partner_drift(self, ou_spectrum, ou_grid):
        chain = build_chain(ou_spectrum, 1)
        ref = sample(ou_grid, lambda x: -x)
        assert sup_diff(partner_drift(chain).D, ref, window=(-8, 8)) <= 1e-3

    def test_step_needs_levels(self, ou_spectrum):
        chain = build_chain(ou_spectrum, 7)
        with pytest.raises(ValueError):
            darboux_step(chain)

    def test_build_chain_validation(self, ou_spectrum):
        with pytest.raises(ValueError):
            build_chain(ou_spectrum, 0)
        with pytest.raises(ValueError):
            build_chain(ou_spectrum, 8)

    def test_step_count_is_the_stage_count(self, ou_chain3):
        # n_steps follows stage_states and cannot be set apart from them
        assert ou_chain3.n_steps == len(ou_chain3.stage_states) - 1 == 3
        shorter = DarbouxChain(base=ou_chain3.base, stage_states=ou_chain3.stage_states[:2])
        assert shorter.n_steps == 1
        assert np.array_equal(partner_drift(shorter).D.values, partner_drift(ou_chain3, 1).D.values)
        with pytest.raises(TypeError):
            DarbouxChain(base=ou_chain3.base, n_steps=3, stage_states=ou_chain3.stage_states[:2])
        with pytest.raises(ValueError, match="stage"):
            partner_drift(DarbouxChain(base=ou_chain3.base, stage_states=ou_chain3.stage_states[:1]))


_ONE_SUPPORT_PREPOTENTIALS = {
    # OU on its default domain, where the decaying tails leave wide bands off the support
    "ou-0.5": ((-12.0, 12.0), lambda x: 0.5 * x**2 / 4.0),
    "ou-1": ((-12.0, 12.0), lambda x: x**2 / 4.0),
    "ou-2": ((-12.0, 12.0), lambda x: 2.0 * x**2 / 4.0),
    "quartic": ((-5.0, 5.0), lambda x: x**4 / 4.0),
}


@pytest.mark.parametrize("n_points", [1001, 4001])
@pytest.mark.parametrize("case", list(_ONE_SUPPORT_PREPOTENTIALS))
class TestOneSupportPerBasis:
    """Every state of a basis carries the same support, so a basis stores it once."""

    @staticmethod
    def _spectrum(case, n_points):
        (c1, c2), prepotential = _ONE_SUPPORT_PREPOTENTIALS[case]
        return solve_spectrum(build_hamiltonian(sample(make_grid(c1, c2, n_points), prepotential)), 7)

    def test_stage_support_is_the_per_state_route_support(self, case, n_points):
        chain = build_chain(self._spectrum(case, n_points), 4)
        for s in range(1, 5):
            previous, stage = chain.stage_states[s - 1], chain.stage_states[s]
            kernel = log_derivative(previous.state(0))
            assert stage.support != (0, n_points)
            for j, f in enumerate(previous.states):
                g = derivative(f) - kernel * f
                assert g.support == stage.support, (s, j)
                if j > 0:
                    # the same arithmetic, except the order of the one-sided edge
                    # sums where a wide ground state leaves the edges in the support
                    ref = sign_fixed(normalized(g)).values
                    assert np.max(np.abs(stage.values[j - 1] - ref)) <= 1e-15, (s, j)

    def test_crum_states_share_one_support(self, case, n_points):
        spec = self._spectrum(case, n_points)
        for n in range(1, 5):
            first = crum_states(spec, n, n).support
            for k in range(n + 1, spec.kmax + 1):
                assert crum_states(spec, n, k).support == first, (n, k)


# Drift families on 2001 nodes: a grid, a prepotential W on it, and the chain depth built.
_FAMILIES = {
    "ou-0.5": (lambda: ou_scenario(make_grid(-12.0, 12.0, 2001), 0.5).W, 4),
    "ou-1": (lambda: ou_scenario(make_grid(-12.0, 12.0, 2001), 1.0).W, 4),
    "ou-2": (lambda: ou_scenario(make_grid(-12.0, 12.0, 2001), 2.0).W, 4),
    "box": (lambda: box_scenario(make_grid(0.0, 1.0, 2001)).W, 3),
    "quartic": (lambda: sample(make_grid(-6.0, 6.0, 2001), lambda x: x**4 / 8.0), 4),
    # the depth-4 partner's ground dithers around the floor at |x| ~ 5.6-5.8,
    # where a node that dips below it ends the support
    "double-well": (lambda: sample(make_grid(-8.0, 8.0, 2001), lambda x: 0.03 * (x**2 - 9.0) ** 2), 4),
    "tilted-quartic": (
        lambda: sample(make_grid(-10.0, 10.0, 2001), lambda x: x**2 / 4.0 + 0.01 * x**4 + 0.3 * x),
        4,
    ),
    "schwarzschild": (lambda: schwarzschild_potential(hawking_temperature(1.0), make_grid(0.1, 3.0, 2001)).W, 4),
}


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_families_build_with_nested_supports(family):
    # every construction builds, and a stage is supported inside the stage before
    prepotential, depth = _FAMILIES[family]
    spec = solve_spectrum(build_hamiltonian(prepotential()), 7)
    chain = build_chain(spec, depth)
    for s in range(1, depth + 1):
        (a, z), (pa, pz) = chain.stage_states[s].support, chain.stage_states[s - 1].support
        assert pa <= a < z <= pz, s
        drift = partner_drift(chain, s)
        assert np.all(np.isfinite(drift.D.values)) and np.all(np.isfinite(drift.W.values)), s
    for n in range(1, 5):
        for k in range(n, spec.kmax + 1):
            assert interior_sign_changes(crum_states(spec, n, k)) == k - n, (n, k)
    deformation = reinstate(build_chain(spec, 2), IsoParams([0.5, 2.0]))
    assert np.all(np.isfinite(deformation.drift.D.values))


class TestCrumStates:
    def test_single_step_identity(self, ou_spectrum, ou_chain3):
        # W[phi0, phik]/phi0 equals the first-order route algebraically
        for k in (1, 4, 7):
            crum = crum_states(ou_spectrum, 1, k)
            it = align_sign(ou_chain3.state(1, k), crum)
            assert sup_diff(crum, it) < 1e-6

    def test_matches_iterated_steps(self, ou_spectrum, ou_chain3):
        crum = crum_states(ou_spectrum, 2, 2)
        it = align_sign(ou_chain3.state(2, 2), crum)
        assert sup_diff(crum, it) < 1e-4

    def test_all_orders_and_levels(self, ou_spectrum, ou_chain3):
        for n in (1, 2, 3):
            for k in range(n, 8):
                crum = crum_states(ou_spectrum, n, k)
                it = align_sign(ou_chain3.state(n, k), crum)
                assert sup_diff(crum, it) < 1e-3, (n, k)

    def test_first_level_returns_to_ground_shape(self, ou_spectrum):
        # shape invariance: deleting the ground state leaves a spectrum whose
        # ground state is again the same gaussian
        crum = crum_states(ou_spectrum, 1, 1)
        ref = align_sign(ou_spectrum.state(0), crum)
        assert sup_diff(crum, ref) < 1e-4

    def test_node_counting(self, ou_spectrum):
        for n in (1, 2, 3):
            for k in range(n, 8):
                assert interior_sign_changes(crum_states(ou_spectrum, n, k)) == k - n

    def test_box_support_skips_nodes_reading_an_edge_row_twice(self):
        # box states do not decay at the walls, so the division floor leaves
        # the nodes next to them kept; at n = 2 the one-sided edge rows are
        # read twice there, and node 1 came out with the wrong sign
        g = make_grid(0.0, 1.0, 2001)
        spec = solve_spectrum(build_hamiltonian(box_scenario(g).W), 7)
        for k in (3, 5, 7):
            f = crum_states(spec, 2, k)
            assert f.support[0] > 1, k
            kept = np.arange(f.support[0], 12)
            ref = np.array([_box_ratio(2, k, x) for x in g.x[kept]])
            scale = np.sign(f.values[713] * _box_ratio(2, k, g.x[713]))
            assert np.array_equal(np.sign(f.values[kept]), scale * np.sign(ref)), k

    def test_index_validation(self, ou_spectrum):
        with pytest.raises(IndexError):
            crum_states(ou_spectrum, 2, 1)
        with pytest.raises(IndexError):
            crum_states(ou_spectrum, 1, 8)
        with pytest.raises(ValueError):
            crum_states(ou_spectrum, 0, 1)


def _box_ratio(n: int, k: int, x: float) -> float:
    """Closed-form W[s_0..s_{n-1}, s_k] / W[s_0..s_{n-1}] at x for the box states s_j = sin((j+1) pi x)."""
    with mpmath.workdps(30):
        x = mpmath.mpf(x)

        def wronskian(levels):
            w = [(j + 1) * mpmath.pi for j in levels]
            orders = range(len(w))
            return mpmath.det(mpmath.matrix([[wj**o * mpmath.sin(wj * x + o * mpmath.pi / 2) for wj in w] for o in orders]))

        return float(wronskian([*range(n), k]) / wronskian(range(n)))


def _spectrum(c1, c2, prepotential):
    g = make_grid(c1, c2, 2001)
    return solve_spectrum(build_hamiltonian(sample(g, prepotential)), 7)


class TestCrumCofactorExpansion:
    """The shared-cofactor route against the full per-node LU Wronskian ratio."""

    @pytest.mark.parametrize(
        "c1, c2, prepotential",
        [
            (-12.0, 12.0, lambda x: x**2 / 4.0),
            # anharmonic oscillator: quartic prepotential, asymmetric by a tilt
            (-10.0, 10.0, lambda x: x**2 / 4.0 + 0.01 * x**4 + 0.3 * x),
        ],
        ids=["ou", "quartic"],
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_lu_wronskian_ratio(self, c1, c2, prepotential, n):
        spec = _spectrum(c1, c2, prepotential)
        for k in range(n, spec.kmax + 1):
            got = crum_states(spec, n, k)
            ref = crum_reference(spec, n, k)
            assert np.max(np.abs(got.values - ref.values)) <= 1e-12, k
            assert got.support != (0, spec.grid.n_points) and got.support == ref.support

    def test_repeated_and_interleaved_calls(self):
        spec = _spectrum(-12.0, 12.0, lambda x: x**2 / 4.0)
        order = [(2, 3), (1, 1), (3, 7), (2, 3), (1, 5), (3, 3), (1, 1), (2, 7), (3, 7)]
        first = {}
        for n, k in order:
            f = crum_states(spec, n, k)
            if (n, k) not in first:
                first[(n, k)] = f
            ref = first[(n, k)]
            assert np.array_equal(f.values, ref.values)
            assert f.support == ref.support
        fresh = _spectrum(-12.0, 12.0, lambda x: x**2 / 4.0)
        for (n, k), f in first.items():
            assert np.array_equal(crum_states(fresh, n, k).values, f.values)

    def test_failing_denominator_raises_on_every_call(self):
        spec = _banded_ground_spectrum()
        for _ in range(3):
            with pytest.raises(ValueError, match="denominator Wronskian"):
                crum_states(spec, 1, 1)
        assert 1 not in spec._crum_memo

    def test_chain_step_shares_the_guard(self):
        # the first chain step is the spectrum's one-level deletion, so it
        # fails the same way, on every call of either route, and is not kept
        spec = _banded_ground_spectrum()
        for _ in range(3):
            with pytest.raises(ValueError, match="denominator Wronskian") as step:
                build_chain(spec, 1)
            with pytest.raises(ValueError) as crum:
                crum_states(spec, 1, 1)
            assert str(step.value) == str(crum.value)
        assert spec._crum_memo == {}


class TestOneDeletionPerSpectrum:
    """A chain's first stage and crum_states(base, 1, .) are one n = 1 deletion of the spectrum."""

    @pytest.mark.parametrize("steps", [1, 3])
    def test_chain_first_stage_is_the_wronskian_route(self, steps):
        spec = _spectrum(-12.0, 12.0, lambda x: x**2 / 4.0)
        chain = build_chain(spec, steps)
        assert list(spec._crum_memo) == [1]
        for k in range(1, spec.kmax + 1):
            crum = crum_states(spec, 1, k)
            assert np.array_equal(crum.values, chain.state(1, k).values), k
            assert crum.support == chain.state(1, k).support, k

    def test_kept_rows_are_read_only(self):
        spec = _spectrum(-12.0, 12.0, lambda x: x**2 / 4.0)
        for n in (1, 3):
            crum_states(spec, n, n)
            kept = spec._crum_memo[n]
            assert kept.values.shape == (spec.kmax + 1 - n, spec.grid.n_points)
            assert not kept.values.flags.writeable


def _banded_ground_spectrum():
    """Three hand-made states whose ground state vanishes on the middle fifth of the domain."""
    g = make_grid(-1.0, 1.0, 401)
    x = g.x
    bump = np.where(np.abs(x) > 0.2, np.sin(np.pi * x) ** 2, 0.0)
    states = [bump, np.sin(np.pi * (x + 1.0) / 2.0) * x, np.sin(np.pi * (x + 1.0))]
    return Spectrum(g, states, (0, g.n_points), energies=np.array([0.0, 1.0, 2.0]))


class TestPartnerDrift:
    def test_ou_one_and_two_steps(self, ou_spectrum, ou_grid):
        ref = sample(ou_grid, lambda x: -x)
        for n in (1, 2):
            chain = build_chain(ou_spectrum, n)
            assert sup_diff(partner_drift(chain).D, ref, window=(-8, 8)) <= 1e-3

    def test_box_cross_check(self):
        # partner drift from the iterated route vs the Wronskian route
        g = make_grid(0.0, 1.0, 2001)
        spec = solve_spectrum(build_hamiltonian(box_scenario(g).W), 4)
        chain = build_chain(spec, 1)
        via_step = partner_drift(chain)
        via_crum = ground_state_to_drift(crum_states(spec, 1, 1))
        assert sup_diff(via_step.D, via_crum.D, window=(0.1, 0.9)) < 1e-6

    def test_spectrum_shift_on_resolve(self, ou_spectrum):
        # eigenvalues of the partner operator equal the shifted originals
        for n in (1, 2):
            chain = build_chain(ou_spectrum, n)
            resolved = solve_spectrum(build_hamiltonian(partner_drift(chain).W), 5)
            expected = ou_spectrum.energies[n : n + 6] - ou_spectrum.energies[n]
            assert np.max(np.abs(resolved.energies - expected)) <= 5e-3

    def test_earlier_stage_of_a_longer_chain(self, ou_spectrum, ou_chain3):
        # a chain's earlier stages are computed exactly as a shorter chain's
        for s in (1, 2):
            short = partner_drift(build_chain(ou_spectrum, s))
            staged = partner_drift(ou_chain3, s)
            assert np.array_equal(staged.D.values, short.D.values)
            assert staged.D.support == short.D.support
        assert np.array_equal(partner_drift(ou_chain3, 3).D.values, partner_drift(ou_chain3).D.values)

    @pytest.mark.parametrize("stage", [0, 4])
    def test_stage_outside_chain_rejected(self, ou_chain3, stage):
        with pytest.raises(ValueError, match="stage"):
            partner_drift(ou_chain3, stage)

    def test_noded_stage_ground_state_rejected(self, ou_spectrum):
        # a hand-built stage 1 whose ground row is phi_1, with its node at x = 0
        noded = Basis(ou_spectrum.grid, ou_spectrum.values[1:], ou_spectrum.support, energies=ou_spectrum.energies[1:])
        chain = DarbouxChain(base=ou_spectrum, stage_states=(ou_spectrum, noded))
        with pytest.raises(ValueError, match="stage-1 ground state is not node-free"):
            partner_drift(chain, 1)


class TestPartnerPdf:
    def test_single_mode_is_stationary(self, ou_spectrum):
        chain = build_chain(ou_spectrum, 1)
        coeffs = np.zeros(8)
        coeffs[1] = 1.0  # only the surviving ground mode of the partner
        p0 = partner_pdf(chain, coeffs, 0.0)
        p5 = partner_pdf(chain, coeffs, 5.0)
        assert sup_diff(p0, p5) < 1e-12
        ground = chain.stage_states[1].state(0)
        stationary = ground * ground
        assert sup_diff(p0, stationary / integrate(stationary)) < 1e-10

    def test_late_time_limit(self, ou_spectrum, gaussian_ic):
        chain = build_chain(ou_spectrum, 1)
        coeffs = project(gaussian_ic, ou_spectrum)
        ground = chain.stage_states[1].state(0)
        stationary = ground * ground
        stationary = stationary / integrate(stationary)
        assert sup_diff(partner_pdf(chain, coeffs, 30.0), stationary) < 1e-10

    def test_matches_crank_nicolson(self, ou_spectrum, gaussian_ic):
        chain = build_chain(ou_spectrum, 1)
        coeffs = project(gaussian_ic, ou_spectrum)
        p0 = partner_pdf(chain, coeffs, 0.0)
        p1 = partner_pdf(chain, coeffs, 1.0)
        cn = cn_evolve(partner_drift(chain), p0, CnConfig(dt=1e-3, t_end=1.0))
        assert sup_diff(p1, cn) <= 5e-3

    def test_empty_expansion_rejected(self, ou_spectrum):
        chain = build_chain(ou_spectrum, 2)
        with pytest.raises(ValueError, match="vanish"):
            partner_pdf(chain, [1.0, 1.0], 0.0)

    def test_coefficient_count_checked(self, ou_spectrum):
        chain = build_chain(ou_spectrum, 1)
        with pytest.raises(ValueError):
            partner_pdf(chain, np.ones(9), 0.0)

    def test_fractional_rule_near_classical_limit(self, ou_spectrum, gaussian_ic):
        from isofokker.evolve import TemporalRule

        chain = build_chain(ou_spectrum, 1)
        coeffs = project(gaussian_ic, ou_spectrum)
        classical = partner_pdf(chain, coeffs, 1.0)
        fractional = partner_pdf(chain, coeffs, 1.0, temporal=TemporalRule.fractional(0.999))
        assert sup_diff(classical, fractional) <= 5e-3
        mass = integrate(partner_pdf(chain, coeffs, 2.0, temporal=TemporalRule.fractional(0.5)))
        assert mass == pytest.approx(1.0, abs=1e-9)
