import math

import numpy as np
import pytest
from conftest import eigenpairs_reference

import isofokker.spectral as spectral
from isofokker.grid import (
    GridFunction,
    cumulative_integral,
    derivative,
    integrate,
    interior_sign_changes,
    make_grid,
    sample,
    sup_diff,
)
from isofokker.scenarios import box_scenario, ou_scenario, schwarzschild_potential
from isofokker.spectral import (
    build_hamiltonian,
    ground_state_to_drift,
    solve_spectrum,
    unit_states,
)


@pytest.fixture(scope="module")
def fine_ou():
    """Finer grid for the O(h^2)-limited residual invariants."""
    g = make_grid(-12.0, 12.0, 6001)
    drift = ou_scenario(g)
    return g, drift, solve_spectrum(build_hamiltonian(drift.W), 7)


class TestBuildHamiltonian:
    def test_ou_potential(self, ou_grid):
        W = sample(ou_grid, lambda x: x**2 / 4.0)
        op = build_hamiltonian(W)
        exact = ou_grid.x**2 / 4.0 - 0.5
        assert np.max(np.abs(op.V.values - exact)) < 1e-8

    def test_zero_prepotential(self, ou_grid):
        W = sample(ou_grid, lambda x: np.zeros_like(x))
        op = build_hamiltonian(W)
        assert np.max(np.abs(op.V.values)) < 1e-12

    def test_tridiagonal_structure(self, ou_grid):
        op = build_hamiltonian(sample(ou_grid, lambda x: x**2 / 4.0))
        h = ou_grid.h
        assert op.diag.shape == (ou_grid.n_points - 2,)
        assert np.allclose(op.offdiag, -1.0 / h**2)
        assert np.allclose(op.diag, 2.0 / h**2 + op.V.values[1:-1])

    def test_nontrivial_prepotential_symbolic_spot_check(self):
        # V = W'^2 - W'' for W = x^2/4 - ln cosh x, checked at spot nodes
        # against its closed form: W' = x/2 - tanh x, W'' = tanh^2 x - 1/2
        def V(x):
            return (x / 2.0 - np.tanh(x)) ** 2 - np.tanh(x) ** 2 + 0.5

        g = make_grid(-10.0, 10.0, 2001)
        op = build_hamiltonian(sample(g, lambda v: v**2 / 4.0 - np.log(np.cosh(v))))
        for xi in (-3.7, -1.0, 0.0, 0.012, 2.5, 8.1):
            i = int(round((xi - g.c1) / g.h))
            assert op.V.values[i] == pytest.approx(float(V(g.x[i])), abs=1e-6)


class TestSolveSpectrum:
    def test_ou_integer_eigenvalues(self, ou_spectrum):
        assert np.max(np.abs(ou_spectrum.energies - np.arange(8))) < 1e-3

    def test_box_eigenvalues(self):
        g = make_grid(0.0, 1.0, 2001)
        spec = solve_spectrum(build_hamiltonian(box_scenario(g).W), 3)
        exact = ((np.arange(4) + 1) * math.pi) ** 2
        assert np.max(np.abs(spec.energies - exact) / exact) < 1e-3

    def test_ground_energy_non_negative(self, ou_spectrum):
        assert ou_spectrum.energies[0] >= -1e-8

    def test_strictly_increasing(self, ou_spectrum):
        assert np.all(np.diff(ou_spectrum.energies) > 0)

    def test_orthonormality(self, ou_spectrum):
        worst = max(
            abs(integrate(ou_spectrum.state(j) * ou_spectrum.state(k)) - (j == k))
            for j in range(8)
            for k in range(8)
        )
        assert worst <= 1e-6

    def test_eigen_residual(self, fine_ou):
        # ||(-phi'' + V phi) - eps phi||_inf / ||phi||_inf <= 1e-4 inside;
        # the gap to the continuum ODE is O(h^2 k^2), so this runs on the
        # finer grid
        _, drift, spec = fine_ou
        op = build_hamiltonian(drift.W)
        for k in (0, 3, 7):
            phi = spec.state(k)
            second = derivative(derivative(phi))
            resid = -1.0 * second + op.V * phi - spec.energies[k] * phi
            a, z = resid.support
            # past the one-sided rows of the repeated stencil
            err = np.max(np.abs(resid.values[max(a, 5) : min(z, len(resid.values) - 5)]))
            assert err <= 1e-4 * np.max(np.abs(phi.values))

    def test_ground_state_annihilated(self, fine_ou):
        # phi_0' + W' phi_0 ~ 0
        _, drift, spec = fine_ou
        phi0 = spec.state(0)
        w1 = derivative(drift.W)
        resid = derivative(phi0) + w1 * phi0
        assert np.max(np.abs(resid.values)) <= 1e-6 * np.max(np.abs(phi0.values))

    def test_ground_state_positive_and_unit_density(self, ou_spectrum):
        phi0 = ou_spectrum.state(0)
        assert np.all(phi0.values[1:-1] > -1e-12)
        assert integrate(phi0 * phi0) == pytest.approx(1.0, abs=1e-8)

    def test_node_counts(self, ou_spectrum):
        for k in range(8):
            assert interior_sign_changes(ou_spectrum.state(k)) == k

    def test_sign_convention(self, ou_spectrum):
        # first significant lobe positive, i.e. the state rises off the left wall
        for k in range(8):
            v = ou_spectrum.state(k).values
            first = np.argmax(np.abs(v) > 1e-3 * np.max(np.abs(v)))
            assert v[first] > 0

    def test_negative_kmax_rejected(self, ou_grid):
        op = build_hamiltonian(sample(ou_grid, lambda x: x**2 / 4.0))
        with pytest.raises(ValueError, match="kmax must be non-negative"):
            solve_spectrum(op, -1)

    def test_overflowing_potential_rejected(self):
        # W'^2 overflows to inf, which no grid function holds
        W = sample(make_grid(-1.0, 1.0, 41), lambda x: 1e200 * x**2)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            build_hamiltonian(W)

    def test_resolution_guard(self, ou_grid):
        op = build_hamiltonian(sample(ou_grid, lambda x: x**2 / 4.0))
        with pytest.raises(ValueError, match="kmax"):
            solve_spectrum(op, ou_grid.n_points // 4)

    @pytest.mark.parametrize("a", [0.06, 0.07, 0.08, 0.1])
    def test_zero_mode_shift_resolves_tunnelling_split(self, a):
        # W = a (x^2 - 9)^2: on 2001 nodes the tunnelling split is resolved
        # but level 1 sits below zero, inside the stencil's O(h^2) ground
        # offset; shifting every level by e_0 keeps the split, which 4001
        # nodes confirm
        def op(n):
            return build_hamiltonian(sample(make_grid(-12.0, 12.0, n), lambda x: a * (x**2 - 9.0) ** 2))

        raw, _ = spectral._eigenpairs(op(2001), 3)
        assert -1e-3 < raw[0] < raw[1] < 0.0
        coarse = solve_spectrum(op(2001), 3).energies
        assert np.array_equal(coarse, raw - raw[0])
        assert coarse[1] == pytest.approx(solve_spectrum(op(4001), 3).energies[1], rel=1e-3)

    @pytest.mark.parametrize("a, b", [(0.1, 3.5), (0.2, 4.0)])
    def test_inseparable_wells_rejected(self, ou_grid, a, b):
        op = build_hamiltonian(sample(ou_grid, lambda x: a * (x**2 - b**2) ** 2))
        with pytest.raises(RuntimeError, match="resolution too coarse"):
            solve_spectrum(op, 7)


def _ou(gamma: float, n: int):
    return build_hamiltonian(ou_scenario(make_grid(-12.0, 12.0, n), gamma).W)


def _double_well(a: float):
    return build_hamiltonian(sample(make_grid(-12.0, 12.0, 2001), lambda x: a * (x**2 - 9.0) ** 2))


REFERENCE_CASES = [
    *(
        pytest.param(lambda g=g, n=n: _ou(g, n), 7, id=f"ou-{g}-{n}")
        for g in (0.5, 1.0, 2.0)
        for n in (1001, 2001, 4001)
    ),
    pytest.param(lambda: build_hamiltonian(box_scenario(make_grid(0.0, 1.0, 2001)).W), 3, id="box"),
    pytest.param(
        lambda: build_hamiltonian(schwarzschild_potential(0.08, make_grid(0.1, 3.0, 581)).W),
        8,
        id="schwarzschild",
    ),
    *(
        pytest.param(lambda a=a: _double_well(a), k, id=f"well-{a}-{k}")
        for a in (0.05, 0.06, 0.07, 0.08, 0.1)
        for k in (0, 1, 7)
    ),
]


class TestAgainstFullBisection:
    """The solver against every level bisected to full precision (the reference)."""

    @pytest.mark.parametrize("make_op, kmax", REFERENCE_CASES)
    def test_eigenpairs_match_reference(self, make_op, kmax):
        op = make_op()
        ref_e, ref_v = eigenpairs_reference(op, kmax)
        energies, vectors = spectral._eigenpairs(op, kmax)
        # 1e-10 on the scale of the spectrum: the box's levels reach 158 on
        # a stencil with ||T||_1 = 1.6e7, where round-off alone is 3.5e-9
        assert np.max(np.abs(energies - ref_e)) <= 1e-10 * max(1.0, abs(ref_e[-1]))
        inside = np.abs(op.grid.x[1:-1]) <= 8.0
        signs = np.sign(np.sum(vectors * ref_v, axis=0))
        rel = np.abs(vectors * signs - ref_v)[inside] / np.max(np.abs(ref_v), axis=0)
        assert np.max(rel) <= 1e-7
        ground = vectors[:, 0]
        significant = np.abs(ground) > 1e-12 * np.max(np.abs(ground))
        assert np.all(np.sign(ground[significant]) == np.sign(ground[significant][0]))

    @pytest.mark.parametrize(
        "make_op, escalates",
        [(lambda: _double_well(0.1), True), (lambda: _ou(1.0, 2001), False)],
        ids=["double-well", "ou"],
    )
    def test_full_precision_only_for_close_levels(self, monkeypatch, make_op, escalates):
        op = make_op()
        tols = []
        bisect = spectral._bisect

        def recording(op, count, tol):
            tols.append(tol)
            return bisect(op, count, tol)

        monkeypatch.setattr(spectral, "_bisect", recording)
        solve_spectrum(op, 0)
        assert tols == ([spectral.ISOLATION_TOL, 0.0] if escalates else [spectral.ISOLATION_TOL])


class TestBasis:
    def test_rows_are_the_states(self, ou_spectrum):
        assert len(ou_spectrum) == ou_spectrum.kmax + 1 == 8
        full = (0, ou_spectrum.grid.n_points)
        assert ou_spectrum.values.shape == (8, full[1]) and ou_spectrum.support == full
        assert np.array_equal(ou_spectrum.values, [f.values for f in ou_spectrum.states])
        assert all(f.grid is ou_spectrum.grid and f.support == full for f in ou_spectrum.states)
        assert not (ou_spectrum.values.flags.writeable or ou_spectrum.energies.flags.writeable)

    @pytest.mark.parametrize(
        "values, support, match",
        [
            ([[np.nan] * 11], (0, 11), "non-finite"),
            ([[1.0] * 11], (5, 3), "unreliable on every node"),
            ([[1.0] * 11], (0, 99), "unreliable on every node"),
        ],
    )
    def test_impossible_inputs_rejected_at_construction(self, values, support, match):
        with pytest.raises(ValueError, match=match):
            spectral.Basis(make_grid(0.0, 1.0, 11), values, support, energies=[0.0])

    @pytest.mark.parametrize("energies", [[0.0, 1.0], 0.0])
    def test_one_state_per_level(self, energies):
        with pytest.raises(ValueError, match="one state per level"):
            spectral.Basis(make_grid(0.0, 1.0, 11), [[1.0] * 11], energies=energies)

    def test_arithmetic_gives_a_plain_stack(self, ou_spectrum):
        phi0 = ou_spectrum.state(0)
        for r in (ou_spectrum + 1.0, 2.0 * ou_spectrum, ou_spectrum * phi0, -ou_spectrum):
            assert type(r) is GridFunction and r.values.shape == ou_spectrum.values.shape
        assert np.array_equal((ou_spectrum * phi0).values[3], (ou_spectrum.state(3) * phi0).values)


class TestUnitState:
    @staticmethod
    def _reference(grid, row):
        """Unit Simpson norm, then the leftmost sample above 1e-3 of the peak made positive."""
        w = np.full(grid.n_points, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        unit = row / math.sqrt(grid.h / 3.0 * np.sum(w * row * row))
        lead = unit[np.abs(unit) > 1e-3 * np.max(np.abs(unit))][0]
        return -unit if lead < 0 else unit

    @staticmethod
    def _rows(x):
        # different scales; the first two lead negative off the left wall, the third positive
        rows = np.array(
            [
                3.0 * x * np.exp(-(x**2) / 2.0),
                -0.02 * np.exp(-(x**2) / 4.0),
                50.0 * (x**2 - 1.0) * np.exp(-(x**2) / 2.0),
            ]
        )
        rows[:, 0] = rows[:, -1] = 0.0
        return rows

    @pytest.mark.parametrize("support", [None, (167, 1700)])
    def test_stack_is_its_rows_and_the_reference(self, ou_grid, support):
        rows = self._rows(ou_grid.x)
        if support is not None:
            # non-zero samples outside the support, which are dropped
            rows[:, : support[0]] = rows[:, support[1] :] = 7.0
        stack = GridFunction(ou_grid, rows, support)
        got = unit_states(stack)
        assert got.values.shape == (3, ou_grid.n_points) and got.support == stack.support
        for i, row in enumerate(stack.values):
            one = unit_states(GridFunction(ou_grid, row, support))
            assert one.support == stack.support
            assert one.values.tobytes() == got.values[i].tobytes(), i
            assert np.max(np.abs(got.values[i] - self._reference(ou_grid, row))) <= 1e-14, i
        # x = -2.4: the first two rows are negated, the third is kept
        assert np.array_equal(np.sign(got.values[:, 800] * stack.values[:, 800]), [-1.0, -1.0, 1.0])

    @pytest.mark.parametrize("zero", [0, 2])
    def test_zero_row_rejected(self, ou_grid, zero):
        rows = self._rows(ou_grid.x)
        rows[zero] = 0.0
        with pytest.raises(ValueError, match="normalize"):
            unit_states(GridFunction(ou_grid, rows))
        with pytest.raises(ValueError, match="normalize"):
            unit_states(GridFunction(ou_grid, rows[zero]))


class TestGroundStateToDrift:
    def test_ou_ground_state(self, ou_grid):
        phi0 = sample(ou_grid, lambda x: np.exp(-(x**2) / 4.0))
        ds = ground_state_to_drift(phi0)
        assert sup_diff(ds.D, sample(ou_grid, lambda x: -x), window=(-8, 8)) < 1e-5

    def test_quartic_ground_state(self):
        # steep derivatives: h^4 (4x^3)^5 / 30 truncation needs a fine grid
        g = make_grid(-2.0, 2.0, 4001)
        phi0 = sample(g, lambda x: np.exp(-(x**4)))
        ds = ground_state_to_drift(phi0)
        ref = sample(g, lambda x: -8.0 * x**3)
        assert sup_diff(ds.D, ref, window=(-1.8, 1.8)) < 1e-5

    def test_deformed_ground_state_closed_form(self, ou_spectrum, ou_grid):
        # D^ = -x - 2 phi0^2/(lambda + I0) for the reciprocal-virtual-state
        # ground state, with I0 from the quadrature oracle
        phi0 = ou_spectrum.state(0)
        I0 = cumulative_integral(phi0 * phi0)
        lam = 0.5
        deformed = phi0 * (1.0 / (I0 + lam))  # no normalization needed for log-derivative
        ds = ground_state_to_drift(deformed)
        base = ground_state_to_drift(phi0)
        closed = base.D - 2.0 * phi0 * phi0 * (1.0 / (I0 + lam))
        assert sup_diff(ds.D, closed, window=(-8, 8)) < 1e-5

    def test_prepotential_consistency(self, ou_grid):
        # W = -ln phi0 and D = -2 W' hold together
        phi0 = sample(ou_grid, lambda x: np.exp(-(x**2) / 4.0))
        ds = ground_state_to_drift(phi0)
        resid = ds.D + 2.0 * derivative(ds.W)
        a, z = resid.support
        assert np.max(np.abs(resid.values[a:z])) < 1e-5

    def test_noded_state_rejected(self, ou_spectrum):
        with pytest.raises(ValueError, match="zero"):
            ground_state_to_drift(ou_spectrum.state(1))
