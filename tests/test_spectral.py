import math

import numpy as np
import pytest
from conftest import eigenpairs_reference
from hypothesis import given, settings
from hypothesis import strategies as st

import isofokker.spectral as spectral
from isofokker.grid import (
    GridFunction,
    cumulative_integral,
    derivative,
    integrate,
    interior_sign_changes,
    make_grid,
    sample,
    simpson_weights,
    sup_diff,
)
from isofokker.scenarios import box_scenario, ou_reference_state, ou_scenario, schwarzschild_potential
from isofokker.spectral import (
    Spectrum,
    build_hamiltonian,
    ground_prepotential,
    ground_state_to_drift,
    solve_spectrum,
    unit_states,
)


@pytest.fixture(scope="module")
def fine_ou():
    """Finer grid for the stencil-limited residual invariants."""
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
        # 1.16e-8 measured (1.46e-8 for T's corrected levels); T's own
        # eigenvalues are off by 2.52e-4
        assert np.max(np.abs(ou_spectrum.energies - np.arange(8))) < 2e-8

    def test_box_eigenvalues(self):
        g = make_grid(0.0, 1.0, 2001)
        spec = solve_spectrum(build_hamiltonian(box_scenario(g).W), 3)
        exact = ((np.arange(4) + 1) * math.pi) ** 2
        assert np.max(np.abs(spec.energies - exact) / exact) < 1e-9

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
        assert worst <= 1e-12

    def test_eigen_residual(self, fine_ou):
        # ||(-phi'' + V phi) - eps phi||_inf / ||phi||_inf inside, with phi''
        # from the 4th-order derivative taken twice: 5.2e-9 measured at
        # k = 7 (3.4e-5 from the 3-point matrix's own vectors)
        _, drift, spec = fine_ou
        op = build_hamiltonian(drift.W)
        for k in (0, 3, 7):
            phi = spec.state(k)
            second = derivative(derivative(phi))
            resid = -1.0 * second + op.V * phi - spec.energies[k] * phi
            a, z = resid.support
            # past the one-sided rows of the repeated stencil
            err = np.max(np.abs(resid.values[max(a, 5) : min(z, len(resid.values) - 5)]))
            assert err <= 5e-8 * np.max(np.abs(phi.values))

    def test_ground_state_annihilated(self, fine_ou):
        # phi_0' + W' phi_0 ~ 0
        _, drift, spec = fine_ou
        phi0 = spec.state(0)
        w1 = derivative(drift.W)
        resid = derivative(phi0) + w1 * phi0
        # 7.9e-12 measured (5.3e-7 from the 3-point matrix's own vector)
        assert np.max(np.abs(resid.values)) <= 1e-10 * np.max(np.abs(phi0.values))

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

    @pytest.mark.parametrize(
        "W", [lambda x: 1e200 * x**2, lambda x: 1.7e308 * np.sin(x)], ids=["square", "derivative"]
    )
    def test_overflowing_potential_rejected(self, W):
        # W'^2 (first) or the stencil of W' itself (second) overflows float64:
        # a ValueError naming the potential, raised before numpy can warn
        W = sample(make_grid(-1.0, 1.0, 41), W)
        with pytest.raises(ValueError, match=r"potential V = W'\^2 - W'' overflows float64"):
            build_hamiltonian(W)

    def test_resolution_guard(self, ou_grid):
        op = build_hamiltonian(sample(ou_grid, lambda x: x**2 / 4.0))
        with pytest.raises(ValueError, match="kmax"):
            solve_spectrum(op, ou_grid.n_points // 4)

    @pytest.mark.parametrize("a", [0.06, 0.07, 0.08, 0.1])
    def test_zero_mode_shift_resolves_tunnelling_split(self, a):
        # W = a (x^2 - 9)^2: on 2001 nodes the tunnelling split is resolved
        # but T's level 1 sits below zero, inside the stencil's O(h^2) ground
        # offset; the Numerov levels are shifted by their own ground level,
        # which keeps the split to the digits 4001 nodes give
        def op(n):
            return build_hamiltonian(sample(make_grid(-12.0, 12.0, n), lambda x: a * (x**2 - 9.0) ** 2))

        raw, _ = spectral._eigenpairs(op(2001), 3)
        assert -1e-3 < raw[0] < raw[1] < 0.0
        numerov, _ = spectral._fallback(op(2001), 3)
        coarse = solve_spectrum(op(2001), 3).energies
        assert coarse[0] == 0.0
        assert np.max(np.abs(coarse - (numerov - numerov[0]))) <= 1e-12
        assert coarse[1] == pytest.approx(solve_spectrum(op(4001), 3).energies[1], rel=1e-5)

    def test_levels_corrected_and_states_polished(self):
        # the energies are the refinement kernel's Numerov levels, started
        # from T's vectors at their corrected levels (T's levels with the
        # h^2/12 term), and taken before the zero-mode shift; the states are
        # its vectors, Numerov pencil eigenvectors to round-off
        op = _ou(1.0, 2001)
        levels, vectors = spectral._eigenpairs(op, 7)
        full = spectral._embedded(vectors)
        corrected = spectral._stencil_correction(op, levels, full)
        assert np.all(corrected > levels)
        numerov, states = spectral._numerov_eigenpairs(op, corrected, full)
        # the Numerov update moves the corrected levels by O(h^4): 3.0e-9 measured
        assert 1e-9 < np.max(np.abs(numerov - corrected)) < 1e-8
        spec = solve_spectrum(op, 7)
        assert np.max(np.abs(spec.energies - (numerov - numerov[0]))) <= 1e-12
        assert np.max(np.abs(spec.values - states.values)) <= 1e-11
        # 1.1e-16 measured; T's own vectors read 9.4e-9
        assert np.max(spectral._pencil_residual(op, spec.values)) <= 1e-14
        assert np.max(spectral._pencil_residual(op, full)) > 1e-10

    @pytest.mark.parametrize("a, b", [(0.1, 3.5), (0.2, 4.0)])
    def test_inseparable_wells_rejected(self, ou_grid, a, b):
        op = build_hamiltonian(sample(ou_grid, lambda x: a * (x**2 - b**2) ** 2))
        with pytest.raises(RuntimeError, match="resolution too coarse"):
            solve_spectrum(op, 7)


def _ou(gamma: float, n: int):
    return build_hamiltonian(ou_scenario(make_grid(-12.0, 12.0, n), gamma).W)


def _double_well(a: float):
    return build_hamiltonian(sample(make_grid(-12.0, 12.0, 2001), lambda x: a * (x**2 - 9.0) ** 2))


def _ou_errors(gamma: float, levels: int):
    def errors(n: int) -> np.ndarray:
        energies = solve_spectrum(_ou(gamma, n), 7).energies[:levels]
        return energies - gamma * np.arange(levels)

    return errors


class TestFourthOrderLevels:
    """The Numerov levels converge at order 4: the max error over the levels, 201-1601 nodes."""

    @pytest.mark.parametrize(
        "errors",
        [
            _ou_errors(1.0, 8),
            _ou_errors(2.0, 8),
            # levels 0-3 only: at gamma = 0.5 the states reach the walls at
            # +-12, and levels 5-7 level off at 7.8e-9 / 7.8e-8 / 6.3e-7 from
            # 2001 nodes on, a floor set by the Dirichlet walls, not the stencil
            _ou_errors(0.5, 4),
        ],
        ids=["ou-1", "ou-2", "ou-0.5-levels-0-3"],
    )
    def test_order_four(self, errors):
        worst = [np.max(np.abs(errors(n))) for n in (201, 401, 801, 1601)]
        orders = np.log2(np.divide(worst[:-1], worst[1:]))
        assert np.all((orders > 3.8) & (orders < 4.2)), worst

    def test_box_levels_exact(self):
        # V = 0 and the sampled sines are Numerov eigenvectors, so the box
        # levels are the pencil's closed form at every size,
        # mu_k = (12/h^2) (1 - cos t_k) / (5 + cos t_k) with t_k = (k+1) pi h,
        # order 4 against (k+1)^2 pi^2 but 2.0e-9 off at 1601 nodes, where
        # an order read off a ladder meets round-off; up to 7.2e-10 measured,
        # held to 1e-10 on the spectrum's scale as TestAgainstFullBisection is
        for n in (201, 401, 801, 1601, 2001):
            g = make_grid(0.0, 1.0, n)
            spec = solve_spectrum(build_hamiltonian(box_scenario(g).W), 3)
            cos = np.cos((np.arange(4) + 1) * math.pi * g.h)
            exact = 12.0 / g.h**2 * (1.0 - cos) / (5.0 + cos)
            assert np.max(np.abs(spec.energies - exact)) <= 1e-10 * max(1.0, exact[-1]), n


def _ou_state_errors(gamma: float, states: int, window: float = 12.0):
    def errors(n: int) -> np.ndarray:
        grid = make_grid(-12.0, 12.0, n)
        spec = solve_spectrum(_ou(gamma, n), 7)
        inside = np.abs(grid.x) <= window
        return np.array(
            [np.max(np.abs(spec.values[k] - ou_reference_state(grid, k, gamma).values)[inside]) for k in range(states)]
        )

    return errors


class TestFourthOrderStates:
    """The polished states converge at order 4 to the closed forms: the sup error over the states, 201-1601 nodes."""

    @pytest.mark.parametrize(
        "errors",
        [
            _ou_state_errors(1.0, 8),
            _ou_state_errors(2.0, 8),
            # states 0-2 on |x| <= 8 only: at gamma = 0.5 the Dirichlet walls
            # at +-12 hold each state at zero where the Hermite function is
            # not (8e-9 for state 0, 1.9e-6 for state 3 at the wall), and state
            # 3 levels off at 5.7e-10 on |x| <= 8 from 1601 nodes on
            _ou_state_errors(0.5, 3, window=8.0),
        ],
        ids=["ou-1", "ou-2", "ou-0.5-states-0-2"],
    )
    def test_order_four(self, errors):
        worst = [np.max(errors(n)) for n in (201, 401, 801, 1601)]
        orders = np.log2(np.divide(worst[:-1], worst[1:]))
        assert np.all((orders > 3.8) & (orders < 4.2)), worst

    def test_box_states_exact(self):
        # sampled sines are eigenvectors of both the 3-point and the Numerov
        # matrix, so the box has no discretization error to converge: the
        # states match sqrt(2) sin((k+1) pi x) to round-off at every size
        for n in (201, 401, 801, 1601):
            g = make_grid(0.0, 1.0, n)
            spec = solve_spectrum(build_hamiltonian(box_scenario(g).W), 3)
            exact = np.sqrt(2.0) * np.sin(np.outer(np.arange(1, 5), math.pi * g.x))
            assert np.max(np.abs(spec.values - exact)) <= 1e-11

    @pytest.mark.parametrize("a", [0.06, 0.07])
    def test_tunnelling_pair_orthonormal_and_symmetric(self, a):
        # deflation keeps the refined vectors of a pair this close l2-
        # orthogonal, and the Gram-Schmidt pass makes them Simpson-orthonormal
        spec = solve_spectrum(_double_well(a), 7)
        w = simpson_weights(spec.grid)
        gram = (spec.values * w) @ spec.values.T
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-12
        parity = (-1.0) ** np.arange(8)[:, None]
        # measured 4.2e-9 (a = 0.06) and 2.1e-9 (a = 0.07): round-off mixes
        # a pair in proportion to ||T|| / split (1.0e-9 and 6.1e-10 from T's
        # vectors after one refinement step)
        assert np.max(np.abs(spec.values[:, ::-1] - parity * spec.values)) <= 1e-8


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
        # each matrix bisected, the coarse one of the nested route and the
        # fine one of the fallback, escalates only for close levels
        op = make_op()
        tols = {}
        bisect = spectral._bisect

        def recording(op, count, tol):
            tols.setdefault(op.grid.n_points, []).append(tol)
            return bisect(op, count, tol)

        monkeypatch.setattr(spectral, "_bisect", recording)
        solve_spectrum(op, 0)
        expected = [spectral.ISOLATION_TOL, 0.0] if escalates else [spectral.ISOLATION_TOL]
        assert tols and all(t == expected for t in tols.values()), tols


def _operator(grid, V: np.ndarray):
    """The 3-point operator of a sampled V, assembled as ``build_hamiltonian`` assembles it."""
    h = grid.h
    return spectral.SchrodingerOperator(
        grid, GridFunction(grid, V), 2.0 / h**2 + V[1:-1], np.full(grid.n_points - 3, -1.0 / h**2)
    )


def _assert_routes_agree(op, nested, kmax: int):
    """Nested eigenpairs against the fallback's: levels to 1e-11 relative, states to 1e-9.

    The fallback is solved one level higher, so that every level's gap is
    known.  A state within CLUSTER_GAP of a neighbour (a tunnelling pair) is
    fixed only up to a rotation within its cluster, which round-off sets in
    proportion to ||T|| / gap on either route: such a state must lie in the
    span of the fallback's cluster to 1e-9.
    """
    energies, states = nested
    ref_e, ref_s = spectral._fallback(op, kmax + 1)
    assert np.max(np.abs(energies - ref_e[: kmax + 1]) / np.maximum(1.0, np.abs(ref_e[: kmax + 1]))) <= 1e-11
    cluster = np.r_[0, np.cumsum(np.diff(ref_e) >= spectral.CLUSTER_GAP)]
    w = simpson_weights(op.grid)
    for k, phi in enumerate(states.values):
        span = ref_s.values[cluster == cluster[k]]
        if len(span) == 1:
            err = np.max(np.abs(phi - span[0]))
        else:
            err = np.max(np.abs(phi - ((phi * w) @ span.T) @ span))
        assert err <= 1e-9, (k, err)


class TestNestedRoute:
    """The coarse-to-fine route against the fallback from the fine T's own eigenpairs."""

    @pytest.mark.parametrize("make_op, kmax", REFERENCE_CASES)
    def test_routes_agree(self, make_op, kmax):
        # the refinement from the coarse starts agrees with the fallback
        # whether certified or not; it is declined only for a tunnelling
        # pair, which straddles the cut between coarse levels kmax and
        # kmax+1 (the wells at kmax 0) or is closer than the certification
        # separates levels (a = 0.1: 2.9e-7 apart)
        op = make_op()
        levels, starts, cut = spectral._coarse_start(op, kmax)
        refined = spectral._numerov_eigenpairs(op, levels, starts)
        _assert_routes_agree(op, refined, kmax)
        nested = spectral._nested(op, kmax)
        if nested is None:
            assert np.min(np.diff([*levels, 2.0 * cut - levels[-1]])) < spectral.CLUSTER_GAP
        else:
            assert nested[0].tobytes() == refined[0].tobytes()
            assert nested[1].values.tobytes() == refined[1].values.tobytes()

    @pytest.mark.parametrize(
        "centre, width, depth, rejected_by",
        [(6.0, 0.03, 200.0, "count"), (0.048, 0.01, 200.0, "residual")],
        ids=["extra-level", "unconverged"],
    )
    def test_unresolved_spike_falls_back(self, centre, width, depth, rejected_by):
        # a well narrower than the coarse spacing (0.096 on 251 nodes), centred
        # midway between two coarse nodes, which the coarse solve cannot see.
        # At x = 6 it binds one more level below the cut, and the refined
        # levels are converged pencil eigenpairs, below the cut and
        # increasing, so only the Sturm count of T rejects them.  At the
        # centre it binds a level and raises the even ones, so the coarse
        # starts match no fine pair and the refinement does not converge.
        # Either way the nested route declines and the fallback's result is
        # returned.
        g = make_grid(-12.0, 12.0, 2001)
        op = _operator(g, g.x**2 / 2.0 - depth * np.exp(-(((g.x - centre) / width) ** 2)))
        levels, starts, cut = spectral._coarse_start(op, 7)
        energies, states = spectral._numerov_eigenpairs(op, levels, starts)
        assert energies[-1] < cut and np.all(np.diff(energies) > 0)
        converged = np.max(spectral._pencil_residual(op, states.values)) <= spectral.RESIDUAL_TOL
        assert converged == (rejected_by == "count")
        assert spectral._nested(op, 7) is None
        spec = solve_spectrum(op, 7)
        fallback_e, fallback_s = spectral._fallback(op, 7)
        assert spec.energies.tobytes() == fallback_e.tobytes()
        assert spec.values.tobytes() == fallback_s.values.tobytes()
        # the fallback holds the bound level that the refinement missed
        assert spec.energies[0] < energies[0] - 1.0

    def test_level_above_the_cut_declined(self):
        # T's level 7 lies O(h^2) below the pencil's: a cut between the two
        # still counts kmax+1 levels of T below it, and the refined level 7
        # above it is refused
        op = _ou(1.0, 2001)
        energies, states = spectral._fallback(op, 7)
        t_levels, _ = spectral._eigenpairs(op, 7)
        assert spectral._certified(op, energies, states, energies[-1] + 0.5)
        assert not spectral._certified(op, energies, states, 0.5 * (t_levels[-1] + energies[-1]))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        lower=st.lists(st.floats(-1.0, 1.0), max_size=2),
        top=st.floats(0.1, 1.0),
        n=st.sampled_from([401, 1001, 2001]),
        kmax=st.integers(0, 7),
    )
    def test_confining_prepotentials(self, lower, top, n, kmax):
        # W = 64 sum_j a_j (x/8)^{2j} on [-8, 8], a_J > 0 the top coefficient:
        # single and double wells up to x^6, each term up to 64 at the walls.
        # When the nested route is taken it agrees with the fallback.
        coeffs = [*lower, top]
        g = make_grid(-8.0, 8.0, n)
        W = sample(g, lambda x: 64.0 * sum(a * (x / 8.0) ** (2 * j) for j, a in enumerate(coeffs, 1)))
        op = build_hamiltonian(W)
        nested = spectral._nested(op, kmax)
        if nested is not None:
            _assert_routes_agree(op, nested, kmax)


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
        with pytest.raises(ValueError, match=match):
            spectral.Basis._adopt(make_grid(0.0, 1.0, 11), np.array(values), support, energies=[0.0])

    @pytest.mark.parametrize("energies", [[0.0, 1.0], 0.0])
    def test_one_state_per_level(self, energies):
        with pytest.raises(ValueError, match="one state per level"):
            spectral.Basis(make_grid(0.0, 1.0, 11), [[1.0] * 11], energies=energies)
        with pytest.raises(ValueError, match="one state per level"):
            spectral.Basis._adopt(make_grid(0.0, 1.0, 11), np.ones((1, 11)), energies=energies)

    def test_adopted_basis_matches_a_copy_without_copying(self, ou_spectrum):
        g = ou_spectrum.grid
        built = np.array(ou_spectrum.values)
        copied = Spectrum(g, built, energies=ou_spectrum.energies)
        adopted = Spectrum._adopt(g, built, energies=ou_spectrum.energies)
        assert adopted.values is built and not built.flags.writeable
        assert adopted.values.tobytes() == copied.values.tobytes() and adopted.support == copied.support
        assert adopted.energies.tobytes() == copied.energies.tobytes() and not adopted.energies.flags.writeable
        # fields left out keep their defaults, and each spectrum keeps its own Wronskian states
        assert adopted.W is None and adopted._crum_memo == {} and adopted._crum_memo is not copied._crum_memo

    def test_producers_hand_over_their_stacks(self, ou_spectrum):
        from isofokker.darboux import build_chain

        chain = build_chain(ou_spectrum, 1)
        assert chain.stage_states[0].values is ou_spectrum.values
        assert chain.stage_states[1].values is ou_spectrum._crum_memo[1].values
        assert not chain.stage_states[1].values.flags.writeable

    def test_read_only_values_must_be_zero_outside_the_support(self, ou_spectrum):
        with pytest.raises(ValueError, match="not 0 outside the support"):
            spectral.Basis._adopt(ou_spectrum.grid, ou_spectrum.values, (500, 1500), energies=ou_spectrum.energies)

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


class TestGroundPrepotential:
    """The prepotential whose zero mode is a spectrum's ground state: W when known, else -ln|phi_0|."""

    def test_zero_mode_gives_the_solved_w(self, ou_spectrum):
        op = build_hamiltonian(ou_scenario(ou_spectrum.grid).W)
        spec = solve_spectrum(op, 3)
        assert spec.W is op.W and spec.energies[0] == 0.0
        assert ground_prepotential(spec) is op.W

    @pytest.mark.parametrize("scenario", ["box", "schwarzschild"])
    def test_wall_ground_state_gives_minus_log(self, scenario):
        if scenario == "box":
            drift = box_scenario(make_grid(0.0, 1.0, 401))
        else:
            drift = schwarzschild_potential(1.0 / (4.0 * math.pi), make_grid(0.1, 3.0, 581))
        spec = solve_spectrum(build_hamiltonian(drift.W), 3)
        assert spec.W is not None and spec.energies[0] > 1.0  # no zero mode under Dirichlet walls
        W = ground_prepotential(spec)
        ref = ground_state_to_drift(spec.state(0)).W
        assert W.support == ref.support and W.values.tobytes() == ref.values.tobytes()

    def test_spectrum_without_w_gives_minus_log(self, ou_spectrum):
        spec = Spectrum(ou_spectrum.grid, ou_spectrum.values, energies=ou_spectrum.energies)
        assert spec.W is None
        ref = ground_state_to_drift(ou_spectrum.state(0)).W
        assert ground_prepotential(spec).values.tobytes() == ref.values.tobytes()
