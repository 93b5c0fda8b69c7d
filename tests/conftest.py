import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import isofokker.mittag as mittag
from isofokker import (
    build_chain,
    build_hamiltonian,
    make_grid,
    ou_scenario,
    sample,
    solve_spectrum,
)
from isofokker.grid import GridFunction, cumulative_integral, derivative
from isofokker.spectral import normalized, sign_fixed


@pytest.fixture(scope="session")
def ou_grid():
    return make_grid(-12.0, 12.0, 2001)


@pytest.fixture(scope="session")
def ou_drift(ou_grid):
    return ou_scenario(ou_grid)


@pytest.fixture(scope="session")
def ou_spectrum(ou_grid, ou_drift):
    return solve_spectrum(build_hamiltonian(ou_drift.W), 7)


@pytest.fixture(scope="session")
def ou_chain3(ou_spectrum):
    return build_chain(ou_spectrum, 3)


@pytest.fixture(scope="session")
def gaussian_ic(ou_grid):
    """Unit-mass Gaussian, mean 2, variance 1/2, on the OU grid."""
    return sample(ou_grid, lambda x: np.exp(-((x - 2.0) ** 2)) / math.sqrt(math.pi))


@pytest.fixture
def coarse_ml_rule(monkeypatch):
    """Swap in Mittag-Leffler contour rules too coarse to pass the convergence guard."""
    monkeypatch.setattr(mittag, "_RULE", mittag._half_rule(8))
    monkeypatch.setattr(mittag, "_GUARD_RULE", mittag._half_rule(6))


def align_sign(candidate, reference):
    """Flip candidate's sign to best match reference (states are defined up to sign)."""
    dot = float(candidate.values @ reference.values)
    return -candidate if dot < 0 else candidate


def ml_series_reference(alpha: float, z: float) -> float:
    """E_alpha(z) from its power series in arbitrary precision.

    The largest term is ~exp(|z|^(1/alpha)), so the working precision carries
    that many digits on top of the 30 kept; only moderate |z|^(1/alpha) is
    affordable.  For alpha = p/q, Gamma(alpha (k + q) + 1) =
    Gamma(alpha k + 1) (alpha k + 1) ... (alpha k + p), so the terms follow
    from q Gamma values by recurrence.
    """
    ratio = Fraction(alpha).limit_denominator(1000)
    if float(ratio) != alpha:
        raise ValueError(f"alpha = {alpha} is not p/q with q <= 1000")
    p, q = ratio.numerator, ratio.denominator
    loss = abs(z) ** (1.0 / alpha) / math.log(10.0)
    with mpmath.workdps(30 + int(loss)):
        a, x = mpmath.mpf(p) / q, mpmath.mpf(z)
        tiny = mpmath.mpf(10) ** -30
        terms = [x**k / mpmath.gamma(a * k + 1) for k in range(q)]
        total = mpmath.fsum(terms)
        xq = x**q
        k = 0
        while True:
            term = terms[k] * xq / mpmath.fprod(a * k + j for j in range(1, p + 1))
            terms.append(term)
            total += term
            if abs(term) < tiny:
                return float(total)
            k += 1


def eigenpairs_reference(op, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest kmax+1 eigenpairs of the tridiagonal operator, every level bisected to full precision.

    scipy's eigh_tridiagonal(select='i'): LAPACK stebz to eps * ||T||_1,
    then stein; unit interior eigenvectors as columns.
    """
    return eigh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(0, kmax))


def wronskian_reference(states) -> np.ndarray:
    """Pointwise Wronskian determinant of the given states, by LU per node.

    Rows are derivative orders 0..m-1 (repeated 4th-order differencing of
    the package), columns the states; each node's m x m determinant goes
    through LAPACK's partially pivoted LU.
    """
    m = len(states)
    if m == 1:
        return states[0].values.copy()
    mat = np.empty((states[0].grid.n_points, m, m))
    for i, f in enumerate(states):
        g = f
        mat[:, 0, i] = g.values
        for j in range(1, m):
            g = derivative(g)
            mat[:, j, i] = g.values
    return np.linalg.det(mat)


def _floored_ratio(num, den, floor: float):
    """num/den, masked where |den| < floor or either input is masked."""
    bad = (np.abs(den.values) < floor) | ~num.unmasked() | ~den.unmasked()
    vals = np.where(bad, 0.0, num.values / np.where(bad, 1.0, den.values))
    return GridFunction(num.grid, vals, bad)


def _peak_floor(f) -> float:
    """Division floor relative to the peak of f, for states decaying from an O(1) peak."""
    return 1e-12 * float(np.max(np.abs(f.values)))


def _wide_floor(f) -> float:
    """Division floor relative to the smallest reliable magnitude of f, for functions spanning decades."""
    vals = np.abs(f.values[f.unmasked()])
    return 1e-12 * float(np.min(vals[vals > 0.0]))


def _first_order(f, kernel, adjoint: bool):
    """Apply d/dx - kernel (or its formal adjoint -d/dx - kernel) to f."""
    df = derivative(f)
    return (-df if adjoint else df) - kernel * f


def reinstate_reference(chain, lambdas) -> list:
    """Deformed basis by chained reverse-Darboux operators, deepest level first.

    Each virtual state Phi_s = (I_s + lambda_s)/phi_s^{(s)} is pushed up
    with the chain's deletion operators A_j = d/dx - (ln phi_j^{(j)})' and
    back down with the reinstating adjoints already built; its log
    derivative defines B_s = d/dx - (ln|Phi_s^{-1}|)'.  Then
    phi^_s = B_0^+..B_{s-1}^+ Phi_s^{-1} for s < n and
    phi^_k = B_0^+..B_{n-1}^+ phi_k^{(n)} for k >= n, each unit-normalized
    and sign-fixed, masked wherever a division could not be trusted.
    Independent of the Gram-matrix route of ``reinstate`` on purpose.
    """
    n = len(lambdas)
    grounds = [chain.stage_states[s].state(0) for s in range(n)]
    a_kernels = [_floored_ratio(derivative(f), f, _peak_floor(f)) for f in grounds]
    dressed = [None] * n
    b_kernels = [None] * n
    for s in range(n - 1, -1, -1):
        ground = grounds[s]
        g = _floored_ratio(cumulative_integral(ground * ground) + lambdas[s], ground, _peak_floor(ground))
        for j in range(s + 1, n):
            g = _first_order(g, a_kernels[j], adjoint=False)
        for j in range(n - 1, s, -1):
            g = _first_order(g, b_kernels[j], adjoint=True)
        dressed[s] = g
        b_kernels[s] = -_floored_ratio(derivative(g), g, _wide_floor(g))
    ones = GridFunction(chain.base.grid, np.ones(chain.base.grid.n_points))
    states = []
    for s in range(n):
        f = _floored_ratio(ones, dressed[s], _wide_floor(dressed[s]))
        for j in range(s - 1, -1, -1):
            f = _first_order(f, b_kernels[j], adjoint=True)
        states.append(sign_fixed(normalized(f)))
    for k in range(n, chain.base.kmax + 1):
        f = chain.state(n, k)
        for j in range(n - 1, -1, -1):
            f = _first_order(f, b_kernels[j], adjoint=True)
        states.append(sign_fixed(normalized(f)))
    return states


def crum_reference(base, n: int, k: int):
    """phi_k after deleting n levels as the full Wronskian ratio, masked where the denominator underflows."""
    lowest = [base.state(i) for i in range(n)]
    num = wronskian_reference(lowest + [base.state(k)])
    den = wronskian_reference(lowest)
    bad = np.abs(den) < 1e-12 * np.max(np.abs(den))
    vals = np.where(bad, 0.0, num / np.where(bad, 1.0, den))
    return sign_fixed(normalized(GridFunction(base.grid, vals, bad)))
