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
from isofokker.grid import GridFunction, derivative
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


def crum_reference(base, n: int, k: int):
    """phi_k after deleting n levels as the full Wronskian ratio, masked where the denominator underflows."""
    lowest = [base.state(i) for i in range(n)]
    num = wronskian_reference(lowest + [base.state(k)])
    den = wronskian_reference(lowest)
    bad = np.abs(den) < 1e-12 * np.max(np.abs(den))
    vals = np.where(bad, 0.0, num / np.where(bad, 1.0, den))
    return sign_fixed(normalized(GridFunction(base.grid, vals, bad)))
