"""Schrodinger operator associated with a drift, and its low-lying spectrum.

A drift D(x) with unit diffusion defines a prepotential W through
D = -2 W'; the substitution P = e^{-W} e^{-eps t} phi turns the
Fokker-Planck equation into the eigenproblem of
H = -d^2/dx^2 + W'^2 - W''.  The stationary density is the squared,
node-free ground state, and the drift is recovered from any node-free
ground state as D = 2 (ln|phi_0|)'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .grid import (
    Grid1D,
    GridFunction,
    derivative,
    fill_masked,
    interior_sign_changes,
    log_derivative,
    simpson_weights,
)

__all__ = [
    "DriftSpec",
    "SchrodingerOperator",
    "Spectrum",
    "build_hamiltonian",
    "solve_spectrum",
    "ground_state_to_drift",
    "normalized",
    "sign_fixed",
]


@dataclass(frozen=True, eq=False)
class DriftSpec:
    """Drift coefficient D and prepotential W, tied by D = -2 W'.

    The drift potential of the process is U = 2 W.
    """

    W: GridFunction
    D: GridFunction

    @classmethod
    def from_prepotential(cls, W: GridFunction) -> "DriftSpec":
        return cls(W=W, D=-2.0 * derivative(W))

    @property
    def grid(self) -> Grid1D:
        return self.W.grid


@dataclass(frozen=True, eq=False)
class SchrodingerOperator:
    """Symmetric tridiagonal discretization of -d2/dx2 + V with Dirichlet walls.

    ``diag``/``offdiag`` cover the interior nodes only; V keeps full-grid samples.
    """

    grid: Grid1D
    V: GridFunction
    diag: np.ndarray
    offdiag: np.ndarray


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Lowest eigenpairs, energies strictly increasing, states L2-normalized.

    Sign convention: each state rises positively off the left wall
    (phi_k'(c1) > 0), which makes downstream chains reproducible run to run.
    """

    grid: Grid1D
    energies: np.ndarray
    states: tuple[GridFunction, ...]
    kmax: int
    # Work shared by every call at one n, keyed by n (see darboux.crum_states);
    # safe to keep because the spectrum is frozen and its states read-only.
    _crum_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def state(self, k: int) -> GridFunction:
        return self.states[k]


def _l2_norm(grid: Grid1D, values: np.ndarray) -> float:
    nrm = np.sqrt(float(simpson_weights(grid) @ (values * values)))
    if nrm == 0.0 or not np.isfinite(nrm):
        raise ValueError("cannot normalize: zero or non-finite norm")
    return float(nrm)


def _leads_negative(values: np.ndarray) -> bool:
    significant = np.abs(values) > 1e-3 * np.max(np.abs(values))
    return bool(values[int(np.argmax(significant))] < 0)


def normalized(f: GridFunction) -> GridFunction:
    """Scale to unit L2 norm under Simpson quadrature."""
    return f / _l2_norm(f.grid, f.values)


def sign_fixed(f: GridFunction) -> GridFunction:
    """Flip sign so the leftmost significant lobe is positive (phi'(c1) > 0)."""
    return -f if _leads_negative(f.values) else f


def _unit_state(grid: Grid1D, values: np.ndarray, mask: np.ndarray | None = None) -> GridFunction:
    """``sign_fixed(normalized(GridFunction(grid, values, mask)))``, built as one object."""
    v = np.asarray(values, dtype=float)
    if mask is not None:
        v = np.where(mask, 0.0, v)
    u = v / _l2_norm(grid, v)
    if _leads_negative(u):
        u = -u
    return GridFunction(grid, u, mask)


def build_hamiltonian(W: GridFunction) -> SchrodingerOperator:
    """Assemble H = -d2/dx2 + W'^2 - W'' on the grid of W.

    The second-order stencil gives diag_i = 2/h^2 + V(x_i) and
    offdiag = -1/h^2 with Dirichlet ends.
    """
    w1 = derivative(W)
    w2 = derivative(w1)
    V = w1 * w1 - w2
    vals = fill_masked(V)
    if not np.all(np.isfinite(vals)):
        raise ValueError("potential W'^2 - W'' is not finite on the grid")
    V = GridFunction(W.grid, vals)
    h = W.grid.h
    diag = 2.0 / h**2 + vals[1:-1]
    offdiag = np.full(W.grid.n_points - 3, -1.0 / h**2)
    return SchrodingerOperator(W.grid, V, diag, offdiag)


# A computed ground energy this close to zero is the zero mode of a
# probability-conserving process, off by pure stencil error.
ZERO_MODE_SNAP = 1e-3


def solve_spectrum(op: SchrodingerOperator, kmax: int) -> Spectrum:
    """Lowest kmax+1 eigenpairs of the tridiagonal operator.

    Eigenvalues by bisection with Sturm-sequence bracketing and eigenvectors
    by inverse iteration (LAPACK stebz/stein via scipy); states are embedded
    with Dirichlet zeros, Simpson-normalized and sign-fixed.

    A ground energy within discretization error of zero is snapped to zero:
    the factorized operator of a conservative process is non-negative with
    the stationary state as exact zero mode, and the second-order stencil
    otherwise leaks an O(h^2) offset into every temporal factor.
    """
    n = op.grid.n_points
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    if not kmax + 1 < n / 4:
        raise ValueError(f"kmax={kmax} too large for {n} nodes (need kmax+1 < n/4)")
    try:
        energies, vectors = eigh_tridiagonal(
            op.diag, op.offdiag, select="i", select_range=(0, kmax)
        )
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    if np.any(np.diff(energies) <= 0):
        raise RuntimeError("eigenvalues not strictly increasing; resolution too coarse")
    if abs(energies[0]) <= ZERO_MODE_SNAP:
        energies = energies.copy()
        energies[0] = 0.0
    states = []
    for k in range(kmax + 1):
        full = np.zeros(n)
        full[1:-1] = vectors[:, k]
        states.append(_unit_state(op.grid, full))
    return Spectrum(op.grid, energies, tuple(states), kmax)


def ground_state_to_drift(phi0: GridFunction) -> DriftSpec:
    """Recover the drift of the process whose stationary density is phi0^2.

    D = 2 (ln|phi0|)' and W = -ln phi0, so that phi0 = e^{-W}.  The state
    must be node-free in the interior.
    """
    if interior_sign_changes(phi0) > 0:
        raise ValueError("ground state has interior zeros; not a valid stationary state")
    ld = log_derivative(phi0)
    D = 2.0 * ld
    absv = np.abs(phi0.values)
    floor_mask = ~phi0.unmasked() | (absv < 1e-12 * np.max(absv))
    safe = np.where(floor_mask, 1.0, absv)
    W = GridFunction(phi0.grid, np.where(floor_mask, 0.0, -np.log(safe)), floor_mask)
    return DriftSpec(W=W, D=D)
