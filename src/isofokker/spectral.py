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

from ._lapack import dstebz, dstein
from .grid import (
    Grid1D,
    GridFunction,
    _peak_run,
    derivative,
    hold_edges,
    interior_sign_changes,
    log_derivative,
    simpson_weights,
)

__all__ = [
    "DriftSpec",
    "SchrodingerOperator",
    "Basis",
    "Spectrum",
    "build_hamiltonian",
    "solve_spectrum",
    "ground_state_to_drift",
    "unit_states",
]


@dataclass(frozen=True, eq=False)
class DriftSpec:
    """Drift coefficient D and prepotential W, tied by D = -2 W'.

    The drift potential of the process is U = 2 W.
    """

    W: GridFunction
    D: GridFunction

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


@dataclass(frozen=True, eq=False, kw_only=True)
class Basis(GridFunction):
    """Eigenstates on one grid, ground state first, and their levels.

    A basis is a ``GridFunction`` stack: ``values`` holds the k states as
    one read-only (k, N) array, every state shares the one ``support``
    ((0, N) unless given), and grid operations act on each state along
    the last axis.  It adds only ``energies``, the k levels, given by
    keyword: ``Basis(grid, values, support, energies=...)``.  ``state(k)``
    and ``states`` build single-state grid functions on demand.
    """

    energies: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        energies = np.array(self.energies, dtype=float)
        if energies.ndim != 1 or self.values.shape[:-1] != energies.shape:
            raise ValueError(f"values of shape {self.values.shape} need one state per level {energies.shape}")
        energies.setflags(write=False)
        object.__setattr__(self, "energies", energies)

    def __len__(self) -> int:
        return len(self.energies)

    def state(self, k: int) -> GridFunction:
        return GridFunction(self.grid, self.values[k], self.support)

    @property
    def states(self) -> tuple[GridFunction, ...]:
        return tuple(self.state(k) for k in range(len(self)))


@dataclass(frozen=True, eq=False, kw_only=True)
class Spectrum(Basis):
    """Lowest eigenpairs, energies strictly increasing, states L2-normalized.

    Sign convention: each state rises positively off the left wall
    (phi_k'(c1) > 0), which makes downstream chains reproducible run to run.
    """

    # The Wronskian states of each n asked for, as one stack, keyed by n (see
    # darboux.crum_states; a chain's first stage reads n = 1); safe to keep
    # because the spectrum is frozen.
    _crum_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def kmax(self) -> int:
        return len(self) - 1


def unit_states(f: GridFunction) -> GridFunction:
    """Each function of ``f``, one state or a stack, at unit Simpson norm and leftmost lobe positive.

    Eigenstates are fixed only up to scale and sign; this is the one rule
    that fixes both.  Each function is divided by its own norm
    sqrt(w @ (f * f)), w the Simpson weights, and then negated if its
    leftmost sample above 1e-3 of its peak |f| is negative (phi'(c1) > 0
    for a state rising off the left wall).  The support is kept.  A zero
    or non-finite norm raises ValueError.
    """
    values = np.array(f.values)
    rows = values.reshape(-1, values.shape[-1])
    w = simpson_weights(f.grid)
    for row in rows:  # one dot per function: a state's bits do not depend on its stack
        nrm = np.sqrt(float(w @ (row * row)))
        if nrm == 0.0 or not np.isfinite(nrm):
            raise ValueError("cannot normalize: zero or non-finite norm")
        row /= nrm
        absv = np.abs(row)
        if row[np.argmax(absv > 1e-3 * absv.max())] < 0:
            row *= -1.0
    return GridFunction(f.grid, values, f.support)


def build_hamiltonian(W: GridFunction) -> SchrodingerOperator:
    """Assemble H = -d2/dx2 + W'^2 - W'' on the grid of W.

    The second-order stencil gives diag_i = 2/h^2 + V(x_i) and
    offdiag = -1/h^2 with Dirichlet ends.
    """
    w1 = derivative(W)
    w2 = derivative(w1)
    V = w1 * w1 - w2
    vals = hold_edges(V)
    V = GridFunction(W.grid, vals)
    h = W.grid.h
    diag = 2.0 / h**2 + vals[1:-1]
    offdiag = np.full(W.grid.n_points - 3, -1.0 / h**2)
    return SchrodingerOperator(W.grid, V, diag, offdiag)


# A computed ground energy this close to zero is the zero mode of a
# probability-conserving process, off by pure stencil error.
ZERO_MODE_SNAP = 1e-3
# Absolute accuracy of the first bisection: enough to isolate each level
# for inverse iteration, whose Rayleigh quotients then give the energies.
ISOLATION_TOL = 1e-5
# Levels closer than this are bisected again to full precision, so that
# inverse iteration can tell them apart (a tunnelling pair, say).
CLUSTER_GAP = 1e-3


def _bisect(op: SchrodingerOperator, count: int, tol: float):
    """Lowest ``count`` eigenvalues to absolute accuracy ``tol`` (0: full precision).

    LAPACK stebz with Sturm-sequence bracketing, block-ordered as stein
    takes them; returns (eigenvalues, iblock, isplit).
    """
    m, w, iblock, isplit, info = dstebz(op.diag, op.offdiag, 2, 0.0, 0.0, 1, count, tol, "B")
    if info != 0 or m != count:
        raise RuntimeError(f"eigensolver did not converge: LAPACK stebz info {info}")
    return w[:m], iblock, isplit


def _rayleigh(op: SchrodingerOperator, vectors: np.ndarray) -> np.ndarray:
    """v^T T v for each unit column v of ``vectors``."""
    tv = op.diag[:, None] * vectors
    tv[:-1] += op.offdiag[:, None] * vectors[1:]
    tv[1:] += op.offdiag[:, None] * vectors[:-1]
    return np.einsum("ik,ik->k", vectors, tv)


def _eigenpairs(op: SchrodingerOperator, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest kmax+1 eigenvalues and unit interior eigenvectors, before the zero-mode shift."""
    levels, iblock, isplit = _bisect(op, kmax + 2, ISOLATION_TOL)
    if np.min(np.diff(levels)) < CLUSTER_GAP:
        levels, iblock, isplit = _bisect(op, kmax + 1, 0.0)
        if np.any(np.diff(levels) <= 0):
            raise RuntimeError("levels coincide at full precision; resolution too coarse")
    vectors, info = dstein(op.diag, op.offdiag, levels[: kmax + 1], iblock, isplit)
    if info != 0:
        raise RuntimeError(f"eigensolver did not converge: LAPACK stein info {info}")
    return _rayleigh(op, vectors), vectors


def solve_spectrum(op: SchrodingerOperator, kmax: int) -> Spectrum:
    """Lowest kmax+1 eigenpairs of the tridiagonal operator.

    Bisection with Sturm-sequence bracketing (LAPACK stebz) locates the
    lowest kmax+2 levels to an absolute ISOLATION_TOL, enough to isolate
    them for inverse iteration.  Only when two of them lie within
    CLUSTER_GAP of each other are the lowest kmax+1 bisected again to full
    precision; levels that are still equal raise RuntimeError.  Inverse
    iteration (LAPACK stein) gives the states, and the energies are their
    Rayleigh quotients v^T T v.  States are embedded with Dirichlet zeros
    and put in unit form by ``unit_states``.

    A ground energy e_0 within discretization error of zero is the zero
    mode: the factorized operator of a conservative process is non-negative
    with the stationary state as exact zero mode, and the second-order
    stencil otherwise leaks an O(h^2) offset into every temporal factor.
    Then e_0 is subtracted from every level, which puts the ground level at
    0 and keeps each gap, a tunnelling split smaller than |e_0| included.
    The energies returned must be strictly increasing; levels the grid
    cannot resolve raise RuntimeError.
    """
    n = op.grid.n_points
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    if not kmax + 1 < n / 4:
        raise ValueError(f"kmax={kmax} too large for {n} nodes (need kmax+1 < n/4)")
    energies, vectors = _eigenpairs(op, kmax)
    if abs(energies[0]) <= ZERO_MODE_SNAP:
        energies -= energies[0]
    if np.any(np.diff(energies) <= 0):
        raise RuntimeError("eigenvalues not strictly increasing; resolution too coarse")
    full = np.zeros((kmax + 1, n))
    full[:, 1:-1] = vectors.T
    return Spectrum(op.grid, unit_states(GridFunction(op.grid, full)).values, energies=energies)


def ground_state_to_drift(phi0: GridFunction) -> DriftSpec:
    """Recover the drift of the process whose stationary density is phi0^2.

    D = 2 (ln|phi0|)' and W = -ln phi0, so that phi0 = e^{-W}.  The state
    must be node-free in the interior.  W is supported where the division
    by phi0 is (see ``grid.divide``), and D within that by the stencil.
    """
    if interior_sign_changes(phi0) > 0:
        raise ValueError("ground state has interior zeros; not a valid stationary state")
    D = 2.0 * log_derivative(phi0)
    a, z = _peak_run(phi0.values, phi0.support)
    W = np.zeros(phi0.grid.n_points)
    W[a:z] = -np.log(np.abs(phi0.values[a:z]))
    return DriftSpec(W=GridFunction(phi0.grid, W, (a, z)), D=D)
