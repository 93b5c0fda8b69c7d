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
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dstebz, dstein

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


class StateStack(NamedTuple):
    """The states of one basis as read-only rows, ground state first.

    ``values`` is (k, N); ``masks`` is the (k, N) stack of the states' masks,
    or None when no state carries one.
    """

    grid: Grid1D
    values: np.ndarray
    masks: np.ndarray | None


def _stack(states) -> StateStack:
    values = np.array([f.values for f in states])
    values.setflags(write=False)
    masks = None
    if any(f.mask is not None for f in states):
        masks = np.array([~f.unmasked() for f in states])
        masks.setflags(write=False)
    return StateStack(states[0].grid, values, masks)


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

    @cached_property
    def stack(self) -> StateStack:
        """The states as one (kmax+1, N) stack, built once."""
        return _stack(self.states)


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
    """Lowest kmax+1 eigenvalues and unit interior eigenvectors, before the zero-mode snap."""
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
    Rayleigh quotients v^T T v.  States are embedded with Dirichlet zeros,
    Simpson-normalized and sign-fixed.

    A ground energy within discretization error of zero is snapped to zero:
    the factorized operator of a conservative process is non-negative with
    the stationary state as exact zero mode, and the second-order stencil
    otherwise leaks an O(h^2) offset into every temporal factor.  The
    energies returned, after the snap, must be strictly increasing; levels
    the grid cannot resolve raise RuntimeError.
    """
    n = op.grid.n_points
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    if not kmax + 1 < n / 4:
        raise ValueError(f"kmax={kmax} too large for {n} nodes (need kmax+1 < n/4)")
    energies, vectors = _eigenpairs(op, kmax)
    if abs(energies[0]) <= ZERO_MODE_SNAP:
        energies[0] = 0.0
    if np.any(np.diff(energies) <= 0):
        raise RuntimeError("eigenvalues not strictly increasing; resolution too coarse")
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
