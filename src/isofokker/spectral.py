"""Schrodinger operator associated with a drift, and its low-lying spectrum.

A drift D(x) with unit diffusion defines a prepotential W through
D = -2 W'; the substitution P = e^{-W} e^{-eps t} phi turns the
Fokker-Planck equation into the eigenproblem of
H = -d^2/dx^2 + W'^2 - W''.  The stationary density is the squared,
node-free ground state, and the drift is recovered from any node-free
ground state as D = 2 (ln|phi_0|)'.

H is discretized by the 3-point stencil, whose eigenpairs are order 2 in h.
The levels take the stencil's leading error back out: each eigenvalue of
the tridiagonal matrix is raised by (h^2/12) int (phi_k'')^2 dx with
phi_k'' = (V - e_k) phi_k, the classical correction of finite-difference
Sturm-Liouville eigenvalues (Paine, de Hoog & Anderssen, Computing 26
(1981) 123), so the levels are order 4.  The states are the matrix's
eigenvectors after one inverse-iteration step at those levels on the
Numerov scheme, the matrix form of -phi'' + (V - e) phi = 0 that is order
4 on the same tridiagonal structure (Pillai, Goglio & Walker, Am. J. Phys.
80 (2012) 1017), so the states are order 4 too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._lapack import dgttrf, dgttrs, dstebz, dstein
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
    "ground_prepotential",
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

    ``diag``/``offdiag`` cover the interior nodes only; V keeps full-grid samples,
    and W is the prepotential V was built from, when known.
    """

    grid: Grid1D
    V: GridFunction
    diag: np.ndarray
    offdiag: np.ndarray
    W: GridFunction | None = field(default=None, repr=False)


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

    def _settle(self, values: np.ndarray) -> None:
        super()._settle(values)
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

    ``energies`` are the levels of -d2/dx2 + V to order h^4: the eigenvalues
    of the tridiagonal matrix plus the stencil correction of
    ``solve_spectrum``.  The states are order 4 too: the matrix's
    eigenvectors polished on the Numerov scheme, Simpson-orthonormal.

    Sign convention: each state rises positively off the left wall
    (phi_k'(c1) > 0), which makes downstream chains reproducible run to run.
    ``W`` is the prepotential whose operator gave the levels (``solve_spectrum``
    carries it over from the operator), or None when unknown.
    """

    W: GridFunction | None = field(default=None, repr=False)

    @property
    def kmax(self) -> int:
        return len(self) - 1

    @cached_property
    def _crum_memo(self) -> dict:
        """The Wronskian states of each n asked for, as one stack, keyed by n.

        See darboux.crum_states (a chain's first stage reads n = 1); safe to
        keep because the spectrum is frozen.
        """
        return {}


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
    return GridFunction._adopt(f.grid, values, f.support)


def build_hamiltonian(W: GridFunction) -> SchrodingerOperator:
    """Assemble H = -d2/dx2 + W'^2 - W'' on the grid of W.

    The second-order stencil gives diag_i = 2/h^2 + V(x_i) and
    offdiag = -1/h^2 with Dirichlet ends.  A prepotential whose W', W''
    or W'^2 - W'' overflows float64 raises ValueError.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            w1 = derivative(W)
            w2 = derivative(w1)
            V = w1 * w1 - w2
    except FloatingPointError as exc:
        raise ValueError(
            f"potential V = W'^2 - W'' overflows float64 for this prepotential W "
            f"(max |W| = {np.max(np.abs(W.values)):.3g}): {exc}"
        ) from None
    vals = hold_edges(V)
    V = GridFunction(W.grid, vals)
    h = W.grid.h
    diag = 2.0 / h**2 + vals[1:-1]
    offdiag = np.full(W.grid.n_points - 3, -1.0 / h**2)
    return SchrodingerOperator(W.grid, V, diag, offdiag, W)


# A computed ground energy this close to zero is the zero mode of a
# probability-conserving process, off by pure stencil error.
ZERO_MODE_SNAP = 1e-3
# Absolute accuracy of the first bisection: enough to isolate each level
# for inverse iteration, whose Rayleigh quotients then give the energies
# (CLUSTER_GAP / 10, so no level of a separated pair is taken for the other).
ISOLATION_TOL = 1e-4
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
    """Lowest kmax+1 eigenvalues of T and its unit interior eigenvectors, uncorrected and unshifted."""
    levels, iblock, isplit = _bisect(op, kmax + 2, ISOLATION_TOL)
    if np.min(np.diff(levels)) < CLUSTER_GAP:
        levels, iblock, isplit = _bisect(op, kmax + 1, 0.0)
        if np.any(np.diff(levels) <= 0):
            raise RuntimeError("levels coincide at full precision; resolution too coarse")
    vectors, info = dstein(op.diag, op.offdiag, levels[: kmax + 1], iblock, isplit)
    if info != 0:
        raise RuntimeError(f"eigensolver did not converge: LAPACK stein info {info}")
    return _rayleigh(op, vectors), vectors


def _stencil_correction(op: SchrodingerOperator, levels: np.ndarray, states: np.ndarray) -> np.ndarray:
    """T's levels e_k raised by (h^2/12) sum_i ((V_i - e_k) v_ik)^2 (see ``solve_spectrum``).

    ``states`` holds T's unit l2 vectors v as (kmax+1, N) rows with zero
    Dirichlet ends.
    """
    curvature = (op.V.values - levels[:, None]) * states
    return levels + op.grid.h**2 / 12.0 * np.einsum("ki,ki->k", curvature, curvature)


def _numerov_states(op: SchrodingerOperator, levels: np.ndarray, states: np.ndarray) -> GridFunction:
    """T's vectors polished to the Numerov scheme's eigenvectors, Simpson-orthonormal, in unit form.

    One inverse-iteration step per level on the Numerov pencil of
    -d2/dx2 + V on the interior nodes: (A - sigma_k B) x = B v_k with
    B = tridiag(1, 10, 1)/12, A = -tridiag(1, -2, 1)/h^2 + B diag(V) and
    sigma_k = ``levels[k]``, by one LAPACK gttrf/gttrs each.  Then one
    modified Gram-Schmidt pass in level order under the Simpson weights,
    and ``unit_states``.  ``states`` holds T's unit l2 vectors as
    (kmax+1, N) rows with zero Dirichlet ends.
    """
    off = -1.0 / op.grid.h**2
    shifted = (op.V.values[1:-1] - levels[:, None]) / 12.0
    rhs = (states[:, :-2] + 10.0 * states[:, 1:-1] + states[:, 2:]) / 12.0
    out = np.zeros_like(states)
    for k in range(len(levels)):
        s = shifted[k]
        dl, d, du, du2, ipiv, info = dgttrf(off + s[:-1], 10.0 * s - 2.0 * off, off + s[1:])
        if info == 0:
            out[k, 1:-1], info = dgttrs(dl, d, du, du2, ipiv, rhs[k])
        if info != 0:
            raise RuntimeError(f"Numerov inverse iteration failed: LAPACK gttrf/gttrs info {info}")
    w = simpson_weights(op.grid)
    weighted = np.empty_like(out)
    for k, x in enumerate(out):
        for j in range(k):
            x -= (weighted[j] @ x) * out[j]
        x /= np.sqrt(w @ (x * x))
        weighted[k] = w * x
    return unit_states(GridFunction._adopt(op.grid, out))


def solve_spectrum(op: SchrodingerOperator, kmax: int) -> Spectrum:
    """Lowest kmax+1 eigenpairs of the tridiagonal operator.

    Bisection with Sturm-sequence bracketing (LAPACK stebz) locates the
    lowest kmax+2 levels to an absolute ISOLATION_TOL, enough to isolate
    them for inverse iteration.  Only when two of them lie within
    CLUSTER_GAP of each other are the lowest kmax+1 bisected again to full
    precision; levels that are still equal raise RuntimeError.  Inverse
    iteration (LAPACK stein) gives T's vectors v_k, and T's eigenvalues e_k
    are their Rayleigh quotients v^T T v.

    The energies are not the e_k but the corrected levels
    e_k + (h^2/12) sum_i ((V_i - e_k) v_ik)^2 over the unit l2 vectors v:
    the 3-point stencil is d2/dx2 + (h^2/12) d4/dx4 + O(h^4), so e_k is low
    by (h^2/12) int (phi_k'')^2 dx, and phi_k'' = (V - e_k) phi_k needs no
    derivative.  This makes the levels order 4 (OU on 2001 nodes: 1.5e-8
    against 2.5e-4 for the e_k) at about 1% of the solve.

    The states are T's vectors after one inverse-iteration step per level
    on the Numerov pencil at the corrected level, before the zero-mode
    shift, with one Simpson-weighted Gram-Schmidt pass (``_numerov_states``).
    The corrected level lies within O(h^4) of the Numerov eigenvalue and
    T's vector within O(h^2) of its vector, so one step leaves ~1e-13: the
    states are order 4 (OU on 2001 nodes, states 0-7: 3.7e-9 against
    6.9e-5 for T's vectors) at about 20% of the solve.

    A corrected ground energy within discretization error of zero is the
    zero mode: the factorized operator of a conservative process is
    non-negative with the stationary state as exact zero mode, and the
    stencil otherwise leaks its residual offset into every temporal factor.
    Then it is subtracted from every level, which puts the ground level at
    0 and keeps each gap.  The energies returned must be strictly
    increasing; levels the grid cannot resolve raise RuntimeError.  The
    spectrum keeps the operator's W.
    """
    n = op.grid.n_points
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    if not kmax + 1 < n / 4:
        raise ValueError(f"kmax={kmax} too large for {n} nodes (need kmax+1 < n/4)")
    levels, vectors = _eigenpairs(op, kmax)
    full = np.zeros((kmax + 1, n))
    full[:, 1:-1] = vectors.T
    energies = _stencil_correction(op, levels, full)
    states = _numerov_states(op, energies, full)
    if abs(energies[0]) <= ZERO_MODE_SNAP:
        energies -= energies[0]
    if np.any(np.diff(energies) <= 0):
        raise RuntimeError("eigenvalues not strictly increasing; resolution too coarse")
    return Spectrum._adopt(op.grid, states.values, energies=energies, W=op.W)


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
    return DriftSpec(W=GridFunction._adopt(phi0.grid, W, (a, z)), D=D)


def ground_prepotential(spectrum: Spectrum) -> GridFunction:
    """The prepotential whose zero mode is the ground state of ``spectrum``.

    When the ground level is the zero mode of the prepotential W the levels
    were solved from (``solve_spectrum`` snapped it to exactly 0), that is
    W itself, known on every node.  Otherwise, for a ground state that
    vanishes at Dirichlet walls (the box, the thermal potential) or a
    spectrum with no W, it is -ln|phi_0|, read as ``ground_state_to_drift``
    reads it: supported where phi_0 clears the floor, 0 beyond.
    """
    if spectrum.W is not None and spectrum.energies[0] == 0.0:
        return spectrum.W
    return ground_state_to_drift(spectrum.state(0)).W
