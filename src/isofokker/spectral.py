"""Schrodinger operator associated with a drift, and its low-lying spectrum.

A drift D(x) with unit diffusion defines a prepotential W through
D = -2 W'; the substitution P = e^{-W} e^{-eps t} phi turns the
Fokker-Planck equation into the eigenproblem of
H = -d^2/dx^2 + W'^2 - W''.  The stationary density is the squared,
node-free ground state, and the drift is recovered from any node-free
ground state as D = 2 (ln|phi_0|)'.

H is discretized on the Numerov scheme, the matrix form of
-phi'' + (V - e) phi = 0 that is order 4 on the tridiagonal structure of
the 3-point stencil (Pillai, Goglio & Walker, Am. J. Phys. 80 (2012)
1017): the levels and states are the lowest eigenpairs of its pencil, both
order 4 in h.  They are found by nested iteration (Brandt, McCormick &
Ruge, SIAM J. Sci. Stat. Comput. 4 (1983) 244).  The 3-point matrix of the
same V on a coarse subgrid of the same walls is solved by bisection and
inverse iteration, its eigenvalues raised by the classical correction
(h^2/12) int (phi_k'')^2 dx of finite-difference Sturm-Liouville
eigenvalues (Paine, de Hoog & Anderssen, Computing 26 (1981) 123), and
each coarse pair, interpolated onto the grid, is refined by inverse
iteration on the fine pencil.  One Sturm count of the fine 3-point matrix
certifies that no level was missed.  When the count, the order of the
levels or the convergence of a pair fails, or the grid is too small to
coarsen, the same refinement starts from the fine 3-point matrix's own
eigenpairs instead.
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

    ``energies`` are the levels of -d2/dx2 + V to order h^4: the lowest
    eigenvalues of the Numerov pencil (see ``solve_spectrum``), shifted by
    the ground level when that is the zero mode.  The states are its
    eigenvectors, order 4 too, Simpson-orthonormal.

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
# Nested solve: the coarse grid keeps every r-th node, r the largest power
# of two that leaves an odd node count and at least this many intervals per
# coarse level solved (``_coarse_stride``): 251 nodes for kmax 7 on 1001,
# 2001 or 4001 nodes.  A grid that would keep every node is not coarsened.
COARSE_INTERVALS = 16
# Inverse-iteration steps per level on the Numerov pencil (``_numerov_eigenpairs``).
NUMEROV_STEPS = 2
# A nested state counts as converged when its Numerov pencil residual, for
# a unit vector, is below this fraction of ||T||_1 (``_pencil_residual``;
# converged states read <= 4e-16).
RESIDUAL_TOL = 1e-12


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
    """Lowest kmax+1 eigenvalues of T and its unit interior eigenvectors, uncorrected and unshifted.

    Bisection with Sturm-sequence bracketing (LAPACK stebz) locates the
    lowest kmax+2 levels to an absolute ISOLATION_TOL; only when two lie
    within CLUSTER_GAP of each other are the lowest kmax+1 bisected again to
    full precision, and levels still equal raise RuntimeError.  Inverse
    iteration (LAPACK stein) gives the vectors v, and the eigenvalues are
    their Rayleigh quotients v^T T v.
    """
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
    """T's levels e_k raised by (h^2/12) sum_i ((V_i - e_k) v_ik)^2: the refinement's starting shifts.

    The 3-point stencil is d2/dx2 + (h^2/12) d4/dx4 + O(h^4), so e_k is low
    by (h^2/12) int (phi_k'')^2 dx, and phi_k'' = (V - e_k) phi_k needs no
    derivative (Paine, de Hoog & Anderssen, Computing 26 (1981) 123).  The
    corrected level is order 4, within O(h^4) of the Numerov eigenvalue,
    which makes it the shift ``_numerov_eigenpairs`` starts from.
    ``states`` holds T's unit l2 vectors v as (kmax+1, N) rows with zero
    Dirichlet ends.
    """
    curvature = (op.V.values - levels[:, None]) * states
    return levels + op.grid.h**2 / 12.0 * np.einsum("ki,ki->k", curvature, curvature)


def _numerov_eigenpairs(
    op: SchrodingerOperator, levels: np.ndarray, states: np.ndarray
) -> tuple[np.ndarray, GridFunction]:
    """Numerov eigenpairs refined from starting pairs; the states Simpson-orthonormal, in unit form.

    The Numerov pencil of -d2/dx2 + V on the interior nodes is A y = mu B y
    with D2 = tridiag(1, -2, 1)/h^2, B = I + (h^2/12) D2 = tridiag(1, 10, 1)/12
    and A = -D2 + B diag(V).  B commutes with D2, so B^-1 A is symmetric:
    its eigenvectors are l2-orthogonal, and the inverse-iteration step
    (A - sigma B) y = B x is (B^-1 A - sigma) y = x.  Each level in turn,
    from sigma = ``levels[k]`` and x = ``states[k]`` at unit l2 norm, takes
    NUMEROV_STEPS such steps, by one LAPACK gttrf/gttrs each.  After each
    step y is deflated against the lower levels' refined vectors, then
    sigma <- sigma + (y.x)/(y.y), which is y's exact Rayleigh quotient, and
    x <- y/|y|.  A start within O(H^2) of the eigenvector at a shift within
    O(H^4) of its level, H the spacing the start was solved on, leaves
    ~H^6 after the first step and round-off after the second.  Then one
    modified Gram-Schmidt pass in level order under the Simpson weights,
    and ``unit_states``.  ``states`` holds the starting vectors as
    (kmax+1, N) rows with zero Dirichlet ends; returns the refined levels
    and the states.
    """
    off = -1.0 / op.grid.h**2
    v = op.V.values[1:-1]
    sigma = np.array(levels, dtype=float)
    out = np.zeros_like(states)
    refined = out[:, 1:-1]
    for k in range(len(sigma)):
        x = states[k, 1:-1] / np.sqrt(states[k, 1:-1] @ states[k, 1:-1])
        for _ in range(NUMEROV_STEPS):
            s = (v - sigma[k]) / 12.0
            dl, d, du, du2, ipiv, info = dgttrf(off + s[:-1], 10.0 * s - 2.0 * off, off + s[1:])
            if info == 0:
                bx = 10.0 * x
                bx[1:] += x[:-1]
                bx[:-1] += x[1:]
                y, info = dgttrs(dl, d, du, du2, ipiv, bx / 12.0)
            if info != 0:
                raise RuntimeError(f"Numerov inverse iteration failed: LAPACK gttrf/gttrs info {info}")
            y -= (refined[:k] @ y) @ refined[:k]
            yy = y @ y
            sigma[k] += (y @ x) / yy
            x = y / np.sqrt(yy)
        refined[k] = x
    w = simpson_weights(op.grid)
    weighted = np.empty_like(out)
    for k, x in enumerate(out):
        for j in range(k):
            x -= (weighted[j] @ x) * out[j]
        x /= np.sqrt(w @ (x * x))
        weighted[k] = w * x
    return sigma, unit_states(GridFunction._adopt(op.grid, out))


def _embedded(vectors: np.ndarray) -> np.ndarray:
    """Interior eigenvector columns as (k, N) rows with zero Dirichlet ends."""
    full = np.zeros((vectors.shape[1], vectors.shape[0] + 2))
    full[:, 1:-1] = vectors.T
    return full


def _norm1(op: SchrodingerOperator) -> float:
    """||T||_1, the scale of the operator's round-off."""
    return float(np.max(np.abs(op.diag))) + 2.0 / op.grid.h**2


def _pencil_residual(op: SchrodingerOperator, states: np.ndarray) -> np.ndarray:
    """min over mu of ||(A - mu B) x_k|| for each unit l2 row x_k of ``states``, over ||T||_1.

    Zero for an eigenvector of the Numerov pencil (A and B as in
    ``_numerov_eigenpairs``), whatever level it is paired with; the
    minimizing mu is (Bx.Ax)/(Bx.Bx).  ``states`` holds (kmax+1, N) rows
    with zero Dirichlet ends.
    """
    x = states / np.sqrt(np.einsum("ki,ki->k", states, states))[:, None]
    u = op.V.values * x
    bx = (x[:, :-2] + 10.0 * x[:, 1:-1] + x[:, 2:]) / 12.0
    ax = (2.0 * x[:, 1:-1] - x[:, :-2] - x[:, 2:]) / op.grid.h**2 + (u[:, :-2] + 10.0 * u[:, 1:-1] + u[:, 2:]) / 12.0
    ax -= (np.einsum("ki,ki->k", bx, ax) / np.einsum("ki,ki->k", bx, bx))[:, None] * bx
    return np.sqrt(np.einsum("ki,ki->k", ax, ax)) / _norm1(op)


def _coarse_stride(n_intervals: int, levels: int) -> int:
    """The coarse grid's node stride r for ``levels`` coarse levels (see COARSE_INTERVALS); 1 when too small."""
    r = 1
    while n_intervals % (4 * r) == 0 and n_intervals // (2 * r) >= COARSE_INTERVALS * levels:
        r *= 2
    return r


def _coarse_start(op: SchrodingerOperator, kmax: int) -> tuple[np.ndarray, np.ndarray, float] | None:
    """The nested route's starts: levels, (kmax+1, N) vectors, and the cut to certify them by.

    T of the same V on every r-th node (``_coarse_stride``) gives its
    lowest kmax+2 levels with the stencil correction and its vectors; the
    starts are levels 0..kmax and their vectors interpolated linearly onto
    the grid, and the cut lies midway between coarse levels kmax and
    kmax+1.  None when the grid is too small to coarsen or the coarse
    levels cannot be separated.
    """
    n = op.grid.n_points
    r = _coarse_stride(n - 1, kmax + 2)
    if r == 1:
        return None
    grid = Grid1D(op.grid.c1, op.grid.c2, (n - 1) // r + 1)
    V = op.V.values[::r]
    coarse = SchrodingerOperator(
        grid, GridFunction._adopt(grid, V), 2.0 / grid.h**2 + V[1:-1], np.full(grid.n_points - 3, -1.0 / grid.h**2)
    )
    try:
        levels, vectors = _eigenpairs(coarse, kmax + 1)
    except RuntimeError:
        return None
    vectors = _embedded(vectors)
    levels = _stencil_correction(coarse, levels, vectors)
    t = np.arange(r) / r
    lo, hi = vectors[: kmax + 1, :-1, None], vectors[: kmax + 1, 1:, None]
    starts = np.zeros((kmax + 1, n))
    starts[:, :-1] = (lo + (hi - lo) * t).reshape(kmax + 1, -1)
    return levels[: kmax + 1], starts, 0.5 * (levels[kmax] + levels[kmax + 1])


def _certified(op: SchrodingerOperator, energies: np.ndarray, states: GridFunction, cut: float) -> bool:
    """Whether refined nested pairs are the lowest ones (see ``solve_spectrum``)."""
    floor = np.min(op.V.values[1:-1]) - 1.0  # below every eigenvalue of T
    # an absolute tolerance as wide as (floor, cut] stops stebz at its counts
    count = dstebz(op.diag, op.offdiag, 1, floor, cut, 0, 0, cut - floor, "B")[0]
    return bool(
        count == len(energies)
        and energies[-1] < cut
        and np.all(np.diff(energies) > 3.0 * RESIDUAL_TOL * _norm1(op))
        and np.max(_pencil_residual(op, states.values)) <= RESIDUAL_TOL
    )


def _nested(op: SchrodingerOperator, kmax: int) -> tuple[np.ndarray, GridFunction] | None:
    """The Numerov eigenpairs refined from a coarse solve, or None when the route declines."""
    start = _coarse_start(op, kmax)
    if start is None:
        return None
    levels, starts, cut = start
    energies, states = _numerov_eigenpairs(op, levels, starts)
    return (energies, states) if _certified(op, energies, states, cut) else None


def _fallback(op: SchrodingerOperator, kmax: int) -> tuple[np.ndarray, GridFunction]:
    """The Numerov eigenpairs refined from T's own eigenvectors at their corrected levels."""
    levels, vectors = _eigenpairs(op, kmax)
    vectors = _embedded(vectors)
    return _numerov_eigenpairs(op, _stencil_correction(op, levels, vectors), vectors)


def solve_spectrum(op: SchrodingerOperator, kmax: int) -> Spectrum:
    """Lowest kmax+1 eigenpairs of the Numerov pencil of -d2/dx2 + V.

    The levels and states are order 4 in h (OU on 2001 nodes: levels off by
    1.16e-8, against 2.5e-4 for the 3-point matrix T's own eigenvalues and
    1.46e-8 for their stencil correction).  Two routes give them, and both
    end in the one refinement kernel, ``_numerov_eigenpairs``.

    The nested route (``_nested``) solves T of the same V on every r-th
    node (COARSE_INTERVALS) and refines each coarse pair on the fine pencil.
    Its result is taken only when certified (``_certified``): one Sturm
    count of the fine T finds exactly kmax+1 eigenvalues below the cut
    midway between coarse levels kmax and kmax+1; every refined level lies
    below that cut; every state is a converged pencil eigenvector
    (``_pencil_residual`` within RESIDUAL_TOL, which puts an eigenvalue
    within 1.5 RESIDUAL_TOL ||T||_1 of its level, as ||B^-1|| <= 1.5); and
    the levels increase by more than twice that, so that they are distinct.
    A feature of V that the coarse grid cannot see, say a well narrower
    than its spacing, fails the certification; so does a tunnelling pair
    that round-off cannot split, which the fallback refuses in turn.
    Otherwise, or when the grid is too small to coarsen, the fallback route
    (``_fallback``) refines the fine T's own eigenpairs (``_eigenpairs``:
    bisection, and full precision only for levels within CLUSTER_GAP) from
    their corrected levels.  Both routes agree to round-off where both
    apply (OU: levels within 3e-13).

    A ground energy within discretization error of zero is the zero mode:
    the factorized operator of a conservative process is non-negative with
    the stationary state as exact zero mode, and the stencil otherwise leaks
    its residual offset into every temporal factor.  Then it is subtracted
    from every level, which puts the ground level at 0 and keeps each gap.
    The energies returned must be strictly increasing; levels the grid
    cannot resolve raise RuntimeError.  The spectrum keeps the operator's W.
    """
    n = op.grid.n_points
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    if not kmax + 1 < n / 4:
        raise ValueError(f"kmax={kmax} too large for {n} nodes (need kmax+1 < n/4)")
    energies, states = _nested(op, kmax) or _fallback(op, kmax)
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
