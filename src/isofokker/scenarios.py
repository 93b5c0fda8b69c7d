"""Built-in drift scenarios with analytic reference data.

Ships the Ornstein-Uhlenbeck process, the zero-drift box, drifts loaded
from CSV samples, and the Schwarzschild thermal potential
U = int (T_h - T) dS over the horizon radius.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Grid1D, GridFunction, cumulative_integral, read_csv_columns, sample
from .spectral import DriftSpec

__all__ = [
    "ou_scenario",
    "ou_reference_state",
    "ou_transition",
    "box_scenario",
    "custom_drift",
    "hawking_temperature",
    "schwarzschild_potential",
]


def ou_scenario(grid: Grid1D, gamma: float = 1.0) -> DriftSpec:
    """Linear restoring drift D = -gamma x, prepotential W = gamma x^2 / 4.

    Closed-form reference: eigenvalues gamma*k, stationary variance 1/gamma.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    W = sample(grid, lambda x: gamma * x**2 / 4.0)
    D = sample(grid, lambda x: -gamma * x)
    return DriftSpec(W=W, D=D)


def _hermite(k: int, y: np.ndarray) -> np.ndarray:
    """Physicists' Hermite polynomial H_k(y) by H_{j+1} = 2y H_j - 2j H_{j-1}."""
    prev, cur = np.ones_like(y), 2.0 * y
    if k == 0:
        return prev
    for j in range(1, k):
        prev, cur = cur, 2.0 * y * cur - 2.0 * j * prev
    return cur


def ou_reference_state(grid: Grid1D, k: int, gamma: float = 1.0) -> GridFunction:
    """Closed-form eigenstate H_k(x sqrt(gamma/2)) e^{-gamma x^2/4}, unit L2 norm.

    Normalization is exact on the full line; on the truncated grid the tail
    mass is far below round-off for the shipped domains.  Odd states are
    flipped so every state rises positively off the left wall, matching the
    solver's sign convention.
    """
    s = math.sqrt(gamma / 2.0)
    # ||H_k(s x) e^{-s^2 x^2 / 2}||^2 = 2^k k! sqrt(pi) / s
    nrm = math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi) / s)
    if k % 2:
        nrm = -nrm
    return sample(grid, lambda x: _hermite(k, s * x) * np.exp(-gamma * x**2 / 4.0) / nrm)


def ou_transition(mean0: float, var0: float, t: float, gamma: float = 1.0) -> tuple[float, float]:
    """Mean and variance at time t for dx = -gamma x dt + sqrt(2) dW."""
    decay = math.exp(-gamma * t)
    return mean0 * decay, 1.0 / gamma + (var0 - 1.0 / gamma) * decay**2


def box_scenario(grid: Grid1D) -> DriftSpec:
    """Zero drift between absorbing walls: W = 0, so the potential is flat.

    Eigenvalues of the associated operator are ((k+1) pi / L)^2.  The zero
    mode e^{-W} = 1 is not an eigenstate here, so this scenario exercises the
    eigensolver and Darboux chains rather than the full stationary pipeline.
    """
    zeros = GridFunction(grid, np.zeros(grid.n_points))
    return DriftSpec(W=zeros, D=zeros)


def custom_drift(path) -> DriftSpec:
    """Drift from a two-column CSV (x, D), headered or not, sampled on a uniform grid.

    The drift lives on the grid of its samples.  W is recovered as
    -(1/2) * cumulative integral of D, so D = -2 W' holds by construction.
    """
    columns = read_csv_columns(path)
    if len(columns) != 2:
        raise ValueError(f"{path}: expected two columns (x, D)")
    x, d = columns.values()
    if len(x) < 3:
        raise ValueError(f"{path}: need at least 3 samples")
    h = np.diff(x)
    if np.any(h <= 0) or np.max(np.abs(h - h[0])) > 1e-9 * abs(h[0]):
        raise ValueError(f"{path}: x samples are not a uniform increasing grid")
    grid = Grid1D(float(x[0]), float(x[-1]), len(x))
    D = GridFunction(grid, d)
    W = -0.5 * cumulative_integral(D)
    return DriftSpec(W=W, D=D)


def hawking_temperature(r):
    """Hawking temperature T_h = 1/(4 pi r_h) of a Schwarzschild hole of horizon radius r_h."""
    return 1.0 / (4.0 * math.pi * r)


def schwarzschild_potential(T: float, grid: Grid1D) -> DriftSpec:
    """Drift induced by the Schwarzschild thermal potential U = int (T_h - T) dS.

    T_h = 1/(4 pi r_h) (:func:`hawking_temperature`) and S = pi r_h^2 give
    U = r_h/2 - pi T r_h^2 in closed form.  The drift potential is U = 2W,
    so W = U/2 and D = -U' = 2 pi T r_h - 1/2.
    """
    if T <= 0:
        raise ValueError(f"ensemble temperature must be positive, got {T}")
    if grid.c1 <= 0:
        raise ValueError("horizon-radius grid must be strictly positive")
    U = sample(grid, lambda r: 0.5 * r - math.pi * T * r**2)
    D = sample(grid, lambda r: 2.0 * math.pi * T * r - 0.5)
    return DriftSpec(W=0.5 * U, D=D)
