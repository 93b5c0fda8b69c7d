"""Independent verifiers for the spectral constructions.

Two cross-checks that share no code path with the eigenfunction machinery:
a Crank-Nicolson integrator of the drift-diffusion equation in conservative
flux form, and a Grunwald-Letnikov residual for the scalar fractional
temporal equation dT/dt = -eps D_t^{1-alpha} T whose exact solution is
the Mittag-Leffler relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dgttrf, dgttrs
from .grid import GridFunction, hold_edges, integrate
from .mittag import ml_relaxation
from .spectral import DriftSpec

__all__ = ["CnConfig", "cn_evolve", "gl_residual"]

# gl_residual measures on (BURN_FRACTION * t_end, t_end], past the startup layer
BURN_FRACTION = 0.1


@dataclass(frozen=True)
class CnConfig:
    """Crank-Nicolson run parameters.

    dt must not exceed the grid spacing: the scheme is unconditionally
    stable but its accuracy target assumes dt <= h.  The walls are
    reflecting (zero-flux).
    """

    dt: float
    t_end: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be non-negative")


def _flux_operator(drift: DriftSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tridiagonal generator of dP/dt = -d/dx (D P - dP/dx), flux at half nodes.

    Half-node drifts come from centered averaging; zero-flux boundary rows use
    half-width cells, which conserves the trapezoid mass identically.
    """
    grid = drift.grid
    h = grid.h
    n = grid.n_points
    d = hold_edges(drift.D)
    dh = 0.5 * (d[:-1] + d[1:])
    lower = np.zeros(n)
    diag = np.zeros(n)
    upper = np.zeros(n)
    diag[1:-1] = (0.5 * dh[:-1] - 0.5 * dh[1:] - 2.0 / h) / h
    lower[1:-1] = (0.5 * dh[:-1] + 1.0 / h) / h
    upper[1:-1] = (-0.5 * dh[1:] + 1.0 / h) / h
    diag[0] = -(dh[0] + 2.0 / h) / h
    upper[0] = (-dh[0] + 2.0 / h) / h
    diag[-1] = (dh[-1] - 2.0 / h) / h
    lower[-1] = (dh[-1] + 2.0 / h) / h
    return lower, diag, upper


def cn_evolve(drift: DriftSpec, P0: GridFunction, cfg: CnConfig) -> GridFunction:
    """Integrate the drift-diffusion equation directly to t_end.

    Crank-Nicolson on the conservative flux form; under the reflecting
    (zero-flux) walls the discrete mass is conserved to round-off and
    monitored every step.
    """
    grid = drift.grid
    n = grid.n_points
    h = grid.h
    if cfg.dt > h * (1.0 + 1e-12):
        raise ValueError(f"dt={cfg.dt} exceeds grid spacing h={h}")
    mass0 = integrate(P0)
    if abs(mass0 - 1.0) > 1e-6:
        raise ValueError(f"initial density mass {mass0} is not 1 within 1e-6")
    steps = int(round(cfg.t_end / cfg.dt))
    if abs(steps * cfg.dt - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
        raise ValueError("t_end must be an integer multiple of dt")

    lower, diag, upper = _flux_operator(drift)
    half = 0.5 * cfg.dt
    # LU of the tridiagonal A = I - (dt/2) L, factored once for every step
    dl, d, du, du2, ipiv, info = dgttrf(-half * lower[1:], 1.0 - half * diag, -half * upper[:-1])
    if info != 0:
        raise RuntimeError(f"Crank-Nicolson matrix is singular (LAPACK dgttrf info {info})")

    trapz = np.full(n, h)
    trapz[0] = trapz[-1] = 0.5 * h

    p = P0.values.copy()
    tmass0 = float(trapz @ p)
    for _ in range(steps):
        # I + (dt/2) L = 2I - A, so A^-1 (I + (dt/2) L) p = 2 A^-1 p - p: one solve, no product
        q, info = dgttrs(dl, d, du, du2, ipiv, p)
        if info != 0:  # pragma: no cover - only for malformed arguments
            raise RuntimeError(f"Crank-Nicolson linear solve failed: LAPACK dgttrs info {info}")
        q *= 2.0
        q -= p
        p = q
        if abs(float(trapz @ p) - tmass0) > 1e-6:
            raise RuntimeError(
                "mass drifted by more than 1e-6 under zero-flux boundaries; "
                "discretization bug or incompatible drift"
            )
    return GridFunction(grid, p)


def _gl_weights(mu: float, m: int) -> np.ndarray:
    """Grunwald-Letnikov weights (-1)^j binom(mu, j) for j = 0..m."""
    w = np.empty(m + 1)
    w[0] = 1.0
    for j in range(1, m + 1):
        w[j] = w[j - 1] * (1.0 - (mu + 1.0) / j)
    return w


def gl_residual(alpha: float, eps: float, dt: float, t_end: float) -> float:
    """Max residual of the discrete fractional temporal equation on the ML solution.

    Samples T(t) = E_alpha(-eps t^alpha) on the dt-grid, differences the left
    side first-order and discretizes the fractional derivative of order
    1-alpha with Grunwald-Letnikov weights.  The residual is measured on
    (BURN_FRACTION * t_end, t_end]: the first few nodes sit in a startup
    layer where T' itself is unbounded (T ~ 1 - c t^alpha), so the pointwise
    residual there does not shrink with dt.  Away from it the residual is
    O(dt).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if dt <= 0 or t_end <= dt:
        raise ValueError("need 0 < dt < t_end")
    m = int(round(t_end / dt))
    ts = np.arange(m + 1) * dt
    T = ml_relaxation(alpha, eps, ts)
    mu = 1.0 - alpha
    w = _gl_weights(mu, m)
    frac = np.convolve(w, T)[: m + 1] * dt ** (-mu)
    lhs = (T[1:] - T[:-1]) / dt
    residual = lhs + eps * frac[1:]
    keep = ts[1:] > BURN_FRACTION * t_end
    return float(np.max(np.abs(residual[keep])))
