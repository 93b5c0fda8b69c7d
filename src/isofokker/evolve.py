"""Eigenfunction-expansion evolution of a Fokker-Planck density.

A unit-mass initial density expands as P(x,0) = phi_0 sum_k c_k phi_k with
c_k = int phi_k (phi_0^{-1} P) dx; each mode then relaxes with e^{-eps_k t}
(classical) or E_alpha(-eps_k t^alpha) (fractional).  Mass is conserved
exactly: int P dx = c_0 because both temporal factors equal 1 at eps = 0.
The Darboux partner and the deformed process use the same expansion over
their own bases (``_expansion``), renormalized to unit mass; each basis
keeps its states as one array, so a density is one matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, divide, integrate, simpson_weights
from .mittag import ml_relaxation
from .spectral import Basis, Spectrum

__all__ = ["TemporalRule", "FpeSolution", "project", "evolve_pdf", "moments", "truncation_residual"]


@dataclass(frozen=True)
class TemporalRule:
    """Temporal factor rule: exponential when ``alpha`` is None (classical), else Mittag-Leffler, 0 < alpha < 1."""

    alpha: float | None = None

    def __post_init__(self):
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"fractional rule needs alpha in (0, 1), got {self.alpha}")

    @classmethod
    def classical(cls) -> "TemporalRule":
        return cls()

    @classmethod
    def fractional(cls, alpha: float) -> "TemporalRule":
        return cls(float(alpha))  # None raises here instead of meaning classical

    def factors(self, energies, t: float) -> np.ndarray:
        """Factor e^{-eps t} or E_alpha(-eps t^alpha) at time t for every rate eps in ``energies``.

        A non-finite rate or one below -1e-8 raises; one in [-1e-8, 0) is a
        numerical zero mode and snaps to 0.
        """
        eps = np.asarray(energies, dtype=float)
        lo, hi = (eps.min(), eps.max()) if eps.size else (0.0, 0.0)  # NaN if an entry is
        if not (-np.inf < lo and hi < np.inf):
            raise ValueError(f"relaxation rate must be finite, got {eps[~np.isfinite(eps)][0]}")
        if lo < 0.0:
            if lo < -1e-8:
                raise ValueError(f"negative relaxation rate {lo}")
            eps = np.maximum(eps, 0.0)
        if self.alpha is not None:
            return ml_relaxation(self.alpha, eps, t)
        if not (np.isfinite(t) and t >= 0.0):  # 0 * inf would give NaN
            raise ValueError(f"time must be finite and non-negative, got {t}")
        return np.exp(-eps * t)


@dataclass(frozen=True, eq=False)
class FpeSolution:
    """Expansion coefficients over a spectrum plus a temporal rule.

    The coefficient count is checked where a density is formed (``_expansion``).
    """

    spectrum: Spectrum
    coeffs: np.ndarray
    temporal: TemporalRule

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))


def project(P0: GridFunction, spectrum: Spectrum) -> np.ndarray:
    """Expansion coefficients c_k = int phi_k (phi_0^{-1} P0) dx, k <= kmax.

    P0 must be a unit-mass density no heavier-tailed than the stationary one;
    a significant P0 where phi_0 has already underflowed means the expansion
    cannot represent it and is rejected.
    """
    if spectrum.energies[0] > 1e-6:
        raise ValueError(
            f"lowest level {spectrum.energies[0]} is positive: the zero mode e^-W is "
            "not an eigenstate (no stationary density), so the ground-state-prefactor "
            "expansion does not solve this equation"
        )
    vals = P0.values
    if np.min(vals) < -1e-9 * max(np.max(np.abs(vals)), 1e-300):
        raise ValueError("initial density has significant negative values")
    mass = integrate(P0)
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"initial density mass {mass} is not 1 within 1e-6")
    ratio = divide(P0, spectrum.state(0))
    a, z = ratio.support
    lost = np.abs(np.concatenate((vals[:a], vals[z:])))
    if np.max(lost, initial=0.0) > 1e-8 * np.max(np.abs(vals)):
        raise ValueError(
            "initial density has heavier tails than the stationary density; "
            "phi_0^{-1} P0 blows up near the walls"
        )
    return spectrum.values @ (simpson_weights(P0.grid) * ratio.values)


def _expansion(basis: Basis, coeffs, t: float, temporal: TemporalRule | None, normalize: bool) -> GridFunction:
    """Density phi_0 * sum_k c_k tau_k(t) phi_k over ``basis`` (ground state first).

    The one entry of every density: checks that ``coeffs`` fit the basis,
    takes the temporal factors tau_k of the basis energies from
    ``temporal`` (classical when None), and forms one product of the
    weights c_k tau_k with the first len(coeffs) rows, on the basis's
    support, outside which every row is 0 and so carries no mass.  With
    ``normalize`` the density is scaled to unit mass.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if len(coeffs) > len(basis):
        raise ValueError(f"got {len(coeffs)} coefficients for {len(basis)} states")
    factors = (temporal or TemporalRule()).factors(basis.energies[: len(coeffs)], t)
    values = basis.values[0] * ((coeffs * factors) @ basis.values[: len(coeffs)])
    if normalize:
        mass = float(simpson_weights(basis.grid) @ values)
        if abs(mass) < 1e-12:
            raise ValueError("expansion carries (near-)zero total mass; cannot normalize")
        values /= mass
    return GridFunction._adopt(basis.grid, values, basis.support)


def evolve_pdf(sol: FpeSolution, t: float) -> GridFunction:
    """Density at time t: phi_0 sum_k c_k phi_k tau_k(t); no renormalization needed."""
    return _expansion(sol.spectrum, sol.coeffs, t, sol.temporal, normalize=False)


def moments(P: GridFunction, orders) -> list[float]:
    """Raw moments int x^m P dx for each requested order."""
    w = simpson_weights(P.grid)
    x = P.grid.x
    return [float(w @ (x ** int(m) * P.values)) for m in orders]


def truncation_residual(sol: FpeSolution, P0: GridFunction) -> float:
    """L1 distance between P0 and its truncated expansion; reports expansion adequacy."""
    recon = evolve_pdf(sol, 0.0)
    w = simpson_weights(P0.grid)
    return float(w @ np.abs(P0.values - recon.values))
