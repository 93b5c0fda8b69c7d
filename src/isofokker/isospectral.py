"""Multi-parameter isospectral deformation of a drift.

Deleting the lowest n levels with a Darboux-Crum chain and reinstating
them with parameters lambda_0..lambda_{n-1} yields a family of drifts, one
per admissible parameter vector, whose operators share the original
spectrum exactly while every eigenstate is deformed.  The reverse
Darboux-Crum product has a closed form without derivatives (Abraham &
Moses, PRA 22 (1980) 1333; Pursey, PRD 33 (1986) 1048).  With the lowest
n original states phi_0..phi_{n-1} and the Gram matrix

    M(x) = Lambda + K(x),  Lambda = diag(lambda),  K_ij(x) = int_{c1}^x phi_i phi_j,

the reinstated states are (phi^_0..phi^_{n-1}) = M^{-1} (phi_0..phi_{n-1}),
every higher one is phi^_k = phi_k - sum_j phi^_j int_{c1}^x phi_j phi_k,
and the deformed potential is V - 2 (ln det M)''.

Admissibility: with unit-normalized states K(c2) = I, so each lambda_s
must avoid the closed interval [-1, 0].  Then 0 <= K(x) <= I gives
Lambda <= M(x) <= Lambda + I, so M(x) has as many negative eigenvalues as
Lambda at every x (Weyl's inequalities): det M keeps one sign and every
reinstated state stays finite and normalizable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .darboux import DarbouxChain
from .evolve import _expansion
from .grid import GridFunction, _solve_per_node, cumulative_integral
from .spectral import Basis, DriftSpec, ground_state_to_drift, unit_states

__all__ = [
    "IsoParams",
    "IsoDeformation",
    "reinstate",
    "iso_pdf",
]

ADMISSIBILITY_TOL = 1e-8


@dataclass(frozen=True)
class IsoParams:
    """Deformation parameters (lambda_0, ..., lambda_{n-1}), each finite."""

    lambdas: tuple[float, ...]

    def __init__(self, lambdas):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in lambdas))
        if not self.lambdas:
            raise ValueError("need at least one deformation parameter")
        for s, lam in enumerate(self.lambdas):
            if not math.isfinite(lam):
                raise ValueError(f"lambda_{s} = {lam} is not finite")

    def __len__(self) -> int:
        return len(self.lambdas)


@dataclass(frozen=True, eq=False, kw_only=True)
class IsoDeformation(Basis):
    """The deformed eigenbasis and drift.

    Row k is the deformed eigenstate at the original energy ``energies[k]``;
    ``drift`` is the deformed process's drift 2 (ln|phi^_0|)', for one
    parameter D - 2 d/dx ln(I_0 + lambda_0).
    """

    chain: DarbouxChain
    drift: DriftSpec


def _check_admissible(lam: float, i_end: float, s: int) -> None:
    lo = -(i_end + ADMISSIBILITY_TOL)
    if lo <= lam <= 0.0:
        raise ValueError(
            f"lambda_{s} = {lam} lies in the excluded interval [{-i_end:.12g}, 0]; "
            "pick a value outside [-1, 0]"
        )


def reinstate(chain: DarbouxChain, params: IsoParams) -> IsoDeformation:
    """Reinstate the n deleted levels of ``chain`` with parameters lambda_0..lambda_{n-1}.

    Forms the running integrals G_jk(x) = int_{c1}^x phi_j phi_k of the
    lowest n base states against every base state, solves
    M(x) y(x) = (phi_0..phi_{n-1})(x) with M = Lambda + G_{:, :n} by one
    elimination over all nodes, whose pivots also give det M(x), and takes
    phi^_j = y_j for j < n and phi^_k = phi_k - sum_j y_j G_jk for k >= n,
    each put in unit form by ``unit_states``.  A parameter in the excluded
    interval raises ValueError, and so does a det M(x) that changes sign on
    the grid, which admissible parameters cannot produce; the sign is
    checked before y is used.
    """
    n = len(params)
    if n > chain.n_steps:
        raise ValueError(f"{n} parameters but chain has only {chain.n_steps} steps")
    base = chain.base
    phi = base.values
    gram = cumulative_integral(GridFunction(base.grid, phi[:n, None] * phi)).values  # (n, kmax+1, nodes)
    for s, lam in enumerate(params.lambdas):
        _check_admissible(lam, float(gram[s, s, -1]), s)
    det, low = _solve_per_node(gram[:, :n] + np.diag(params.lambdas)[..., None], phi[:n])
    if not (np.all(det > 0.0) or np.all(det < 0.0)):
        raise ValueError("det M(x) changes sign on the grid; the parameter combination is inadmissible")
    high = phi[n:] - np.einsum("jx,jkx->kx", low, gram[:, n:])
    states = unit_states(GridFunction(base.grid, np.concatenate((low, high))))
    drift = ground_state_to_drift(GridFunction(base.grid, states.values[0]))
    return IsoDeformation(base.grid, states.values, energies=base.energies, chain=chain, drift=drift)


def iso_pdf(deformation: IsoDeformation, coeffs, t: float, temporal=None) -> GridFunction:
    """Density of the deformed process carried by the deformed basis.

    Evaluates phi^_0 * sum_k c_k phi^_k tau_k(t) with the original energies
    in the temporal factors (exponential by default, Mittag-Leffler when a
    fractional rule is supplied), normalized to unit mass.  ``coeffs`` are
    projections of the initial density on the original spectrum; the lowest
    n modes re-enter through the reinstated states.
    """
    return _expansion(deformation, coeffs, t, temporal, normalize=True)
