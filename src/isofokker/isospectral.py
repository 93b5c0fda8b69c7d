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

The deformed drift: when the base ground level is the zero mode of the
prepotential W the base was solved from (``spectral.ground_prepotential``),
the deformed prepotential is W^ = W + dW with dW = -ln|phi^_0 / phi_0|,
and D^ = -2 W^'.  The correction is bounded: phi^_0 / phi_0 tends to a
constant at each wall (at n = 1, dW = ln(lambda + K_00) up to a constant,
so D^ = D - 2 phi_0^2 / (lambda + K_00)), and it is held at its end values
where either ground state falls below the floor, so W^ and D^ are known on
every node.  Any other base (the box, the thermal potential, whose ground
states vanish at Dirichlet walls) takes W^ = -ln|phi^_0|, which is cut where
phi^_0 falls below the floor.  The states ``solve_spectrum`` returns are
order 4, and so is the deformed drift: on OU at 2001 nodes on [-12, 12],
the re-solved deformed levels miss the original ones by 3.4e-9 at
lambda = (0.5, 0.5) and 1.6e-8 at (0.5, -2, 0.3) (-ln|phi^_0|: 3.6e-9 and
1.7e-8).  The 3-point matrix's own, order-2 eigenvectors gave 1.5e-6 and
1.0e-5 there (-ln|phi^_0|: 4.5e-5 and 4.2e-5): their ground state's error
grows into the tails, and the ratio phi^_0 / phi_0 shares most of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .darboux import DarbouxChain
from .evolve import _expansion
from .grid import (
    GridFunction,
    _peak_run,
    _solve_per_node,
    cumulative_integral,
    derivative,
    divide,
    hold_edges,
    interior_sign_changes,
)
from .spectral import Basis, DriftSpec, Spectrum, ground_prepotential, ground_state_to_drift, unit_states

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
    ``drift`` is the deformed process's drift, whose stationary density is
    phi^_0^2: (W + dW, -2 (W + dW)') with the bounded dW = -ln|phi^_0/phi_0|
    when the base ground level is the zero mode of the base W, for one
    parameter D - 2 phi_0^2 / (K_00 + lambda_0); else W^ = -ln|phi^_0| and
    D^ = 2 (ln|phi^_0|)' (see the module docstring).
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
    each put in unit form by ``unit_states``.  The drift follows the rule
    of the module docstring.  A parameter in the excluded interval raises
    ValueError, and so does a det M(x) that changes sign on the grid, which
    admissible parameters cannot produce; the sign is checked before y is
    used.
    """
    n = len(params)
    if n > chain.n_steps:
        raise ValueError(f"{n} parameters but chain has only {chain.n_steps} steps")
    base = chain.base
    phi = base.values
    gram = cumulative_integral(GridFunction._adopt(base.grid, phi[:n, None] * phi)).values  # (n, kmax+1, nodes)
    for s, lam in enumerate(params.lambdas):
        _check_admissible(lam, float(gram[s, s, -1]), s)
    det, low = _solve_per_node(gram[:, :n] + np.diag(params.lambdas)[..., None], phi[:n])
    if not (np.all(det > 0.0) or np.all(det < 0.0)):
        raise ValueError("det M(x) changes sign on the grid; the parameter combination is inadmissible")
    high = phi[n:] - np.einsum("jx,jkx->kx", low, gram[:, n:])
    states = unit_states(GridFunction._adopt(base.grid, np.concatenate((low, high))))
    drift = _deformed_drift(base, GridFunction(base.grid, states.values[0]))
    return IsoDeformation._adopt(base.grid, states.values, energies=base.energies, chain=chain, drift=drift)


def _deformed_drift(base: Spectrum, ground: GridFunction) -> DriftSpec:
    """The drift whose stationary state is ``ground``, the deformed ground state of ``base``.

    When the base prepotential W is known (``ground_prepotential``), the
    deformed one is W^ = W + dW with the bounded correction
    dW = -ln|phi^_0 / phi_0|, taken on the run of nodes where both ground
    states clear the floor and held at the run's end values beyond it, and
    D^ = -2 W^' by ``derivative``.  Otherwise W^ = -ln|phi^_0| and
    D^ = 2 (ln|phi^_0|)' by ``ground_state_to_drift``.  A ground state with
    a node raises ValueError either way.
    """
    W = ground_prepotential(base)
    if W is not base.W:
        return ground_state_to_drift(ground)
    if interior_sign_changes(ground) > 0:
        raise ValueError("ground state has interior zeros; not a valid stationary state")
    ratio = divide(ground, base.state(0))  # on the run where phi_0 clears the floor
    a, z = _peak_run(ground.values, ratio.support)  # and phi^_0 as well
    dW = np.zeros(base.grid.n_points)
    dW[a:z] = -np.log(np.abs(ratio.values[a:z]))
    W_hat = W + hold_edges(GridFunction._adopt(base.grid, dW, (a, z)))
    return DriftSpec(W=W_hat, D=-2.0 * derivative(W_hat))


def iso_pdf(deformation: IsoDeformation, coeffs, t: float, temporal=None) -> GridFunction:
    """Density of the deformed process carried by the deformed basis.

    Evaluates phi^_0 * sum_k c_k phi^_k tau_k(t) with the original energies
    in the temporal factors (exponential by default, Mittag-Leffler when a
    fractional rule is supplied), normalized to unit mass.  ``coeffs`` are
    projections of the initial density on the original spectrum; the lowest
    n modes re-enter through the reinstated states.
    """
    return _expansion(deformation, coeffs, t, temporal, normalize=True)
