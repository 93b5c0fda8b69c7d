"""Multi-parameter isospectral deformation of a drift.

Deleting the lowest n levels with a Darboux-Crum chain and then
reinstating them through virtual states Phi_s = (I_s + lambda_s) / phi_s
yields a family of drifts, one per admissible parameter vector, whose
operators share the original spectrum exactly while every eigenstate is
deformed.  The reinstating (reverse-Darboux) operators
B_s = d/dx - (ln|Phi_s^{-1}|)' are applied as chained first-order
operators so per-level error stays controlled and testable.

Admissibility: with unit-normalized states each running integral
satisfies I_s(c2) = 1, so lambda_s must avoid the closed interval
[-1, 0]; otherwise Phi_s picks up an interior zero and its reciprocal is
no longer a normalizable ground state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .darboux import DarbouxChain
from .evolve import TemporalRule, _expansion
from .grid import GridFunction, cumulative_integral, derivative, divide, log_derivative
from .spectral import DriftSpec, StateStack, _stack, _unit_state, ground_state_to_drift

__all__ = [
    "IsoParams",
    "VirtualState",
    "IsoDeformation",
    "virtual_state",
    "reinstate",
    "iso_pdf",
]

ADMISSIBILITY_TOL = 1e-8


@dataclass(frozen=True)
class IsoParams:
    """Deformation parameters (lambda_0, ..., lambda_{n-1})."""

    lambdas: tuple[float, ...]

    def __init__(self, lambdas):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in lambdas))
        if not self.lambdas:
            raise ValueError("need at least one deformation parameter")

    def __len__(self) -> int:
        return len(self.lambdas)


@dataclass(frozen=True, eq=False)
class VirtualState:
    """Non-normalizable zero mode (I_s + lambda)/phi_s used to reinstate level s."""

    s: int
    lam: float
    Phi: GridFunction
    I: GridFunction


@dataclass(frozen=True, eq=False)
class IsoDeformation:
    """Dressed virtual states, reinstating kernels, and the deformed eigenbasis.

    ``b_kernels[s]`` holds (ln|Phi_s^{-1}|)' for the fully dressed Phi_s;
    ``states[k]`` is the deformed eigenstate at the original energy
    ``energies[k]``; ``drift`` is the deformed process's drift
    2 (ln|phi^_0|)', for one parameter D - 2 d/dx ln(I_0 + lambda_0).
    """

    params: IsoParams
    chain: DarbouxChain
    dressed_virtuals: tuple[GridFunction, ...]
    b_kernels: tuple[GridFunction, ...]
    states: tuple[GridFunction, ...]
    energies: np.ndarray
    drift: DriftSpec

    @cached_property
    def stack(self) -> StateStack:
        """The deformed states as one stack, built once."""
        return _stack(self.states)


def _check_admissible(lam: float, i_end: float, s: int) -> None:
    lo = -(i_end + ADMISSIBILITY_TOL)
    if lo <= lam <= 0.0:
        raise ValueError(
            f"lambda_{s} = {lam} lies in the excluded interval [{-i_end:.12g}, 0]; "
            "pick a value outside [-1, 0]"
        )


def _virtual_floor(f: GridFunction) -> float:
    """Division floor for virtual states, whose scale varies over many decades.

    Relative to the smallest reliable magnitude rather than the maximum, so
    the O(1) interior of a function that blows up at the walls stays usable.
    """
    vals = np.abs(f.values[f.unmasked()])
    return 1e-12 * float(np.min(vals[vals > 0.0]))


def _require_node_free(f: GridFunction, what: str) -> None:
    keep = f.unmasked()
    v = f.values[keep]
    significant = np.abs(v) > 1e-9 * float(np.median(np.abs(v)))
    signs = np.sign(v[significant])
    if np.any(signs[1:] != signs[:-1]):
        raise ValueError(
            f"{what} develops an interior zero; the parameter combination is inadmissible"
        )


def virtual_state(chain: DarbouxChain, s: int, lam: float) -> VirtualState:
    """Virtual state Phi_s(lambda) = (I_s + lambda)/phi_s at stage s.

    I_s is the running integral of the squared stage-s ground state, so
    I_s(c2) = 1 for the normalized stages kept in the chain.
    """
    if not 0 <= s <= chain.n_steps:
        raise IndexError(f"stage {s} not available in a {chain.n_steps}-step chain")
    ground = chain.stage_states[s][0]
    I = cumulative_integral(ground * ground)
    _check_admissible(lam, float(I.values[-1]), s)
    Phi = divide(I + lam, ground)
    return VirtualState(s=s, lam=lam, Phi=Phi, I=I)


def _first_order(f: GridFunction, kernel: GridFunction, adjoint: bool) -> GridFunction:
    """Apply d/dx - kernel (or its formal adjoint -d/dx - kernel) to f."""
    df = derivative(f)
    return (-df if adjoint else df) - kernel * f


def reinstate(chain: DarbouxChain, params: IsoParams) -> IsoDeformation:
    """Reinstate the n deleted levels through dressed virtual states.

    Works from the deepest level downward: each dressed
    Phi_s(lambda_s..lambda_{n-1}) is pushed up with the chain's deletion
    operators and back down with the already-built reinstating adjoints,
    defining the kernel of B_s.  The deformed basis follows as
    phi^_0 = Phi_0^{-1}, phi^_s = B_0^+..B_{s-1}^+ Phi_s^{-1} and
    phi^_k = B_0^+..B_{n-1}^+ phi_k^{(n)} for k >= n, each renormalized
    and sign-fixed.
    """
    n = len(params)
    if n > chain.n_steps:
        raise ValueError(f"{n} parameters but chain has only {chain.n_steps} steps")
    # deletion kernels (ln phi_s^{(s)})' for pushing virtual states up
    a_kernels = [log_derivative(chain.stage_states[s][0]) for s in range(n)]

    dressed: list[GridFunction | None] = [None] * n
    b_kernels: list[GridFunction | None] = [None] * n
    for s in range(n - 1, -1, -1):
        g = virtual_state(chain, s, params.lambdas[s]).Phi
        for j in range(s + 1, n):
            g = _first_order(g, a_kernels[j], adjoint=False)
        for j in range(n - 1, s, -1):
            g = _first_order(g, b_kernels[j], adjoint=True)
        _require_node_free(g, f"dressed virtual state at level {s}")
        dressed[s] = g
        b_kernels[s] = -log_derivative(g, floor=_virtual_floor(g))

    ones = GridFunction(chain.base.grid, np.ones(chain.base.grid.n_points))
    states: list[GridFunction] = []
    for s in range(n):
        f = divide(ones, dressed[s], floor=_virtual_floor(dressed[s]))
        for j in range(s - 1, -1, -1):
            f = _first_order(f, b_kernels[j], adjoint=True)
        states.append(_unit_state(f.grid, f.values, f.mask))
    for k in range(n, chain.kmax + 1):
        f = chain.state(n, k)
        for j in range(n - 1, -1, -1):
            f = _first_order(f, b_kernels[j], adjoint=True)
        states.append(_unit_state(f.grid, f.values, f.mask))

    drift = ground_state_to_drift(states[0])
    return IsoDeformation(
        params=params,
        chain=chain,
        dressed_virtuals=tuple(dressed),
        b_kernels=tuple(b_kernels),
        states=tuple(states),
        energies=chain.base.energies.copy(),
        drift=drift,
    )


def iso_pdf(deformation: IsoDeformation, coeffs, t: float, temporal=None) -> GridFunction:
    """Density of the deformed process carried by the deformed basis.

    Evaluates phi^_0 * sum_k c_k phi^_k tau_k(t) with the original energies
    in the temporal factors (exponential by default, Mittag-Leffler when a
    fractional rule is supplied), normalized to unit mass.  ``coeffs`` are
    projections of the initial density on the original spectrum; the lowest
    n modes re-enter through the reinstated states.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if len(coeffs) > len(deformation.states):
        raise ValueError(
            f"got {len(coeffs)} coefficients for {len(deformation.states)} deformed states"
        )
    rule = TemporalRule.classical() if temporal is None else temporal
    factors = rule.factors(deformation.energies[: len(coeffs)], t)
    return _expansion(deformation.stack, coeffs, factors, normalize=True)
