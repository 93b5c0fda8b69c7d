"""n-step Darboux-Crum deletion of the lowest levels.

Each step factorizes the current operator through its ground state and
swaps the factors: the first-order operator A = d/dx - (ln|phi_g|)'
annihilates the ground state and maps every higher state to an eigenstate
of the partner, whose spectrum is the original one with the bottom level
removed.  Iterating n times deletes the lowest n levels; the same states
are also reachable in one shot as ratios of Wronskian determinants, and
both routes are implemented so they can cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import _expansion
from .grid import GridFunction, _below_floor, _stencil, interior_hole_fraction, log_derivative
from .spectral import Basis, DriftSpec, Spectrum, _unit_rows, ground_state_to_drift

__all__ = [
    "DarbouxChain",
    "build_chain",
    "darboux_step",
    "crum_states",
    "partner_drift",
    "partner_pdf",
]

# A stage with unreliable nodes on more than this fraction of the interior,
# not counting the wall-attached decaying tails, signals runaway mask
# contamination from repeated differentiation.
MAX_MASKED_FRACTION = 0.05


@dataclass(frozen=True, eq=False)
class DarbouxChain:
    """Stages of deleted-level bases.

    ``stage_states[s]`` is the basis at stage s (stage 0 is the base
    spectrum): its row j is phi_{s+j} and its energies are the shifted
    levels eps_k - eps_s for k >= s.
    """

    base: Spectrum
    stage_states: tuple[Basis, ...]

    @property
    def n_steps(self) -> int:
        return len(self.stage_states) - 1

    def state(self, s: int, k: int) -> GridFunction:
        """phi_k at stage s (k is the absolute level index, k >= s)."""
        if k < s:
            raise IndexError(f"level {k} was deleted before stage {s}")
        return self.stage_states[s].state(k - s)

    @property
    def kmax(self) -> int:
        return self.base.kmax


def darboux_step(chain: DarbouxChain) -> DarbouxChain:
    """Append one stage: delete the current ground level.

    New states are A phi_k = phi_k' - (ln|phi_g|)' phi_k for k above the
    deleted level, taken for all of them in one pass over the stage's rows,
    renormalized and sign-fixed; energies shift so the new stage ground
    sits at zero.  The stage shares the kernel (ln|phi_g|)'s mask, which
    covers the previous stage's mask and its stencil footprint.
    """
    s = chain.n_steps
    stage = chain.stage_states[s]
    if len(stage) < 2:
        raise ValueError("no levels left above the stage ground state")
    kernel = log_derivative(stage.state(0))
    if kernel.mask is not None and interior_hole_fraction(kernel.mask) > MAX_MASKED_FRACTION:
        raise ValueError(
            "masked-node contamination exceeds 5% of the interior; "
            "grid too coarse or state too noisy for another Darboux step"
        )
    above = stage.values[1:]
    rows = _stencil(above, stage.grid.h) - kernel.values * above
    energies = chain.base.energies[s + 1 :] - chain.base.energies[s + 1]
    new = Basis(stage.grid, energies, _unit_rows(stage.grid, rows, kernel.mask), kernel.mask)
    return DarbouxChain(base=chain.base, stage_states=chain.stage_states + (new,))


def build_chain(base: Spectrum, n_steps: int) -> DarbouxChain:
    """Delete the lowest n_steps levels by iterated first-order steps."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if n_steps > base.kmax:
        raise ValueError(f"cannot delete {n_steps} levels with kmax={base.kmax}")
    stage0 = Basis(base.grid, base.energies - base.energies[0], base.values, base.mask)
    chain = DarbouxChain(base=base, stage_states=(stage0,))
    for _ in range(n_steps):
        chain = darboux_step(chain)
    return chain


def _derivative_stack(values: np.ndarray, h: float, order: int) -> list[np.ndarray]:
    rows = [values]
    for _ in range(order):
        rows.append(_stencil(rows[-1], h))
    return rows


def _crum_cofactors(base: Spectrum, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cofactor ratios of the last-column expansion of W[phi_0..phi_{n-1}, phi_k].

    Along its phi_k column the numerator is sum_j C_j phi_k^(j), j = 0..n,
    with C_n = W[phi_0..phi_{n-1}] the denominator, so the ratio is
    phi_k^(n) + sum_{j<n} a_j phi_k^(j) with a_j = C_j / C_n for every k.
    By Cramer's rule the a_j solve sum_j a_j phi_i^(j) = -phi_i^(n) for
    i < n, which each node does by partially pivoted LU.  Returns the
    (n, nodes) ratios and the mask where the denominator underflows;
    computed once per (spectrum, n), and an n whose denominator fails the
    interior check raises and is not kept.
    """
    memo = base._crum_memo
    if n in memo:
        return memo[n]
    h = base.grid.h
    rows = np.array([_derivative_stack(base.values[i], h, n) for i in range(n)])  # (state, order, node)
    den = rows[0, 0].copy() if n == 1 else np.linalg.det(rows[:, :n].transpose(2, 1, 0))
    bad = _below_floor(den)
    if interior_hole_fraction(bad) > MAX_MASKED_FRACTION:
        raise ValueError("denominator Wronskian vanishes on more than 5% of the interior")
    system = np.where(bad[:, None, None], np.eye(n), rows[:, :n].transpose(2, 0, 1))
    ratios = np.linalg.solve(system, -rows[:, n].T[..., None])[..., 0].T
    ratios.setflags(write=False)
    bad.setflags(write=False)
    memo[n] = (ratios, bad)
    return ratios, bad


def crum_states(base: Spectrum, n: int, k: int) -> GridFunction:
    """State phi_k after deleting the lowest n levels, via Wronskian ratios.

    phi_k^{(n)} = W[phi_0..phi_{n-1}, phi_k] / W[phi_0..phi_{n-1}],
    normalized and sign-fixed, masked where the denominator Wronskian
    underflows.  The numerator is expanded along its phi_k column, with
    cofactors shared by every k at this n.  Independent of the
    iterated-step route on purpose.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if k < n:
        raise IndexError(f"level {k} is among the deleted ones (n={n})")
    if k > base.kmax:
        raise IndexError(f"level {k} beyond kmax={base.kmax}")
    ratios, bad = _crum_cofactors(base, n)
    rows = _derivative_stack(base.values[k], base.grid.h, n)
    vals = rows[n] + sum(a * row for a, row in zip(ratios, rows))
    return GridFunction(base.grid, _unit_rows(base.grid, vals, bad)[0], bad)


def partner_drift(chain: DarbouxChain, stage: int | None = None) -> DriftSpec:
    """Drift of the partner process after ``stage`` steps, from that stage's ground state.

    ``stage`` defaults to the last one, ``chain.n_steps``.  Stage ground
    states are node-free by construction; nodes here signal a construction
    bug and are rejected.
    """
    s = chain.n_steps if stage is None else stage
    if not 1 <= s <= chain.n_steps:
        raise ValueError(f"stage {s} outside 1..{chain.n_steps}")
    try:
        return ground_state_to_drift(chain.stage_states[s].state(0))
    except ValueError as exc:
        raise ValueError(f"stage-{s} ground state is not node-free: {exc}") from exc


def partner_pdf(chain: DarbouxChain, coeffs, t: float, temporal=None) -> GridFunction:
    """Partner-process density built from mapped expansion coefficients.

    P^(n)(x, t) ~ phi_n^(n) * sum_{k>=n} c_k phi_k^(n) tau_k(t) with
    tau_k the exponential (default) or Mittag-Leffler factor in the shifted
    energies eps_k - eps_n, normalized to unit mass.  ``coeffs`` are the
    projections of the original initial density on the base spectrum.
    """
    n = chain.n_steps
    if n < 1:
        raise ValueError("chain has no completed Darboux steps")
    used = np.asarray(coeffs, dtype=float)[n:]
    if not np.any(used):
        raise ValueError("all coefficients above the deleted levels vanish; no mass to evolve")
    return _expansion(chain.stage_states[n], used, t, temporal, normalize=True)
