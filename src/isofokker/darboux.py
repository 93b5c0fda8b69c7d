"""n-step Darboux-Crum deletion of the lowest levels.

Deleting the lowest n levels maps every higher state phi_k to the
Wronskian ratio W[phi_0..phi_{n-1}, phi_k] / W[phi_0..phi_{n-1}], an
eigenstate of the partner whose spectrum is the original one without
those levels (Crum, Q. J. Math. 6 (1955) 121).  One kernel evaluates the
ratio for every state of a basis at once.  At n = 1 it is the operator
A = d/dx - (ln|phi_0|)', which annihilates the ground state: iterated, it
builds a chain's stages, while ``crum_states`` takes the n-level ratio in
one shot from the base spectrum, so the two routes cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import _expansion
from .grid import GridFunction, _peak_run, _solve_per_node, derivative
from .spectral import Basis, DriftSpec, Spectrum, ground_state_to_drift, unit_states

__all__ = [
    "DarbouxChain",
    "build_chain",
    "darboux_step",
    "crum_states",
    "partner_drift",
    "partner_pdf",
]


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


def _delete_lowest(basis: Basis, n: int) -> GridFunction:
    """Rows k >= n of ``basis`` with its lowest n levels deleted, as one stack.

    Along its phi_k column W[phi_0..phi_{n-1}, phi_k] = sum_j C_j phi_k^(j),
    j = 0..n, with C_n the denominator W[phi_0..phi_{n-1}] (the ground row
    itself at n = 1).  So the ratio is phi_k^(n) + sum_{j<n} a_j phi_k^(j)
    for every k, where by Cramer's rule a_j = C_j / C_n solves
    sum_j a_j phi_i^(j) = -phi_i^(n), i < n.  One elimination per node gives
    both C_n, from its pivots, and the a_j.  The support is that of the
    n-th ``derivative`` of the basis, at n >= 2 clear of the 2n nodes a side
    that read a one-sided edge row more than once; within it, the run around
    the peak of the denominator where it clears the floor (``grid._peak_run``,
    which raises if the denominator has a zero inside).  Returns the rows in
    the form of ``unit_states``, 0 outside the support.
    """
    derivs = [basis]
    for _ in range(n):
        derivs.append(derivative(derivs[-1]))
    a, z = derivs[-1].support
    if n >= 2:
        a, z = max(a, 2 * n), min(z, basis.grid.n_points - 2 * n)
    rows = np.array([d.values for d in derivs])  # (order, state, node)
    den, ratios = _solve_per_node(rows[:n, :n].transpose(1, 0, 2), -rows[n, :n])
    try:
        a, z = _peak_run(den, (a, z))
    except ValueError as exc:
        raise ValueError(f"denominator Wronskian unreliable: {exc}") from exc
    values = np.zeros(rows[n, n:].shape)
    values[:, a:z] = rows[n, n:, a:z] + sum(c * row for c, row in zip(ratios[:, a:z], rows[:n, n:, a:z]))
    return unit_states(GridFunction._adopt(basis.grid, values, (a, z)))


def darboux_step(chain: DarbouxChain) -> DarbouxChain:
    """Append one stage: delete the current ground level.

    New states are A phi_k = phi_k' - (ln|phi_g|)' phi_k for k above the
    deleted level: the deletion kernel at n = 1 on the current stage, which
    at stage 0 is the base spectrum's n = 1 deletion, shared with
    ``crum_states``.  Energies shift so the new stage ground sits at zero.
    """
    s = chain.n_steps
    stage = chain.stage_states[s]
    if len(stage) < 2:
        raise ValueError("no levels left above the stage ground state")
    rows = _spectrum_deletion(chain.base, 1) if s == 0 else _delete_lowest(stage, 1)
    energies = chain.base.energies[s + 1 :] - chain.base.energies[s + 1]
    new = Basis._adopt(stage.grid, rows.values, rows.support, energies=energies)
    return DarbouxChain(base=chain.base, stage_states=chain.stage_states + (new,))


def build_chain(base: Spectrum, n_steps: int) -> DarbouxChain:
    """Delete the lowest n_steps levels by iterated first-order steps."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if n_steps > base.kmax:
        raise ValueError(f"cannot delete {n_steps} levels with kmax={base.kmax}")
    stage0 = Basis._adopt(base.grid, base.values, base.support, energies=base.energies - base.energies[0])
    chain = DarbouxChain(base=base, stage_states=(stage0,))
    for _ in range(n_steps):
        chain = darboux_step(chain)
    return chain


def _spectrum_deletion(base: Spectrum, n: int) -> GridFunction:
    """The deletion kernel at n on the base spectrum, kept per (spectrum, n).

    An n whose denominator has a zero inside raises and is not kept.
    """
    if n not in base._crum_memo:
        base._crum_memo[n] = _delete_lowest(base, n)
    return base._crum_memo[n]


def crum_states(base: Spectrum, n: int, k: int) -> GridFunction:
    """State phi_k after deleting the lowest n levels, via Wronskian ratios.

    phi_k^{(n)} = W[phi_0..phi_{n-1}, phi_k] / W[phi_0..phi_{n-1}]: the
    deletion kernel at n on the base spectrum, in one shot rather than
    through n steps.  Its rows are kept per (spectrum, n), and the chain's
    first stage reads the same n = 1 rows.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if k < n:
        raise IndexError(f"level {k} is among the deleted ones (n={n})")
    if k > base.kmax:
        raise IndexError(f"level {k} beyond kmax={base.kmax}")
    rows = _spectrum_deletion(base, n)
    return GridFunction(base.grid, rows.values[k - n], rows.support)


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
