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

from .evolve import TemporalRule, _expansion
from .grid import GridFunction, derivative, interior_hole_fraction, log_derivative
from .spectral import DriftSpec, Spectrum, ground_state_to_drift, normalized, sign_fixed

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
    """Stages of deleted-level states.

    ``stage_states[s][j]`` holds phi_{s+j} at stage s (stage 0 is the base
    spectrum); ``stage_energies[s]`` holds the shifted levels eps_k - eps_s
    for k >= s.
    """

    base: Spectrum
    n_steps: int
    stage_states: tuple[tuple[GridFunction, ...], ...]
    stage_energies: tuple[np.ndarray, ...]

    def state(self, s: int, k: int) -> GridFunction:
        """phi_k at stage s (k is the absolute level index, k >= s)."""
        if k < s:
            raise IndexError(f"level {k} was deleted before stage {s}")
        return self.stage_states[s][k - s]

    @property
    def kmax(self) -> int:
        return self.base.kmax


def _check_contamination(f: GridFunction) -> None:
    if f.mask is None:
        return
    if interior_hole_fraction(f.mask) > MAX_MASKED_FRACTION:
        raise ValueError(
            "masked-node contamination exceeds 5% of the interior; "
            "grid too coarse or state too noisy for another Darboux step"
        )


def _initial_chain(base: Spectrum) -> DarbouxChain:
    return DarbouxChain(
        base=base,
        n_steps=0,
        stage_states=(tuple(base.states),),
        stage_energies=(base.energies - base.energies[0],),
    )


def darboux_step(chain: DarbouxChain) -> DarbouxChain:
    """Append one stage: delete the current ground level.

    New states are A phi_k = phi_k' - (ln|phi_g|)' phi_k for k above the
    deleted level, renormalized and sign-fixed; energies shift so the new
    stage ground sits at zero.
    """
    s = chain.n_steps
    stage = chain.stage_states[s]
    if len(stage) < 2:
        raise ValueError("no levels left above the stage ground state")
    kernel = log_derivative(stage[0])
    new_states = []
    for f in stage[1:]:
        g = derivative(f) - kernel * f
        _check_contamination(g)
        new_states.append(sign_fixed(normalized(g)))
    energies = chain.base.energies[s + 1 :] - chain.base.energies[s + 1]
    return DarbouxChain(
        base=chain.base,
        n_steps=s + 1,
        stage_states=chain.stage_states + (tuple(new_states),),
        stage_energies=chain.stage_energies + (energies,),
    )


def build_chain(base: Spectrum, n_steps: int) -> DarbouxChain:
    """Delete the lowest n_steps levels by iterated first-order steps."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if n_steps > base.kmax:
        raise ValueError(f"cannot delete {n_steps} levels with kmax={base.kmax}")
    chain = _initial_chain(base)
    for _ in range(n_steps):
        chain = darboux_step(chain)
    return chain


def _derivative_stack(f: GridFunction, order: int) -> list[np.ndarray]:
    rows = [f.values]
    g = f
    for _ in range(order):
        g = derivative(g)
        rows.append(g.values)
    return rows


def _wronskian(states: list[GridFunction]) -> np.ndarray:
    """Pointwise Wronskian determinant of the given states.

    Rows are derivative orders 0..m-1 (repeated 4th-order differencing);
    the per-node determinants go through LAPACK's partially pivoted LU.
    """
    m = len(states)
    if m == 1:
        return states[0].values.copy()
    n = states[0].grid.n_points
    mat = np.empty((n, m, m))
    for i, f in enumerate(states):
        for j, row in enumerate(_derivative_stack(f, m - 1)):
            mat[:, j, i] = row
    return np.linalg.det(mat)


def crum_states(base: Spectrum, n: int, k: int) -> GridFunction:
    """State phi_k after deleting the lowest n levels, via Wronskian ratios.

    phi_k^{(n)} = W[phi_0..phi_{n-1}, phi_k] / W[phi_0..phi_{n-1}],
    normalized and sign-fixed, masked where the denominator Wronskian
    underflows.  Independent of the iterated-step route on purpose.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if k < n:
        raise IndexError(f"level {k} is among the deleted ones (n={n})")
    if k > base.kmax:
        raise IndexError(f"level {k} beyond kmax={base.kmax}")
    lowest = [base.state(i) for i in range(n)]
    num = _wronskian(lowest + [base.state(k)])
    den = _wronskian(lowest)
    bad = np.abs(den) < 1e-12 * np.max(np.abs(den))
    if interior_hole_fraction(bad) > MAX_MASKED_FRACTION:
        raise ValueError("denominator Wronskian vanishes on more than 5% of the interior")
    vals = np.where(bad, 0.0, num / np.where(bad, 1.0, den))
    return sign_fixed(normalized(GridFunction(base.grid, vals, bad)))


def partner_drift(chain: DarbouxChain, stage: int | None = None) -> DriftSpec:
    """Drift of the partner process after ``stage`` steps, from that stage's ground state.

    ``stage`` defaults to the last one, ``chain.n_steps``.  Stage ground
    states are node-free by construction; nodes here signal a construction
    bug and are rejected.
    """
    if chain.n_steps < 1:
        raise ValueError("chain has no completed Darboux steps")
    s = chain.n_steps if stage is None else stage
    if not 1 <= s <= chain.n_steps:
        raise ValueError(f"stage {s} outside 1..{chain.n_steps}")
    try:
        return ground_state_to_drift(chain.stage_states[s][0])
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
    coeffs = np.asarray(coeffs, dtype=float)
    if len(coeffs) > chain.kmax + 1:
        raise ValueError(f"got {len(coeffs)} coefficients for kmax={chain.kmax}")
    used = coeffs[n:]
    if len(used) == 0 or np.all(used == 0.0):
        raise ValueError("all coefficients above the deleted levels vanish; no mass to evolve")
    rule = TemporalRule.classical() if temporal is None else temporal
    factors = rule.factors(chain.stage_energies[n][: len(used)], t)
    return _expansion(chain.stage_states[n], used, factors, normalize=True)
