"""Deleting levels: Darboux-Crum partner processes.

Each Darboux step removes the lowest level and maps the remaining states
with a first-order operator.  The same states come directly out of
Wronskian-determinant ratios, which gives two independent constructions
to cross-check.  For the linear drift the partner drift equals the
original (shape invariance), so the partner process is again an
Ornstein-Uhlenbeck process with the spectrum shifted down.
"""

import math

import numpy as np

from isofokker import (
    build_chain,
    build_hamiltonian,
    crum_states,
    make_grid,
    ou_scenario,
    partner_drift,
    partner_pdf,
    project,
    sample,
    solve_spectrum,
    sup_diff,
)
from isofokker.oracle import CnConfig, cn_evolve

grid = make_grid(-12.0, 12.0, 2001)
drift = ou_scenario(grid)
spectrum = solve_spectrum(build_hamiltonian(drift.W), kmax=7)

chain = build_chain(spectrum, 3)
print("stage energies after deleting 1, 2, 3 levels:")
for s in (1, 2, 3):
    print(f"  stage {s}: {np.round(chain.stage_states[s].energies[:5], 6)}")

print("\nWronskian route vs iterated first-order steps:")
for n in (1, 2, 3):
    worst = 0.0
    for k in range(n, 8):
        crum = crum_states(spectrum, n, k)
        iterated = chain.state(n, k)
        worst = max(worst, min(sup_diff(crum, iterated), sup_diff(crum, -1.0 * iterated)))
    print(f"  n = {n}: worst sup-distance over k = {worst:.2e}")

partner = partner_drift(build_chain(spectrum, 1))
print(f"\nshape invariance: max |D_partner + x| on |x|<=8 = "
      f"{sup_diff(partner.D, drift.D, window=(-8, 8)):.2e}")

# evolve a displaced gaussian through the partner process, then check the
# in-package expansion against the direct Crank-Nicolson integrator
ic = sample(grid, lambda x: np.exp(-((x - 2.0) ** 2)) / math.sqrt(math.pi))
coeffs = project(ic, spectrum)
chain1 = build_chain(spectrum, 1)
p0 = partner_pdf(chain1, coeffs, 0.0)
p1 = partner_pdf(chain1, coeffs, 1.0)
cn = cn_evolve(partner, p0, CnConfig(dt=1e-3, t_end=1.0))
print(f"partner density at t=1, expansion vs Crank-Nicolson: {sup_diff(p1, cn):.2e}")
