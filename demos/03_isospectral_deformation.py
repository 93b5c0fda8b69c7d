"""Reinstating levels: multi-parameter isospectral drifts.

After deleting the lowest n levels, the Gram matrix
M(x) = diag(lambda) + int_{c1}^x phi_i phi_j rebuilds them in closed form,
one parameter per level.  The deformed drift has exactly the
original eigenvalues but deformed eigenfunctions and a deformed stationary
density; sending every lambda to infinity switches the deformation off.
"""

import math

import numpy as np

from isofokker import (
    build_chain,
    build_hamiltonian,
    cumulative_integral,
    integrate,
    iso_pdf,
    make_grid,
    ou_scenario,
    project,
    reinstate,
    sample,
    solve_spectrum,
    sup_diff,
)
from isofokker.isospectral import IsoParams
from isofokker.oracle import CnConfig, cn_evolve

grid = make_grid(-12.0, 12.0, 2001)
drift = ou_scenario(grid)
spectrum = solve_spectrum(build_hamiltonian(drift.W), kmax=7)
chain = build_chain(spectrum, 2)

phi0 = spectrum.state(0)
I0 = cumulative_integral(phi0 * phi0)
print(f"Gram entry K_00(c2) = {I0.values[-1]:.12f} (normalization)")

print("\ntwo-parameter deformation at lambda = (0.5, 0.5):")
deformation = reinstate(chain, IsoParams([0.5, 0.5]))
resolved = solve_spectrum(build_hamiltonian(deformation.drift.W), 5)
print("  re-solved eigenvalues of the deformed drift:")
for k, eps in enumerate(resolved.energies):
    print(f"    eps_{k} = {eps:+.6f}   (error {eps - k:+.2e})")

# single-parameter closed form: deformed drift is D - 2 phi0^2/(I0 + lambda)
single = reinstate(chain, IsoParams([0.5]))
from isofokker import ground_state_to_drift

closed = ground_state_to_drift(phi0).D - 2.0 * phi0 * phi0 * (1.0 / (I0 + 0.5))
print(f"\nn=1 closed form check: {sup_diff(single.drift.D, closed, window=(-8, 8)):.2e}")

print("\nlambda -> infinity removes the deformation:")
for lam in (1e3, 1e6):
    d = reinstate(chain, IsoParams([lam]))
    print(f"  lambda = {lam:g}: max |D_deformed - D| on |x|<=8 = "
          f"{sup_diff(d.drift.D, drift.D, window=(-8, 8)):.2e}")

# evolve through the deformed process and verify against the direct integrator
ic = sample(grid, lambda x: np.exp(-((x - 2.0) ** 2)) / math.sqrt(math.pi))
coeffs = project(ic, spectrum)
p0 = iso_pdf(single, coeffs, 0.0)
p1 = iso_pdf(single, coeffs, 1.0)
cn = cn_evolve(single.drift, p0, CnConfig(dt=1e-3, t_end=1.0))
print(f"\ndeformed density at t=1, expansion vs Crank-Nicolson: {sup_diff(p1, cn):.2e}")
stationary = single.state(0) * single.state(0)
print(f"late-time limit is the deformed stationary density: "
      f"{sup_diff(iso_pdf(single, coeffs, 30.0), stationary / integrate(stationary)):.2e}")
