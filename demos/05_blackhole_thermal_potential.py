"""Schwarzschild thermal potential as a drift, and its isospectral deformation.

An ensemble of black-hole states at temperature T sits in the thermal
potential U = int (T_h - T) dS over the horizon radius; for Schwarzschild
this is r/2 - pi T r^2 in closed form, flat exactly where the Hawking
temperature matches T.  Treated on a finite radius window with absorbing
walls, the induced drift feeds the same spectral pipeline as any other
scenario, including the deformation of the potential.
"""

import math

import numpy as np

from isofokker import (
    build_chain,
    build_hamiltonian,
    cumulative_integral,
    divide,
    ground_state_to_drift,
    hawking_temperature,
    make_grid,
    reinstate,
    sample,
    schwarzschild_potential,
    solve_spectrum,
    sup_diff,
)
from isofokker.isospectral import IsoParams

T = 1.0 / (4.0 * math.pi)
grid = make_grid(0.1, 3.0, 581)
drift = schwarzschild_potential(T, grid)
U = 2.0 * drift.W  # the drift potential

i1 = int(round((1.0 - grid.c1) / grid.h))
print(f"ensemble temperature T = 1/(4 pi) = {T:.6f}")
print(f"U(r=1) = {U.values[i1]:.6f} (closed form: 1/4)")
print(f"equilibrium radius (T_h = T): r = {1.0 / (4.0 * math.pi * T):.3f}")

integrand = sample(grid, lambda r: (hawking_temperature(r) - T) * 2.0 * math.pi * r)
reconstructed = cumulative_integral(integrand) + float(U.values[0])
print(f"reconstruction of U from (T_h - T) dS: max error = "
      f"{sup_diff(reconstructed, U):.2e}")

print("\nU is concave in the horizon radius (U'' = -2 pi T), so the drift "
      "potential is not confining;")
print("the spectral treatment lives on the finite window with absorbing walls:")
spectrum = solve_spectrum(build_hamiltonian(drift.W), kmax=5)
print(f"  lowest levels on [{grid.c1}, {grid.c2}]: {np.round(spectrum.energies, 4)}")

print("\none-parameter deformation of the thermal potential (lambda = 2):")
chain = build_chain(spectrum, 1)
deformation = reinstate(chain, IsoParams([2.0]))
resolved = solve_spectrum(build_hamiltonian(deformation.drift.W), 3).energies
# with absorbing walls W = -ln|phi_0| diverges at the walls, which moves the
# re-solved levels; the original ground state taken by the same route is the
# reference the deformed levels match
reference = solve_spectrum(build_hamiltonian(ground_state_to_drift(spectrum.state(0)).W), 3).energies
print(f"  re-solved deformed levels:   {np.round(resolved, 4)}")
print(f"  re-solved original levels:   {np.round(reference, 4)}")
print(f"  max abs difference:          {np.max(np.abs(resolved - reference)):.2e}")
# U^ = U - 2 ln|phi^_0/phi_0|: both ground states vanish at the walls, and
# their ratio stays smooth there
U_deformed = U + 2.0 * ground_state_to_drift(divide(deformation.state(0), spectrum.state(0))).W
keep = U_deformed.unmasked()
print(f"  deformed thermal potential spans [{U_deformed.values[keep].min():.3f}, "
      f"{U_deformed.values[keep].max():.3f}] over the window")
print("  (whether such a potential corresponds to any black-hole family is a "
      "physics question this package does not answer)")
