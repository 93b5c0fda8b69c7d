"""Isospectral and Darboux-partner Fokker-Planck equations.

Builds, from any 1-D Fokker-Planck equation with time-independent drift and
unit diffusion, its n-step Darboux-Crum partner and its n-parameter
isospectral partner, and solves classical and fractional (Mittag-Leffler)
time evolution by eigenfunction expansion.  Independent finite-difference
oracles verify every construction.
"""

from .grid import (
    Grid1D,
    GridFunction,
    cumulative_integral,
    derivative,
    divide,
    integrate,
    log_derivative,
    make_grid,
    sample,
    sup_diff,
    sup_norm,
)
from .spectral import (
    Basis,
    DriftSpec,
    SchrodingerOperator,
    Spectrum,
    build_hamiltonian,
    ground_state_to_drift,
    solve_spectrum,
)
from .darboux import (
    DarbouxChain,
    build_chain,
    crum_states,
    darboux_step,
    partner_drift,
    partner_pdf,
)
from .isospectral import IsoDeformation, IsoParams, iso_pdf, reinstate
from .evolve import FpeSolution, TemporalRule, evolve_pdf, moments, project, truncation_residual
from .mittag import mittag_leffler, ml_relaxation
from .oracle import CnConfig, cn_evolve, gl_residual
from .scenarios import (
    box_scenario,
    custom_drift,
    hawking_temperature,
    ou_reference_state,
    ou_scenario,
    schwarzschild_potential,
)

__version__ = "0.1.0"
