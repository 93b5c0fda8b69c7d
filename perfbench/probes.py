"""Accuracy probes at fixed points, run outside the timed loop.

They give the accuracy metrics, the per-node eigenvalue errors, and the
share of the documented parameter ranges where the package works
(``ml_range``, ``iso_range``).  The workloads keep to inputs where no
operation fails; the range probes go where the known defects are, so those
show in the numbers.  Every accuracy probe has the package's documented
tolerance; one outside it makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import tempfile

import mpmath
import numpy as np
from scipy.special import erfcx

import isofokker.cli as cli
from isofokker import (
    FpeSolution,
    IsoParams,
    TemporalRule,
    build_chain,
    build_hamiltonian,
    crum_states,
    evolve_pdf,
    integrate,
    iso_pdf,
    make_grid,
    mittag_leffler,
    ou_scenario,
    partner_pdf,
    project,
    reinstate,
    sample,
    solve_spectrum,
)
import spans
from workloads import CRUM_TOL, DOMAIN, EIG_TOL, ISO_TOL, MASS_TOL, admissible_lambda, crum_gap, h2_scale, iso_error

EIG_NODES = (201, 401, 2001)
ML_TOL = 1e-10  # the evaluator's documented accuracy
# (alpha, z) points for the arbitrary-precision series reference: both sides
# of the series/quadrature switch at |z| = 5, below and above alpha = 0.5.
ML_SERIES_POINTS = [(a, z) for a in (0.4, 0.6, 0.75, 0.95) for z in (-0.5, -2.0, -4.5, -6.0, -8.0)]


def _ml_series_reference(alpha: float, z: float) -> float:
    """sum z^k / Gamma(alpha k + 1) with enough digits to absorb the cancellation."""
    loss = abs(z) ** (1.0 / alpha) / math.log(10.0)
    with mpmath.workdps(40 + int(loss)):
        a, x = mpmath.mpf(alpha), mpmath.mpf(z)
        total, k = mpmath.mpf(0), 0
        while True:
            term = x**k / mpmath.gamma(a * k + 1)
            total += term
            if k > 10 and abs(term) < mpmath.mpf(10) ** (-35):
                return float(total)
            k += 1


def ml_error() -> float:
    """Max |E_alpha(z) - reference| over alpha = 1 (exp), alpha = 1/2 (erfcx) and the series points."""
    xs = np.linspace(0.1, 30.0, 25)
    errs = [abs(mittag_leffler(1.0, -x) - math.exp(-x)) for x in xs]
    errs += [abs(mittag_leffler(0.5, -x) - float(erfcx(x))) for x in xs]
    errs += [abs(mittag_leffler(a, z) - _ml_series_reference(a, z)) for a, z in ML_SERIES_POINTS]
    return max(errs)


def eig_errors() -> dict[str, float]:
    """OU (gamma = 1) max |eps_k - k|, k <= 7, on [-12, 12] at each node count."""
    out = {}
    for n in EIG_NODES:
        drift = ou_scenario(make_grid(-12.0, 12.0, n))
        spectrum = solve_spectrum(build_hamiltonian(drift.W), 7)
        out[f"n{n}"] = float(np.max(np.abs(spectrum.energies - np.arange(8))))
    return out


def basis_errors() -> dict[str, float]:
    """Isospectral re-solve, Wronskian-vs-iterated gap and density mass of the default 2-step basis."""
    g = make_grid(-12.0, 12.0, 2001)
    drift = ou_scenario(g)
    spectrum = solve_spectrum(build_hamiltonian(drift.W), 7)
    chain = build_chain(spectrum, 2)
    deformation = reinstate(chain, IsoParams([0.5, 0.5]))
    resolved = solve_spectrum(build_hamiltonian(deformation.drift.W), 5)
    gap = crum_gap(chain, {(m, k): crum_states(spectrum, m, k) for m in (1, 2) for k in range(m, 8)})
    coeffs = project(sample(g, lambda x: np.exp(-((x - 2.0) ** 2)) / math.sqrt(math.pi)), spectrum)
    mass = 0.0
    for rule in (TemporalRule.classical(), TemporalRule.fractional(0.5)):
        sol = FpeSolution(spectrum, coeffs, rule)
        for t in (0.25, 1.0, 5.0):
            for P in (evolve_pdf(sol, t), partner_pdf(chain, coeffs, t, rule), iso_pdf(deformation, coeffs, t, rule)):
                mass = max(mass, abs(integrate(P) - 1.0))
    return {
        "acc_mass_err": mass,
        "acc_iso_err": iso_error(spectrum, resolved),
        "acc_crum_gap": gap,
    }


# E_alpha(z) over the documented range: alpha at the midpoints of sixteen
# equal strata of (0, 1), z from the series branch out to large |z|, and two
# reported defect points (a 54 s call and a false alarm).  Every
# success here takes under 0.5 s and every deadline case over 3 s on one core
# of a 2-vCPU VM, so the 1 s deadline splits them with room on either side.
ML_RANGE_POINTS = [((j + 0.5) / 16, z) for j in range(16) for z in (-0.5, -2.0, -3.0, -6.0, -10.0, -50.0, -200.0, -700.0)]
ML_RANGE_POINTS += [(0.1, -2.0), (0.8355, -5.598)]
ML_RANGE_DEADLINE_S = 1.0


def ml_range() -> dict[str, float]:
    """Share of ML_RANGE_POINTS that return a finite value in [0, 1] within the deadline, and failures by class."""
    fails = dict.fromkeys(spans.FAILURE_CLASSES, 0)
    for alpha, z in ML_RANGE_POINTS:
        try:
            with spans.alarm(ML_RANGE_DEADLINE_S):
                value = mittag_leffler(alpha, z)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # classified and counted
            fails[spans.error_class(exc)] += 1
            continue
        if not 0.0 <= value <= 1.0:  # E_alpha is completely monotone on z <= 0
            fails["wrong_output"] += 1
    out = {f"mittag.fail.{k}": float(v) for k, v in fails.items() if k in ("value_error", "arithmetic_error", "deadline")}
    out["ml_range_ok_frac"] = 1.0 - sum(fails.values()) / len(ML_RANGE_POINTS)
    return out


# Multi-parameter reinstatement, which the construct workload leaves out:
# every (n, depth) pair of that workload's grids with depth >= 2, at three
# fixed admissible parameter vectors each.
ISO_RANGE_NODES = (1001, 2001, 4001)
ISO_RANGE_DEPTHS = (2, 3)
ISO_RANGE_VECTORS = 3


def iso_range() -> dict[str, float]:
    """Share of the cases where ``reinstate`` succeeds and keeps the spectrum, and the share where it fails.

    A rejected parameter vector and a deformation whose re-solved spectrum is
    off both count as failures of ``reinstate``.
    """
    rng = random.Random("iso-range")
    cases = ok = 0
    for n in ISO_RANGE_NODES:
        spectrum = solve_spectrum(build_hamiltonian(ou_scenario(make_grid(*DOMAIN, n)).W), 7)
        for depth in ISO_RANGE_DEPTHS:
            chain = build_chain(spectrum, depth)
            for _ in range(ISO_RANGE_VECTORS):
                params = IsoParams([admissible_lambda(rng) for _ in range(depth)])
                cases += 1
                try:
                    deformation = reinstate(chain, params)
                except ValueError:
                    continue
                resolved = solve_spectrum(build_hamiltonian(deformation.drift.W), 5)
                if iso_error(spectrum, resolved) <= ISO_TOL * h2_scale(n):
                    ok += 1
    return {"iso_range_ok_frac": ok / cases, "isospectral.reinstate.fail_frac": 1.0 - ok / cases}


def verify_margin(scratch: str) -> float:
    """Max measured/tolerance over the checks of ``isofokker verify``, run in-process."""
    out = tempfile.mkdtemp(prefix="verify-", dir=scratch)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--out", out])
        with open(os.path.join(out, "verify.json")) as fh:
            report = json.load(fh)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if code != 0 or not report["all_passed"]:
        return math.inf
    return max(c["measured"] / c["tolerance"] for c in report["checks"])


def run_all(scratch: str) -> tuple[dict[str, float], bool]:
    """All probes; returns the metrics and whether each accuracy is within its tolerance."""
    eig = eig_errors()
    acc = {"acc_eig_err": eig["n2001"], "acc_ml_err": ml_error(), "acc_verify_margin": verify_margin(scratch)}
    acc.update(basis_errors())
    per_node = {f"spectral.eig_err.{k}": v for k, v in eig.items()}
    ok = (
        acc["acc_eig_err"] <= EIG_TOL
        and acc["acc_iso_err"] <= ISO_TOL
        and acc["acc_crum_gap"] <= CRUM_TOL
        and acc["acc_mass_err"] <= MASS_TOL
        and acc["acc_ml_err"] <= ML_TOL
        and acc["acc_verify_margin"] <= 1.0
    )
    return {**acc, **per_node, **ml_range(), **iso_range()}, ok
