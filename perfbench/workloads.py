"""The three benchmark workloads: construct, fractional and cli.

Each workload turns a seed into a fixed list of operations (``make_ops``),
runs one operation (``run``) and checks its output outside the timed region
(``check``), which raises ``WrongOutput`` for a result that came back but is
wrong.  The inputs stay inside the ranges where the package works today, so
that no operation fails; ``probes.py`` covers the documented ranges outside
them, where the known defects are.
Calls into the package go through its module attributes, so that the traced
run sees them.  The checks use functions bound here at import time, before
any tracing is installed, so they never appear in the trace.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import isofokker.cli as cli
import isofokker.darboux as darboux
import isofokker.evolve as evolve
import isofokker.grid as grid
import isofokker.isospectral as isospectral
import isofokker.scenarios as scenarios
import isofokker.spectral as spectral
from isofokker.grid import simpson_weights as _simpson_weights
from isofokker.grid import sup_diff as _sup_diff

KMAX = 7
DOMAIN = (-12.0, 12.0)
# The package's own acceptance tolerances hold at 2001 nodes on DOMAIN; the
# operator is second order, so coarser or finer grids scale them by h^2.
REF_H = (DOMAIN[1] - DOMAIN[0]) / 2000
EIG_TOL = 1e-3
ISO_TOL = 5e-3
CRUM_TOL = 1e-3
MASS_TOL = 1e-6


class WrongOutput(Exception):
    """An operation returned, but its output fails the benchmark's checks."""


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}-{seed}")


def _log_strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One log-uniform draw in each of ``count`` equal log-width strata of [lo, hi]."""
    a, b = math.log10(lo), math.log10(hi)
    return [10 ** (a + (b - a) * (j + rng.random()) / count) for j in range(count)]


def admissible_lambda(rng: random.Random) -> float:
    """A deformation parameter outside [-1, 0], either sign, offset log-uniform in [0.02, 20]."""
    offset = 10 ** rng.uniform(math.log10(0.02), math.log10(20.0))
    return offset if rng.random() < 0.5 else -1.0 - offset


def _shuffled_strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw in each of ``count`` equal strata of [lo, hi), in random order."""
    draws = [lo + (hi - lo) * (j + rng.random()) / count for j in range(count)]
    rng.shuffle(draws)
    return draws


def _mass_error(P) -> float:
    if not np.all(np.isfinite(P.values)):
        raise WrongOutput("density has non-finite values")
    err = abs(float(_simpson_weights(P.grid) @ P.values) - 1.0)
    if err > MASS_TOL:
        raise WrongOutput(f"density mass off by {err:.3g}")
    return err


def crum_gap(chain, crum: dict) -> float:
    """Max sup-norm gap between Wronskian states ``crum[(m, k)]`` and the chain's, sign-aligned."""
    gap = 0.0
    for (m, k), wronskian in crum.items():
        iterated = chain.state(m, k)
        if float(wronskian.values @ iterated.values) < 0.0:
            iterated = -iterated
        gap = max(gap, _sup_diff(wronskian, iterated))
    return gap


def iso_error(spectrum, resolved) -> float:
    """Max distance of a re-solved deformed spectrum from the original one."""
    k = len(resolved.energies)
    return float(np.max(np.abs(resolved.energies - spectrum.energies[:k])))


def h2_scale(n: int) -> float:
    return ((DOMAIN[1] - DOMAIN[0]) / (n - 1) / REF_H) ** 2


def _gaussian(mean: float, var: float):
    return lambda x: np.exp(-((x - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


class Construct:
    """Full construction for one seeded OU instance per operation."""

    name = "construct"
    deadline_s = 5.0
    ops_per_pass = 27  # three per (n, depth) cell; a pass takes about 2 s on one core

    def setup(self):
        return None

    def make_ops(self, seed: int) -> list[dict]:
        rng = _rng(self.name, seed)
        # Every (n, depth) pair occurs equally often, since the cost of an
        # operation depends mostly on these two; within each pair gamma takes
        # one draw per equal stratum of [0.5, 2], in random order.
        per_cell = self.ops_per_pass // 9
        gammas = [_shuffled_strata(rng, 0.5, 2.0, per_cell) for _ in range(9)]
        ops = []
        for i in range(self.ops_per_pass):
            gamma = gammas[i % 9][i // 9]
            ops.append(
                {
                    "n": (1001, 2001, 4001)[i % 3],
                    "gamma": gamma,
                    "depth": 1 + (i // 3) % 3,
                    # one parameter: multi-parameter reinstatement rejects or
                    # misbuilds some admissible vectors (probes.iso_range)
                    "lambda": admissible_lambda(rng),
                    # narrower than the stationary density, as project() requires
                    "mean": rng.uniform(-1.0, 1.0) / math.sqrt(gamma),
                    "var": rng.uniform(0.25, 0.75) / gamma,
                    "times": _log_strata(rng, 1e-2, 1e1, 32),
                }
            )
        return ops

    def run(self, op: dict, ctx):
        g = grid.make_grid(*DOMAIN, op["n"])
        drift = scenarios.ou_scenario(g, op["gamma"])
        spectrum = spectral.solve_spectrum(spectral.build_hamiltonian(drift.W), KMAX)
        chain = darboux.build_chain(spectrum, op["depth"])
        crum = {
            (m, k): darboux.crum_states(spectrum, m, k)
            for m in range(1, op["depth"] + 1)
            for k in range(m, KMAX + 1)
        }
        deformation = isospectral.reinstate(chain, isospectral.IsoParams([op["lambda"]]))
        resolved = spectral.solve_spectrum(spectral.build_hamiltonian(deformation.drift.W), KMAX - 2)
        P0 = grid.sample(g, _gaussian(op["mean"], op["var"]))
        coeffs = evolve.project(P0, spectrum)
        sol = evolve.FpeSolution(spectrum, coeffs, evolve.TemporalRule.classical())
        densities = []
        for t in op["times"]:
            densities.append(evolve.evolve_pdf(sol, t))
            densities.append(darboux.partner_pdf(chain, coeffs, t))
            densities.append(isospectral.iso_pdf(deformation, coeffs, t))
        return spectrum, chain, crum, resolved, densities

    def check(self, op: dict, result) -> None:
        spectrum, chain, crum, resolved, densities = result
        scale = h2_scale(op["n"])
        eig = float(np.max(np.abs(spectrum.energies / op["gamma"] - np.arange(KMAX + 1))))
        if eig > EIG_TOL * scale:
            raise WrongOutput(f"OU eigenvalue error {eig:.3g}")
        gap = crum_gap(chain, crum)
        if gap > CRUM_TOL:
            raise WrongOutput(f"Wronskian and iterated states differ by {gap:.3g}")
        if not iso_error(spectrum, resolved) <= ISO_TOL * scale:
            raise WrongOutput("re-solved deformed spectrum differs from the original")
        for P in densities:
            _mass_error(P)


# A study at a few fixed orders, spaced 0.05 apart from the a_lo band into
# a_mid.  Each value was scanned for z in [-260, -5] at steps of 0.002
# without an ArithmeticError.  Orders between them can hit the evaluator's
# known failures, which probes.ml_range covers.
ALPHAS = (0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75)
T_STRATA = 32  # an eighth of a decade each over [1e-2, 1e2]


class Fractional:
    """Three Mittag-Leffler densities of one fixed basis at one (alpha, t) per operation."""

    name = "fractional"
    deadline_s = 5.0

    def setup(self):
        g = grid.make_grid(*DOMAIN, 2001)
        drift = scenarios.ou_scenario(g)
        spectrum = spectral.solve_spectrum(spectral.build_hamiltonian(drift.W), KMAX)
        chain = darboux.build_chain(spectrum, 2)
        deformation = isospectral.reinstate(chain, isospectral.IsoParams([0.5, 0.5]))
        coeffs = evolve.project(grid.sample(g, _gaussian(2.0, 0.5)), spectrum)
        return spectrum, chain, deformation, coeffs

    def make_ops(self, seed: int) -> list[dict]:
        # Each alpha takes one t in each of T_STRATA equal strata of log t,
        # at the same seeded offset in every stratum (systematic sampling).
        # The cost of an operation jumps where a mode's |z| enters the
        # arbitrary-precision series window, and this keeps the share of such
        # operations nearly the same for every seed.
        rng = _rng(self.name, seed)
        ops = []
        for a in ALPHAS:
            u = rng.random()
            ops += [{"alpha": a, "t": 10 ** (-2.0 + 4.0 * (j + u) / T_STRATA)} for j in range(T_STRATA)]
        return ops

    def run(self, op: dict, ctx):
        spectrum, chain, deformation, coeffs = ctx
        rule = evolve.TemporalRule.fractional(op["alpha"])
        sol = evolve.FpeSolution(spectrum, coeffs, rule)
        t = op["t"]
        return (
            evolve.evolve_pdf(sol, t),
            darboux.partner_pdf(chain, coeffs, t, rule),
            isospectral.iso_pdf(deformation, coeffs, t, rule),
        )

    def check(self, op: dict, result) -> None:
        for P in result:
            _mass_error(P)


class Cli:
    """The README's command lines, each in a fresh interpreter, parameters drawn by seed."""

    name = "cli"
    deadline_s = 20.0

    def __init__(self, root, env, scratch):
        self.root = root
        self.env = env
        self.scratch = scratch
        self.in_process = False

    def setup(self):
        return None

    def make_ops(self, seed: int) -> list[dict]:
        rng = _rng(self.name, seed)

        def gamma():
            return f"{rng.uniform(0.5, 2.0):.6g}"

        def times():
            return ",".join(f"{t:.6g}" for t in sorted(_log_strata(rng, 1e-2, 1e1, rng.randint(1, 4))))

        def ic():
            return f"gaussian:{rng.uniform(-2.0, 2.0):.6g},{rng.uniform(0.2, 1.0):.6g}"

        def lam():
            return f"{admissible_lambda(rng):.6g}"

        argvs = [
            ["spectrum", "--gamma", gamma(), "--kmax", str(rng.randint(4, 10))],
            ["darboux", "--gamma", gamma(), "--steps", str(rng.randint(1, 4))],
            ["deform", "--lambda", lam(), "--kmax", str(rng.randint(5, 8))],
            ["evolve", "--times", times(), "--ic", ic()],
            ["evolve", "--times", times(), "--ic", ic(), "--alpha", str(rng.choice(ALPHAS))],
            ["ml", "--alpha", str(rng.choice(ALPHAS)), f"--zmin={-rng.uniform(1.0, 10.0):.6g}",
             "--zmax", "0", "--steps", str(rng.randint(11, 101))],
            ["blackhole", "--temperature", f"{rng.uniform(0.04, 0.12):.6g}", "--rmin", "0.1",
             "--rmax", "3", "--lambda", lam()],
            ["verify"],
        ]
        return [{"argv": a} for a in argvs]

    def run(self, op: dict, ctx):
        out = tempfile.mkdtemp(prefix="cli-", dir=self.scratch)
        try:
            argv = [*op["argv"], "--out", out]
            if self.in_process:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                    code = cli.main(argv)
                message = err.getvalue()
            else:
                try:
                    proc = subprocess.run(
                        [sys.executable, "-m", "isofokker.cli", *argv],
                        cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                        stderr=subprocess.PIPE, text=True, timeout=self.deadline_s,
                    )
                except subprocess.TimeoutExpired:
                    raise CommandFailed("deadline", "killed at the deadline") from None
                code, message = proc.returncode, proc.stderr
            if code != 0:
                _raise_for_exit(code, message)
            reports = {}
            for name in os.listdir(out):
                if name.endswith(".json"):
                    with open(os.path.join(out, name)) as fh:
                        reports[name] = json.load(fh)
            return reports
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def check(self, op: dict, reports) -> None:
        command = op["argv"][0]
        report = reports.get(f"{command}.json")
        if report is None:
            raise WrongOutput(f"{command} wrote no report")
        if command == "verify" and not report.get("all_passed"):
            raise WrongOutput("verify.json does not have all_passed")
        if command == "evolve":
            mass = max(abs(m["mass"] - 1.0) for m in report["moments"])
            if not mass <= MASS_TOL:
                raise WrongOutput(f"evolve mass off by {mass:.3g}")


class CommandFailed(Exception):
    """A command exited with an error or was killed; ``kind`` is its failure class."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _raise_for_exit(code: int, stderr: str) -> None:
    """Map a failed command's exit status and message onto the failure classes."""
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if code == 2:
        raise WrongOutput(f"verification failure: {last}")
    if last.startswith("error:"):
        raise CommandFailed("value_error", last)  # the CLI reports ValueError and usage errors this way
    if last.startswith(("ArithmeticError", "OverflowError", "ZeroDivisionError", "FloatingPointError")):
        raise CommandFailed("arithmetic_error", last)
    if last.startswith("ValueError"):
        raise CommandFailed("value_error", last)
    raise CommandFailed("other_error", f"exit {code}: {last}")
