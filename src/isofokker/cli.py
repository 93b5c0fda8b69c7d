"""Command-line front end: reproducible runs with CSV/JSON artifacts.

Subcommands: spectrum, darboux, deform, evolve, ml, blackhole, verify.
Flags override a flat key=value config file; every JSON report embeds the
resolved configuration.  Exit codes: 0 success, 1 usage error, 2
verification failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .darboux import build_chain, partner_drift, partner_pdf
from .evolve import FpeSolution, TemporalRule, evolve_pdf, moments, project, truncation_residual
from .grid import (
    GridFunction, cumulative_integral, divide, integrate, make_grid, read_csv_columns, sample, sup_diff, write_csv,
)
from .isospectral import IsoParams, iso_pdf, reinstate
from .mittag import mittag_leffler, ml_relaxation
from .oracle import CnConfig, cn_evolve, gl_residual
from .scenarios import (
    box_scenario, custom_drift, hawking_temperature, ou_reference_state, ou_scenario, schwarzschild_potential,
)
from .spectral import DriftSpec, build_hamiltonian, ground_state_to_drift, solve_spectrum

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; spec wants 1
        raise UsageError(message)


class Flag(NamedTuple):
    """A value flag; ``dest`` is also its config-file key and its key in the report."""

    flag: str
    dest: str
    type: Callable[[str], object]
    default: object
    help: str


class Command(NamedTuple):
    """A subcommand: its handler and every flag the handler reads."""

    handler: Callable[[dict], int]
    flags: tuple[Flag, ...]


def _load_config_file(path: str) -> dict[str, str]:
    cfg = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, value = line.split("=", 1)
                cfg[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return cfg


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be c1:c2:n_points, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad grid spec {text!r}: {exc}") from exc


def _parse_floats(text: str, flag: str) -> list[float]:
    """The numbers of a comma list; a blank list has none, and an empty field is refused."""
    if not text.strip():
        return []
    fields = text.split(",")
    if any(not v.strip() for v in fields):
        raise UsageError(f"{flag} has an empty field in {text!r}")
    try:
        return [float(v) for v in fields]
    except ValueError as exc:
        raise UsageError(f"bad number list {text!r}: {exc}") from exc


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


class Scenario(NamedTuple):
    """A built-in --scenario: its default grid, the one parameter it reads (or None) and its drift."""

    grid: tuple[float, float, int]
    param: str | None
    default: float | None
    drift: Callable[..., DriftSpec]  # (grid, cfg) -> drift


_HAWKING_T = hawking_temperature(1.0)  # the temperature whose equilibrium radius is 1
_SCENARIOS = {
    "ou": Scenario((-12.0, 12.0, 2001), "gamma", 1.0, lambda grid, cfg: ou_scenario(grid, cfg["gamma"])),
    "box": Scenario((0.0, 1.0, 2001), None, None, lambda grid, cfg: box_scenario(grid)),
    "schwarzschild": Scenario(
        (0.1, 3.0, 581), "temperature", _HAWKING_T,
        lambda grid, cfg: schwarzschild_potential(cfg["temperature"], grid),
    ),
}
_RMIN, _RMAX, _RPOINTS = _SCENARIOS["schwarzschild"].grid  # the blackhole window defaults


def _scenario_drift(cfg: dict[str, object]) -> DriftSpec:
    """The drift of --scenario on the run's one grid: a csv: file's own, else --grid or the default.

    A scenario parameter the scenario does not read is refused (csv: reads
    none); the one it reads is set in ``cfg`` to the value used, for the report.
    """
    name = cfg["scenario"]
    csv = name.startswith("csv:")
    if not (csv or name in _SCENARIOS):
        raise UsageError(f"unknown scenario {name!r} (expected ou, box, schwarzschild, or csv:PATH)")
    scenario = None if csv else _SCENARIOS[name]
    for key in ("gamma", "temperature"):
        if scenario is not None and key == scenario.param:
            cfg[key] = scenario.default if cfg[key] is None else cfg[key]
        elif cfg[key] is not None:
            raise UsageError(f"--{key} does not apply to scenario {name!r}")
    if csv:
        if cfg["grid"] is not None:
            raise UsageError("--grid does not apply to a csv: scenario, whose grid is its file's")
        try:
            return custom_drift(name[4:])
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load drift from {name[4:]}: {exc}") from exc
    grid = make_grid(*(scenario.grid if cfg["grid"] is None else _parse_grid(cfg["grid"])))
    return scenario.drift(grid, cfg)


def _out_path(cfg, name: str) -> str:
    os.makedirs(cfg["out"], exist_ok=True)
    return os.path.join(cfg["out"], name)


def _emit(cfg, **fields) -> None:
    """Write ``<command>.json`` (the resolved configuration, then ``fields``) and print it."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": cfg["command"],
        "config": {k: v for k, v in cfg.items() if v is not None},
        **fields,
    }
    with open(_out_path(cfg, f"{cfg['command']}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))


def _spectrum_pipeline(cfg):
    return solve_spectrum(build_hamiltonian(_scenario_drift(cfg).W), cfg["kmax"])


def _reinstated(spectrum, lambdas_text: str, levels_above: int):
    """Delete as many levels as there are lambdas, then reinstate them with those parameters.

    The spectrum must reach ``levels_above`` levels above the n deleted ones.
    """
    params = IsoParams(_parse_floats(lambdas_text, "--lambda"))
    n = len(params)
    if spectrum.kmax < n + levels_above:
        least = "n" if levels_above == 1 else f"n + {levels_above - 1}"
        raise UsageError(f"{n} parameters need kmax > {least} (got kmax={spectrum.kmax})")
    return reinstate(build_chain(spectrum, n), params)


def cmd_spectrum(cfg) -> int:
    spectrum = _spectrum_pipeline(cfg)
    write_csv(
        _out_path(cfg, "eigenfunctions.csv"),
        {f"phi{k}": spectrum.state(k) for k in range(spectrum.kmax + 1)},
    )
    _emit(cfg, eigenvalues=list(spectrum.energies))
    return 0


def cmd_darboux(cfg) -> int:
    steps = cfg["steps"]
    if steps > 4:
        print(
            "warning: accuracy of repeated numerical differentiation is unvalidated "
            f"beyond 4 steps (got {steps})",
            file=sys.stderr,
        )
    spectrum = _spectrum_pipeline(cfg)
    chain = build_chain(spectrum, steps)
    drifts = {f"D{s}": partner_drift(chain, s).D for s in range(1, steps + 1)}
    write_csv(_out_path(cfg, "darboux_drifts.csv"), drifts)
    write_csv(
        _out_path(cfg, "darboux_states.csv"),
        {f"phi{k}_stage{steps}": chain.state(steps, k) for k in range(steps, spectrum.kmax + 1)},
    )
    _emit(cfg, stage_energies={str(s): list(chain.stage_states[s].energies) for s in range(steps + 1)})
    return 0


def cmd_deform(cfg) -> int:
    if cfg["lambdas"] is None:
        raise UsageError("deform requires --lambda")
    spectrum = _spectrum_pipeline(cfg)
    # the check below compares levels 0..kmax-2, which with kmax >= n + 2
    # include level n, the first one carried through the chain
    deformation = _reinstated(spectrum, cfg["lambdas"], 2)
    ground = deformation.state(0)
    stationary = ground * ground
    write_csv(
        _out_path(cfg, "deformed_drift.csv"),
        {"D": deformation.drift.D, "W": deformation.drift.W, "stationary": stationary},
    )
    kcheck = spectrum.kmax - 2
    resolved = solve_spectrum(build_hamiltonian(deformation.drift.W), kcheck).energies
    # the reference re-solves the original ground state by the same route:
    # W = -ln|phi_0| diverges at Dirichlet walls, which moves the levels of a
    # wall scenario by far more than the deformation does
    reference = solve_spectrum(build_hamiltonian(ground_state_to_drift(spectrum.state(0)).W), kcheck).energies
    max_diff = _max_abs(resolved - reference)
    passed = max_diff <= 5e-3
    _emit(
        cfg,
        original_eigenvalues=list(spectrum.energies[: kcheck + 1]),
        original_eigenvalues_shifted=list(spectrum.energies[: kcheck + 1] - spectrum.energies[0]),
        reference_eigenvalues=list(reference),
        deformed_eigenvalues=list(resolved),
        max_abs_eig_diff=max_diff,
        isospectral=passed,
    )
    return 0 if passed else 2


def _initial_condition(cfg, grid) -> GridFunction:
    spec = cfg["ic"]
    if spec.startswith("gaussian:"):
        try:
            mean, var = (float(v) for v in spec[len("gaussian:") :].split(","))
        except ValueError as exc:
            raise UsageError(f"bad gaussian IC {spec!r}: expected gaussian:mean,var") from exc
        if not -math.inf < mean < math.inf:
            raise UsageError(f"gaussian IC {spec!r} needs a finite mean, got {mean}")
        if not 0.0 < var < math.inf:
            raise UsageError(f"gaussian IC {spec!r} needs a positive finite variance, got {var}")
        P0 = sample(grid, lambda x: np.exp(-((x - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var))
        return P0 / integrate(P0)
    if spec.startswith("csv:"):
        path = spec[4:]
        try:
            columns = read_csv_columns(path)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read IC file {path}: {exc}") from exc
        if len(columns) != 2:
            raise UsageError(f"{path}: IC CSV must have two columns (x, P)")
        x, p = columns.values()
        if np.any(np.diff(x) <= 0):
            raise UsageError(f"{path}: IC x values must be strictly increasing")
        # zero outside the sampled range rather than np.interp's constant tails
        P0 = GridFunction(grid, np.interp(grid.x, x, p, left=0.0, right=0.0))
        mass = integrate(P0)
        if not mass > 0.0:
            raise UsageError(f"{path}: IC has no positive mass on the grid")
        return P0 / mass
    raise UsageError(f"unknown IC {spec!r} (expected gaussian:mean,var or csv:PATH)")


def cmd_evolve(cfg) -> int:
    times = _parse_floats(cfg["times"], "--times")
    if not times or any(t < 0 for t in times):
        raise UsageError("--times needs non-negative values")
    rule = TemporalRule(alpha=cfg["alpha"])  # classical when alpha is None
    spectrum = _spectrum_pipeline(cfg)
    P0 = _initial_condition(cfg, spectrum.grid)
    coeffs = project(P0, spectrum)
    sol = FpeSolution(spectrum, coeffs, rule)
    columns = {}
    stats = []
    for t in times:
        P = evolve_pdf(sol, t)
        columns[f"P_t{t:g}"] = P
        m0, m1, m2 = moments(P, [0, 1, 2])
        stats.append({"t": t, "mass": m0, "mean": m1 / m0, "variance": m2 / m0 - (m1 / m0) ** 2})
    write_csv(_out_path(cfg, "evolution.csv"), columns)
    _emit(
        cfg,
        coefficients=list(coeffs),
        truncation_residual_l1=truncation_residual(sol, P0),
        moments=stats,
    )
    return 0


def cmd_ml(cfg) -> int:
    zmin, zmax, steps = cfg["zmin"], cfg["zmax"], cfg["steps"]
    if not (math.isfinite(zmin) and zmin <= zmax <= 0.0):
        raise UsageError(f"need finite --zmin <= --zmax <= 0, got --zmin={zmin} --zmax={zmax}")
    if steps < 2:
        raise UsageError("--steps needs at least 2 table points")
    zs = np.linspace(zmin, zmax, steps)
    vals = ml_relaxation(cfg["alpha"], -zs, 1.0)  # E_alpha(z): the factor at rate -z and t = 1
    path = _out_path(cfg, "mittag_leffler.csv")
    np.savetxt(
        path, np.column_stack([zs, vals]), fmt="%.17g", delimiter=",", header="z,E_alpha", comments="", encoding="utf-8"
    )
    _emit(cfg, table=path)
    return 0


def cmd_blackhole(cfg) -> int:
    T = cfg["temperature"]
    drift = schwarzschild_potential(T, make_grid(cfg["rmin"], cfg["rmax"], cfg["rpoints"]))
    U = 2.0 * drift.W
    columns = {"U": U, "D": drift.D}
    fields = {"equilibrium_radius": 1.0 / (4.0 * math.pi * T)}
    if cfg["lambdas"] is not None:
        spectrum = solve_spectrum(build_hamiltonian(drift.W), cfg["kmax"])
        deformation = _reinstated(spectrum, cfg["lambdas"], 1)
        # the deformation changes the drift by 2 (ln|phi^_0/phi_0|)'; the
        # ratio is smooth where each ground state has a Dirichlet wall zero
        change = ground_state_to_drift(divide(deformation.state(0), spectrum.state(0)))
        columns["U_deformed"] = U + 2.0 * change.W
        columns["D_deformed"] = drift.D + change.D
        fields["eigenvalues"] = list(spectrum.energies)
    write_csv(_out_path(cfg, "blackhole.csv"), columns)
    _emit(cfg, **fields)
    return 0


class Check(NamedTuple):
    """One acceptance check: it passes when ``measure(context) <= tolerance``."""

    name: str
    tolerance: float
    measure: Callable[[SimpleNamespace], float]


def verify_context() -> SimpleNamespace:
    """The desk-scale setup that the checks of ``VERIFY_CHECKS`` measure.

    OU drift on [-12, 12] with 2001 nodes and eight levels; a unit-mass
    Gaussian ``P0`` (mean 2, variance 1/2), its coefficients and its
    classical density ``P1`` at t = 1; the one-step Darboux chain, its
    partner drift and its reinstatement with ``lam`` = 0.5.
    """
    grid = make_grid(-12.0, 12.0, 2001)
    drift = ou_scenario(grid)
    spectrum = solve_spectrum(build_hamiltonian(drift.W), 7)
    P0 = sample(grid, lambda x: np.exp(-((x - 2.0) ** 2)) / math.sqrt(math.pi))
    coeffs = project(P0, spectrum)
    P1 = evolve_pdf(FpeSolution(spectrum, coeffs, TemporalRule.classical()), 1.0)
    chain = build_chain(spectrum, 1)
    lam = 0.5
    return SimpleNamespace(
        drift=drift, spectrum=spectrum, P0=P0, coeffs=coeffs, P1=P1, chain=chain,
        partner=partner_drift(chain), lam=lam, deformation=reinstate(chain, IsoParams([lam])),
    )


def _fractional(ctx, alpha: float, t: float):
    return evolve_pdf(FpeSolution(ctx.spectrum, ctx.coeffs, TemporalRule.fractional(alpha)), t)


def _cn_gap(drift, p0, p1) -> float:
    """Sup distance of a spectral density at t = 1 from Crank-Nicolson started at p0.

    The CN density is the Richardson value (4 P_dt - P_2dt) / 3 of runs at
    dt = 5e-3 and 1e-2, which cancels the scheme's O(dt^2) error.
    """
    fine = cn_evolve(drift, p0, CnConfig(dt=5e-3, t_end=1.0))
    coarse = cn_evolve(drift, p0, CnConfig(dt=1e-2, t_end=1.0))
    return sup_diff(p1, (4.0 * fine - coarse) / 3.0)


def _deformed_ground_gap(ctx) -> float:
    """Sup distance of the unit deformed ground state from sqrt(lam (lam + 1)) phi_0 / (lam + K_00).

    For OU with gamma = 1, K_00(x) = erfc(-x / sqrt 2) / 2 is the running
    integral of phi_0^2 from the left wall.
    """
    grid = ctx.drift.grid
    lam = ctx.lam
    k00 = 0.5 * np.array([math.erfc(-x / math.sqrt(2.0)) for x in grid.x])
    reference = ou_reference_state(grid, 0) * (math.sqrt(lam * (lam + 1.0)) / (lam + k00))
    return sup_diff(ctx.deformation.state(0), reference)


def _half_order_gap(ctx) -> float:
    """Sup distance of the alpha = 1/2 density at t = 1 from modes with E_1/2(-z) = e^(z^2) erfc(z), z = eps_k."""
    factors = np.array([math.exp(z * z) * math.erfc(z) for z in ctx.spectrum.energies])
    reference = ctx.spectrum.state(0) * ((ctx.coeffs * factors) @ ctx.spectrum.values)
    return sup_diff(_fractional(ctx, 0.5, 1.0), reference)


def _schwarzschild_reconstruction(ctx) -> float:
    """Cumulative (T_H - T) dS from the inner edge against U, at T = 1/(4 pi)."""
    rgrid = make_grid(*_SCENARIOS["schwarzschild"].grid)
    T = _HAWKING_T
    U = 2.0 * schwarzschild_potential(T, rgrid).W
    integrand = sample(rgrid, lambda r: (hawking_temperature(r) - T) * 2.0 * math.pi * r)
    return sup_diff(cumulative_integral(integrand) + float(U.values[0]), U)


# The checks of `isofokker verify`, in report order; tests/test_acceptance.py runs the same list.
VERIFY_CHECKS = (
    Check("ou_spectrum_vs_integers", 1e-3, lambda c: _max_abs(c.spectrum.energies - np.arange(8))),
    Check("ou_spectral_vs_cn_t1", 5e-4, lambda c: _cn_gap(c.drift, c.P0, c.P1)),
    Check("ou_mass_conservation", 1e-6, lambda c: abs(integrate(c.P1) - c.coeffs[0])),
    Check("darboux_shape_invariance", 1e-3, lambda c: sup_diff(c.partner.D, c.drift.D, window=(-8.0, 8.0))),
    Check(
        "partner_spectral_vs_cn_t1",
        5e-4,
        lambda c: _cn_gap(
            c.partner, partner_pdf(c.chain, c.coeffs, 0.0), partner_pdf(c.chain, c.coeffs, 1.0)
        ),
    ),
    Check(
        "deformed_spectral_vs_cn_t1",
        5e-4,
        lambda c: _cn_gap(
            c.deformation.drift,
            iso_pdf(c.deformation, c.coeffs, 0.0),
            iso_pdf(c.deformation, c.coeffs, 1.0),
        ),
    ),
    Check("deformed_ground_closed_form", 1e-4, _deformed_ground_gap),
    Check(
        "isospectrality_resolve",
        5e-3,
        lambda c: _max_abs(
            solve_spectrum(build_hamiltonian(c.deformation.drift.W), 5).energies
            - c.spectrum.energies[:6]
        ),
    ),
    Check("alpha_to_1_consistency", 5e-3, lambda c: sup_diff(_fractional(c, 0.999, 1.0), c.P1)),
    Check(
        "fractional_mass_conservation",
        1e-6,
        lambda c: abs(integrate(_fractional(c, 0.5, 2.0)) - c.coeffs[0]),
    ),
    Check("half_order_density_vs_erfc_modes", 1e-10, _half_order_gap),
    Check("ml_classical_limit", 1e-10, lambda c: abs(mittag_leffler(1.0, -1.0) - math.exp(-1.0))),
    Check("ml_erfc_identity", 1e-8, lambda c: abs(mittag_leffler(0.5, -1.0) - math.e * math.erfc(1.0))),
    Check(
        "gl_halving_ratio_dev",
        0.1,
        lambda c: abs(gl_residual(0.5, 1.0, 5e-4, 1.0) / gl_residual(0.5, 1.0, 1e-3, 1.0) - 0.5),
    ),
    Check("schwarzschild_potential_reconstruction", 1e-6, _schwarzschild_reconstruction),
)


def cmd_verify(cfg) -> int:
    ctx = verify_context()
    checks = []
    for name, tolerance, measure in VERIFY_CHECKS:
        measured = float(measure(ctx))
        passed = measured <= tolerance
        checks.append({"name": name, "measured": measured, "tolerance": float(tolerance), "passed": passed})
    all_passed = all(c["passed"] for c in checks)
    _emit(cfg, checks=checks, all_passed=all_passed)
    return 0 if all_passed else 2


_OUT = Flag("--out", "out", str, None, "output directory (default $ISOFOKKER_OUT or .)")
_KMAX = Flag("--kmax", "kmax", int, 8, "number of solved levels minus one")
# what _spectrum_pipeline reads; a scenario parameter left unset takes its scenario's default
_SCENARIO = (
    Flag("--scenario", "scenario", str, "ou", "ou | box | schwarzschild | csv:PATH"),
    Flag("--grid", "grid", str, None, "c1:c2:n_points, e.g. -12:12:2001"),
    _KMAX,
    Flag("--gamma", "gamma", float, None, "OU stiffness (ou only)"),
    Flag("--temperature", "temperature", float, None, "ensemble temperature (schwarzschild only)"),
    _OUT,
)

COMMANDS = {
    "spectrum": Command(cmd_spectrum, _SCENARIO),
    "darboux": Command(
        cmd_darboux, _SCENARIO + (Flag("--steps", "steps", int, 1, "number of deleted levels"),)
    ),
    "deform": Command(
        cmd_deform, _SCENARIO + (Flag("--lambda", "lambdas", str, None, "comma list lambda0,..."),)
    ),
    "evolve": Command(
        cmd_evolve,
        _SCENARIO
        + (
            Flag("--times", "times", str, "1.0", "comma list of evaluation times"),
            Flag("--alpha", "alpha", float, None, "fractional order (omit for classical)"),
            Flag("--ic", "ic", str, "gaussian:2,0.5", "gaussian:mean,var | csv:PATH"),
        ),
    ),
    "ml": Command(
        cmd_ml,
        (
            _OUT,
            Flag("--alpha", "alpha", float, 0.5, "Mittag-Leffler order in (0, 1]"),
            Flag("--zmin", "zmin", float, -10.0, "first table argument"),
            Flag("--zmax", "zmax", float, 0.0, "last table argument, <= 0"),
            Flag("--steps", "steps", int, 101, "table points"),
        ),
    ),
    "blackhole": Command(
        cmd_blackhole,
        (
            _KMAX,
            Flag("--temperature", "temperature", float, _HAWKING_T, "ensemble temperature"),
            _OUT,
            Flag("--rmin", "rmin", float, _RMIN, "inner horizon radius"),
            Flag("--rmax", "rmax", float, _RMAX, "outer horizon radius"),
            Flag("--rpoints", "rpoints", int, _RPOINTS, "radial grid points"),
            Flag("--lambda", "lambdas", str, None, "deform the thermal potential"),
        ),
    ),
    "verify": Command(cmd_verify, (_OUT,)),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="isofokker", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name)
        for f in command.flags:
            sub.add_argument(f.flag, dest=f.dest, type=f.type, help=f.help)
        sub.add_argument("--config", help="flat key=value config file; flags override")
    return parser


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Join each value flag to its value: argparse takes a value starting with '-' for an option."""
    value_flags = {"--config"} | {f.flag for command in COMMANDS.values() for f in command.flags}
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in value_flags and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _resolve(args, file_cfg: dict[str, str]) -> dict[str, object]:
    """Precedence: command-line flag > config file > built-in default."""
    flags = COMMANDS[args.command].flags
    unknown = sorted(set(file_cfg) - {f.dest for f in flags})
    if unknown:
        raise UsageError(f"config file key(s) not taken by {args.command}: {', '.join(unknown)}")
    cfg = {}
    for f in flags:
        value = getattr(args, f.dest)
        if value is None and f.dest in file_cfg:
            try:
                value = f.type(file_cfg[f.dest])
            except ValueError as exc:
                raise UsageError(f"config file {f.dest} = {file_cfg[f.dest]!r}: {exc}") from exc
        cfg[f.dest] = f.default if value is None else value
    return cfg


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None) and return its exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(_merge_dash_values(argv))
        file_cfg = _load_config_file(args.config) if args.config else {}
        cfg = _resolve(args, file_cfg)
        if cfg["out"] is None:
            cfg["out"] = os.environ.get("ISOFOKKER_OUT", ".")
        cfg["command"] = args.command
        return COMMANDS[args.command].handler(cfg)
    except (UsageError, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """The ``isofokker`` script: :func:`main` in a process of its own.

    Everything imported so far is moved out of the cyclic collector's
    reach first, so the collections during the command and the ones at
    interpreter shutdown skip the modules' objects; what the command
    creates is collected as usual.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
