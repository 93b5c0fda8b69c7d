"""Command-line front end: reproducible runs with CSV/JSON artifacts.

Subcommands: spectrum, darboux, deform, evolve, ml, blackhole, verify.
Flags override a flat key=value config file; every JSON report embeds the
resolved configuration.  Exit codes: 0 success, 1 usage error, 2
verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .darboux import build_chain, partner_drift, partner_pdf
from .evolve import FpeSolution, TemporalRule, evolve_pdf, moments, project, truncation_residual
from .grid import GridFunction, cumulative_integral, integrate, make_grid, sample, sup_diff, write_csv
from .isospectral import IsoParams, iso_pdf, reinstate
from .mittag import mittag_leffler, ml_relaxation
from .oracle import CnConfig, cn_evolve, gl_residual
from .scenarios import box_scenario, custom_drift, ou_scenario, schwarzschild_potential
from .spectral import build_hamiltonian, solve_spectrum

SCHEMA_VERSION = 1

# flags whose values may start with '-' (argparse would mistake them for options)
_DASH_VALUE_FLAGS = ("--grid", "--lambda", "--times", "--zmin", "--zmax")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; spec wants 1
        raise UsageError(message)


def _merge_dash_values(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _DASH_VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _load_config_file(path: str) -> dict[str, str]:
    cfg = {}
    try:
        with open(path) as fh:
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


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad number list {text!r}: {exc}") from exc


def _resolve(args, file_cfg: dict[str, str], defaults: dict[str, object]) -> dict[str, object]:
    """Precedence: command-line flag > config file > built-in default."""
    resolved = {}
    for key, default in defaults.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    return resolved


def _scenario_drift(cfg: dict[str, object], grid):
    name = str(cfg["scenario"])
    if name == "ou":
        return ou_scenario(grid, gamma=float(cfg["gamma"]))
    if name == "box":
        return box_scenario(grid)
    if name == "schwarzschild":
        _, drift = schwarzschild_potential(float(cfg["temperature"]), grid)
        return drift
    if name.startswith("csv:"):
        try:
            return custom_drift(name[4:])
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load drift from {name[4:]}: {exc}") from exc
    raise UsageError(f"unknown scenario {name!r} (expected ou, box, schwarzschild, or csv:PATH)")


def _default_grid_for(cfg: dict[str, object]):
    if cfg["grid"] is not None:
        return make_grid(*_parse_grid(str(cfg["grid"])))
    if cfg["scenario"] == "box":
        return make_grid(0.0, 1.0, 2001)
    if cfg["scenario"] == "schwarzschild":
        return make_grid(0.1, 3.0, 581)
    return make_grid(-12.0, 12.0, 2001)


def _write_report(out_dir: str, name: str, report: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path


def _spectrum_pipeline(cfg):
    grid = _default_grid_for(cfg)
    drift = _scenario_drift(cfg, grid)
    kmax = int(cfg["kmax"])
    spectrum = solve_spectrum(build_hamiltonian(drift.W), kmax)
    return grid, drift, spectrum


def cmd_spectrum(cfg) -> int:
    grid, _, spectrum = _spectrum_pipeline(cfg)
    out = str(cfg["out"])
    write_csv(
        os.path.join(_ensure_out(out), "eigenfunctions.csv"),
        {f"phi{k}": spectrum.state(k) for k in range(spectrum.kmax + 1)},
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "spectrum",
        "config": _jsonable(cfg),
        "eigenvalues": list(spectrum.energies),
    }
    _write_report(out, "spectrum.json", report)
    print(json.dumps(report, indent=2))
    return 0


def cmd_darboux(cfg) -> int:
    steps = int(cfg["steps"])
    if steps > 4:
        print(
            "warning: accuracy of repeated numerical differentiation is unvalidated "
            f"beyond 4 steps (got {steps})",
            file=sys.stderr,
        )
    grid, _, spectrum = _spectrum_pipeline(cfg)
    if steps >= spectrum.kmax:
        raise UsageError(f"steps={steps} needs kmax > steps (got kmax={spectrum.kmax})")
    chain = build_chain(spectrum, steps)
    out = _ensure_out(str(cfg["out"]))
    drifts = {f"D{s}": partner_drift(chain, s).D for s in range(1, steps + 1)}
    write_csv(os.path.join(out, "darboux_drifts.csv"), drifts)
    write_csv(
        os.path.join(out, "darboux_states.csv"),
        {f"phi{k}_stage{steps}": chain.state(steps, k) for k in range(steps, spectrum.kmax + 1)},
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "darboux",
        "config": _jsonable(cfg),
        "stage_energies": {str(s): list(chain.stage_energies[s]) for s in range(steps + 1)},
    }
    _write_report(str(cfg["out"]), "darboux.json", report)
    print(json.dumps(report, indent=2))
    return 0


def cmd_deform(cfg) -> int:
    lambdas = _parse_floats(str(cfg["lambdas"]))
    if not lambdas:
        raise UsageError("--lambda needs at least one value")
    grid, _, spectrum = _spectrum_pipeline(cfg)
    if len(lambdas) > spectrum.kmax:
        raise UsageError(f"{len(lambdas)} parameters need kmax > n (got kmax={spectrum.kmax})")
    chain = build_chain(spectrum, len(lambdas))
    try:
        deformation = reinstate(chain, IsoParams(lambdas))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = _ensure_out(str(cfg["out"]))
    stationary = deformation.states[0] * deformation.states[0]
    write_csv(
        os.path.join(out, "deformed_drift.csv"),
        {"D": deformation.drift.D, "W": deformation.drift.W, "stationary": stationary},
    )
    write_csv(
        os.path.join(out, "virtual_states.csv"),
        {f"Phi{s}": deformation.dressed_virtuals[s] for s in range(len(lambdas))},
    )
    kcheck = min(spectrum.kmax - 2, spectrum.kmax)
    resolved = solve_spectrum(build_hamiltonian(deformation.drift.W), kcheck)
    # the reinstated operator is isospectral to the original shifted to a
    # zero ground level; the shift vanishes for conservative scenarios
    reference = spectrum.energies[: kcheck + 1] - spectrum.energies[0]
    diffs = np.abs(resolved.energies - reference)
    max_diff = float(np.max(diffs))
    passed = max_diff <= 5e-3
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "deform",
        "config": _jsonable(cfg),
        "original_eigenvalues": list(spectrum.energies[: kcheck + 1]),
        "original_eigenvalues_shifted": list(reference),
        "deformed_eigenvalues": list(resolved.energies),
        "max_abs_eig_diff": max_diff,
        "isospectral": passed,
    }
    _write_report(str(cfg["out"]), "deform.json", report)
    print(json.dumps(report, indent=2))
    return 0 if passed else 2


def _initial_condition(cfg, grid) -> GridFunction:
    spec = str(cfg["ic"])
    if spec.startswith("gaussian:"):
        try:
            mean, var = (float(v) for v in spec[len("gaussian:") :].split(","))
        except ValueError as exc:
            raise UsageError(f"bad gaussian IC {spec!r}: expected gaussian:mean,var") from exc
        if var <= 0:
            raise UsageError("gaussian IC needs positive variance")
        P0 = sample(grid, lambda x: np.exp(-((x - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var))
        return P0 / integrate(P0)
    if spec.startswith("csv:"):
        path = spec[4:]
        try:
            rows = np.genfromtxt(path, delimiter=",")
        except OSError as exc:
            raise UsageError(f"cannot read IC file {path}: {exc}") from exc
        if rows.ndim != 2 or rows.shape[1] != 2:
            raise UsageError(f"{path}: IC CSV must have two columns (x, P)")
        if np.isnan(rows[0]).all():
            rows = rows[1:]
        if not np.all(np.isfinite(rows)):
            raise UsageError(f"{path}: non-finite entries in IC samples")
        x, p = rows[:, 0], rows[:, 1]
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
    times = _parse_floats(str(cfg["times"]))
    if not times or any(t < 0 for t in times):
        raise UsageError("--times needs non-negative values")
    grid, _, spectrum = _spectrum_pipeline(cfg)
    if cfg["alpha"] is None:
        rule = TemporalRule.classical()
    else:
        alpha = float(cfg["alpha"])
        if not 0.0 < alpha < 1.0:
            raise UsageError(f"alpha must lie in (0, 1), got {alpha}")
        rule = TemporalRule.fractional(alpha)
    P0 = _initial_condition(cfg, grid)
    try:
        coeffs = project(P0, spectrum)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    sol = FpeSolution(spectrum, coeffs, rule)
    out = _ensure_out(str(cfg["out"]))
    columns = {}
    stats = []
    for t in times:
        P = evolve_pdf(sol, t)
        columns[f"P_t{t:g}"] = P
        m0, m1, m2 = moments(P, [0, 1, 2])
        stats.append({"t": t, "mass": m0, "mean": m1 / m0, "variance": m2 / m0 - (m1 / m0) ** 2})
    write_csv(os.path.join(out, "evolution.csv"), columns)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "evolve",
        "config": _jsonable(cfg),
        "coefficients": list(coeffs),
        "truncation_residual_l1": truncation_residual(sol, P0),
        "moments": stats,
    }
    _write_report(str(cfg["out"]), "evolve.json", report)
    print(json.dumps(report, indent=2))
    return 0


def cmd_ml(cfg) -> int:
    alpha = float(cfg["alpha"])
    zmin, zmax = float(cfg["zmin"]), float(cfg["zmax"])
    steps = int(cfg["steps"])
    if zmax > 0 or zmin > zmax:
        raise UsageError("need zmin <= zmax <= 0")
    if steps < 2:
        raise UsageError("need at least 2 table points")
    zs = np.linspace(zmin, zmax, steps)
    try:
        vals = ml_relaxation(alpha, -zs, 1.0)  # E_alpha(z): the factor at rate -z and t = 1
    except (ValueError, ArithmeticError) as exc:
        raise UsageError(str(exc)) from exc
    out = _ensure_out(str(cfg["out"]))
    path = os.path.join(out, "mittag_leffler.csv")
    with open(path, "w") as fh:
        fh.write("z,E_alpha\n")
        for z, v in zip(zs, vals):
            fh.write(f"{z:.17g},{v:.17g}\n")
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "ml",
        "config": _jsonable(cfg),
        "table": path,
    }
    _write_report(str(cfg["out"]), "ml.json", report)
    print(json.dumps(report, indent=2))
    return 0


def cmd_blackhole(cfg) -> int:
    T = float(cfg["temperature"])
    rmin, rmax = float(cfg["rmin"]), float(cfg["rmax"])
    n = int(cfg["rpoints"])
    grid = make_grid(rmin, rmax, n)
    try:
        thermal, drift = schwarzschild_potential(T, grid)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    columns = {"U": thermal.U, "D": drift.D}
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "blackhole",
        "config": _jsonable(cfg),
        "equilibrium_radius": 1.0 / (4.0 * math.pi * T),
    }
    if cfg["lambdas"] is not None:
        lambdas = _parse_floats(str(cfg["lambdas"]))
        kmax = int(cfg["kmax"])
        spectrum = solve_spectrum(build_hamiltonian(drift.W), kmax)
        chain = build_chain(spectrum, len(lambdas))
        try:
            deformation = reinstate(chain, IsoParams(lambdas))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        # deformed drift potential: U^ = 2 W^
        columns["U_deformed"] = 2.0 * deformation.drift.W
        columns["D_deformed"] = deformation.drift.D
        report["eigenvalues"] = list(spectrum.energies)
    out = _ensure_out(str(cfg["out"]))
    write_csv(os.path.join(out, "blackhole.csv"), columns)
    _write_report(str(cfg["out"]), "blackhole.json", report)
    print(json.dumps(report, indent=2))
    return 0


def _verify_checks(cfg) -> list[dict]:
    checks = []

    def record(name: str, measured: float, tolerance: float):
        checks.append(
            {
                "name": name,
                "measured": float(measured),
                "tolerance": float(tolerance),
                "passed": bool(measured <= tolerance),
            }
        )

    grid = make_grid(-12.0, 12.0, 2001)
    drift = ou_scenario(grid)
    spectrum = solve_spectrum(build_hamiltonian(drift.W), 7)
    record(
        "ou_spectrum_vs_integers",
        float(np.max(np.abs(spectrum.energies - np.arange(8)))),
        1e-3,
    )

    P0 = sample(grid, lambda x: np.exp(-((x - 2.0) ** 2)) / math.sqrt(math.pi))
    coeffs = project(P0, spectrum)
    sol = FpeSolution(spectrum, coeffs, TemporalRule.classical())
    cn = cn_evolve(drift, P0, CnConfig(dt=1e-3, t_end=1.0))
    record("ou_spectral_vs_cn_t1", sup_diff(evolve_pdf(sol, 1.0), cn), 5e-3)
    record("ou_mass_conservation", abs(integrate(evolve_pdf(sol, 1.0)) - coeffs[0]), 1e-6)

    chain = build_chain(spectrum, 1)
    partner = partner_drift(chain)
    record(
        "darboux_shape_invariance",
        sup_diff(partner.D, drift.D, window=(-8.0, 8.0)),
        1e-3,
    )
    Pp0 = partner_pdf(chain, coeffs, 0.0)
    cnp = cn_evolve(partner, Pp0, CnConfig(dt=1e-3, t_end=1.0))
    record("partner_spectral_vs_cn_t1", sup_diff(partner_pdf(chain, coeffs, 1.0), cnp), 5e-3)

    deformation = reinstate(chain, IsoParams([0.5]))
    Pi0 = iso_pdf(deformation, coeffs, 0.0)
    cni = cn_evolve(deformation.drift, Pi0, CnConfig(dt=1e-3, t_end=1.0))
    record("deformed_spectral_vs_cn_t1", sup_diff(iso_pdf(deformation, coeffs, 1.0), cni), 5e-3)
    resolved = solve_spectrum(build_hamiltonian(deformation.drift.W), 5)
    record(
        "isospectrality_resolve",
        float(np.max(np.abs(resolved.energies - spectrum.energies[:6]))),
        5e-3,
    )

    frac = FpeSolution(spectrum, coeffs, TemporalRule.fractional(0.999))
    record("alpha_to_1_consistency", sup_diff(evolve_pdf(frac, 1.0), evolve_pdf(sol, 1.0)), 5e-3)
    fmass = FpeSolution(spectrum, coeffs, TemporalRule.fractional(0.5))
    record("fractional_mass_conservation", abs(integrate(evolve_pdf(fmass, 2.0)) - coeffs[0]), 1e-6)

    record("ml_classical_limit", abs(mittag_leffler(1.0, -1.0) - math.exp(-1.0)), 1e-10)
    record("ml_erfc_identity", abs(mittag_leffler(0.5, -1.0) - math.e * math.erfc(1.0)), 1e-8)
    r1 = gl_residual(0.5, 1.0, 1e-3, 1.0)
    r2 = gl_residual(0.5, 1.0, 5e-4, 1.0)
    record("gl_halving_ratio_dev", abs(r2 / r1 - 0.5), 0.1)

    rgrid = make_grid(0.1, 3.0, 581)
    T = 1.0 / (4.0 * math.pi)
    thermal, _ = schwarzschild_potential(T, rgrid)
    integrand = sample(rgrid, lambda r: (1.0 / (4.0 * math.pi * r) - T) * 2.0 * math.pi * r)
    rec = cumulative_integral(integrand) + float(thermal.U.values[0])
    record("schwarzschild_potential_reconstruction", sup_diff(rec, thermal.U), 1e-6)
    return checks


def cmd_verify(cfg) -> int:
    checks = _verify_checks(cfg)
    all_passed = all(c["passed"] for c in checks)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "config": _jsonable(cfg),
        "checks": checks,
        "all_passed": all_passed,
    }
    _write_report(str(cfg["out"]), "verify.json", report)
    print(json.dumps(report, indent=2))
    return 0 if all_passed else 2


def _ensure_out(out: str) -> str:
    os.makedirs(out, exist_ok=True)
    return out


def _jsonable(cfg: dict[str, object]) -> dict[str, object]:
    return {k: v for k, v in cfg.items() if v is not None}


_COMMON_DEFAULTS = {
    "scenario": "ou",
    "grid": None,
    "kmax": 8,
    "gamma": 1.0,
    "temperature": 1.0 / (4.0 * math.pi),
    "out": None,
}


def _add_common(sub):
    sub.add_argument("--scenario", help="ou | box | schwarzschild | csv:PATH")
    sub.add_argument("--grid", help="c1:c2:n_points, e.g. -12:12:2001")
    sub.add_argument("--kmax", type=int, help="number of solved levels minus one")
    sub.add_argument("--gamma", type=float, help="OU stiffness")
    sub.add_argument("--temperature", type=float, help="ensemble temperature (schwarzschild)")
    sub.add_argument("--config", help="flat key=value config file; flags override")
    sub.add_argument("--out", help="output directory (default $ISOFOKKER_OUT or .)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="isofokker", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("spectrum", "darboux", "deform", "evolve", "ml", "blackhole", "verify"):
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "darboux":
            sub.add_argument("--steps", type=int, help="number of deleted levels")
        if name == "deform":
            sub.add_argument("--lambda", dest="lambdas", help="comma list lambda0,lambda1,...")
        if name == "evolve":
            sub.add_argument("--times", help="comma list of evaluation times")
            sub.add_argument("--alpha", type=float, help="fractional order (omits => classical)")
            sub.add_argument("--ic", help="gaussian:mean,var | csv:PATH")
        if name == "ml":
            sub.add_argument("--alpha", type=float, help="Mittag-Leffler order in (0, 1]")
            sub.add_argument("--zmin", type=float)
            sub.add_argument("--zmax", type=float)
            sub.add_argument("--steps", type=int, help="table points")
        if name == "blackhole":
            sub.add_argument("--rmin", type=float)
            sub.add_argument("--rmax", type=float)
            sub.add_argument("--rpoints", type=int)
            sub.add_argument("--lambda", dest="lambdas", help="deform the thermal potential")
            sub.add_argument("--steps", type=int, help=argparse.SUPPRESS)
    return parser


_COMMANDS = {
    "spectrum": (cmd_spectrum, {}),
    "darboux": (cmd_darboux, {"steps": 1}),
    "deform": (cmd_deform, {"lambdas": None}),
    "evolve": (cmd_evolve, {"times": "1.0", "alpha": None, "ic": "gaussian:2,0.5"}),
    "ml": (cmd_ml, {"alpha": 0.5, "zmin": -10.0, "zmax": 0.0, "steps": 101}),
    "blackhole": (
        cmd_blackhole,
        {"rmin": 0.1, "rmax": 3.0, "rpoints": 581, "lambdas": None},
    ),
    "verify": (cmd_verify, {}),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_dash_values(argv))
        file_cfg = _load_config_file(args.config) if args.config else {}
        handler, extra_defaults = _COMMANDS[args.command]
        defaults = dict(_COMMON_DEFAULTS)
        defaults.update(extra_defaults)
        cfg = _resolve(args, file_cfg, defaults)
        if cfg["out"] is None:
            cfg["out"] = os.environ.get("ISOFOKKER_OUT", ".")
        cfg["command"] = args.command
        if cfg.get("lambdas") is None and args.command == "deform":
            raise UsageError("deform requires --lambda")
        return handler(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
