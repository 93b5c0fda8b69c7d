"""Span tracer for the traced benchmark run.

The tracer wraps every public function of the package's modules (the names
in each module's ``__all__``) wherever a module of the package binds it, so
calls between layers as well as the benchmark's own calls are recorded.  It
also wraps ``TemporalRule.factors``, the evolve layer's per-mode temporal
factor loop.  Spans are kept in memory as (name, start, end, parent, op id,
error class, tag) and written out once, at the end of the run.  Nothing in
the package is edited: ``install`` rebinds names and ``uninstall`` restores
them.  A public name that no longer exists is skipped, so its metrics are
simply absent.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import signal
import sys
import time
from collections import defaultdict

PACKAGE = "isofokker"
LAYERS = ("grid", "scenarios", "spectral", "darboux", "isospectral", "evolve", "mittag", "oracle", "cli")

# Classes of a failed operation, as ``error_class`` and the output checks name them.
FAILURE_CLASSES = ("value_error", "arithmetic_error", "deadline", "wrong_output", "other_error")

# Span record fields.
NAME, START, END, PARENT, OP, ERROR, TAG = range(7)


class Deadline(BaseException):
    """Raised by the SIGALRM handler when an operation overruns its deadline.

    A BaseException, so that no ``except Exception`` in the package swallows it.
    """


@contextlib.contextmanager
def alarm(seconds: float):
    """Raise ``Deadline`` in the block if it runs longer than ``seconds`` (SIGALRM, main thread)."""
    armed = True

    def on_alarm(signum, frame):
        if armed:
            raise Deadline()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def error_class(exc: BaseException) -> str:
    if isinstance(exc, Deadline):
        return "deadline"
    if isinstance(exc, ValueError):
        return "value_error"
    if isinstance(exc, ArithmeticError):
        return "arithmetic_error"
    return "other_error"


def _alpha_band(alpha: float) -> str:
    if alpha < 0.5:
        return "a_lo"
    return "a_mid" if alpha <= 0.9 else "a_hi"


def _ml_tag(bound) -> str:
    z = float(bound["z"])
    return f"{_alpha_band(float(bound['alpha']))}.{'z_le5' if abs(z) <= 5.0 else 'z_gt5'}"


def _terms(coeffs, n_states: int) -> int:
    return sum(1 for c in list(coeffs)[:n_states] if c != 0.0)


def _evolve_terms(b):
    sol = b["sol"]
    n = sol.spectrum.grid.n_points
    return _terms(sol.coeffs, len(sol.spectrum.states)), n


def _partner_terms(b):
    chain = b["chain"]
    stage = chain.stage_states[chain.n_steps]
    return _terms(list(b["coeffs"])[chain.n_steps :], len(stage)), chain.base.grid.n_points


def _iso_terms(b):
    d = b["deformation"]
    return _terms(b["coeffs"], len(d.states)), d.chain.base.grid.n_points


_DENSITY_KERNELS = {
    "evolve.evolve_pdf": _evolve_terms,
    "darboux.partner_pdf": _partner_terms,
    "isospectral.iso_pdf": _iso_terms,
}


def _count(counts, qname, b):
    """Work counters taken at the layer boundary from a call's arguments."""
    if qname == "spectral.solve_spectrum":
        counts["spectral.nodes_solved"] += b["op"].grid.n_points
    elif qname in _DENSITY_KERNELS:
        terms, n = _DENSITY_KERNELS[qname](b)
        counts["evolve.mode_terms"] += terms
        counts["evolve.bytes_computed"] += terms * n * 8
    elif qname == "oracle.cn_evolve":
        cfg = b["cfg"]
        counts["oracle.cn_steps"] += int(round(cfg.t_end / cfg.dt))
    elif qname == "grid.write_csv":
        counts["grid.write_csv.bytes"] += os.path.getsize(b["path"])


_COUNTED = {"spectral.solve_spectrum", "oracle.cn_evolve", "grid.write_csv", *_DENSITY_KERNELS}
_TAGGED = {"mittag.mittag_leffler": _ml_tag}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: int | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers ---------------------------------

    def _targets(self) -> dict[int, tuple[object, str]]:
        targets = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj):
                    targets[id(obj)] = (obj, f"{layer}.{name}")
        return targets

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {key: self._wrap(fn, qname) for key, (fn, qname) in self._targets().items()}
        prefix = PACKAGE + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(prefix)):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        evolve = sys.modules.get(prefix + "evolve")
        rule = getattr(evolve, "TemporalRule", None)
        factors = getattr(rule, "factors", None)
        if inspect.isfunction(factors):
            self._restore.append((rule, "factors", factors))
            rule.factors = self._wrap(factors, "evolve.factors")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, qname: str):
        tracer = self
        signature = inspect.signature(fn)
        counted = qname in _COUNTED
        tagger = _TAGGED.get(qname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments if (counted or tagger) else None
            rec = [qname, time.perf_counter(), 0.0, tracer.stack[-1] if tracer.stack else -1,
                   tracer.op_id, None, tagger(bound) if tagger else None]
            tracer.spans.append(rec)
            tracer.stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = error_class(exc)
                raise
            finally:
                rec[END] = time.perf_counter()
                tracer.stack.pop()
            if counted:
                _count(tracer.counts, qname, bound)
            return result

        return traced

    # -- operation roots ------------------------------------------------------

    def begin_op(self, op_id: int, name: str) -> list:
        self.op_id = op_id
        self.stack = [len(self.spans)]
        rec = [name, time.perf_counter(), 0.0, -1, op_id, None, None]
        self.spans.append(rec)
        return rec

    def end_op(self, rec: list, error: str | None) -> None:
        end = time.perf_counter()
        rec[END] = end
        rec[ERROR] = error
        # A deadline can land between a wrapper's entry and its try block;
        # close any span the interruption left open at the operation's end.
        for span in self.spans[self.stack[0] :]:
            if span[END] == 0.0:
                span[END] = end
        self.stack = []
        self.op_id = None

    # -- derived numbers ------------------------------------------------------

    def self_times(self) -> list[float]:
        self_t = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                self_t[s[PARENT]] -= s[END] - s[START]
        return self_t

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers in the benchmark's naming (see perfbench/README.md)."""
        self_t = self.self_times()
        calls = defaultdict(int)
        self_ms = defaultdict(float)
        ml_ms = defaultdict(float)
        ml_calls = defaultdict(int)
        cli_ms = defaultdict(list)
        for i, s in enumerate(self.spans):
            name = s[NAME]
            layer = name.split(".", 1)[0]
            if s[PARENT] < 0:
                if layer == "cli":
                    cli_ms[name].append((s[END] - s[START]) * 1e3)
                continue
            calls[name] += 1
            self_ms[name] += self_t[i] * 1e3
            self_ms[layer] += self_t[i] * 1e3
            if name == "mittag.mittag_leffler":
                ml_ms[s[TAG]] += (s[END] - s[START]) * 1e3
                ml_calls[s[TAG]] += 1

        known = {q for _, q in self._targets().values()} | {"evolve.factors"}
        out: dict[str, float] = {}
        for qname in (
            "spectral.build_hamiltonian", "spectral.solve_spectrum",
            "darboux.build_chain", "darboux.crum_states", "darboux.partner_drift",
            "isospectral.reinstate",
            "grid.derivative", "grid.divide", "grid.cumulative_integral", "grid.integrate",
            "evolve.project", "evolve.evolve_pdf", "evolve.factors",
            "darboux.partner_pdf", "isospectral.iso_pdf",
            "oracle.cn_evolve", "oracle.gl_residual", "grid.write_csv",
        ):
            if qname in known:
                out[f"{qname}.self_ms"] = self_ms[qname]
        if "spectral.solve_spectrum" in known:
            out["spectral.solve_spectrum.calls"] = calls["spectral.solve_spectrum"]
            out["spectral.nodes_solved"] = self.counts["spectral.nodes_solved"]
        if "darboux.darboux_step" in known:
            out["darboux.steps"] = calls["darboux.darboux_step"]
        for layer in LAYERS:
            if layer not in ("cli", "mittag"):
                out[f"{layer}.self_ms"] = self_ms[layer]
        # time inside operations that no wrapped function accounts for
        out["op.self_ms"] = sum(self_t[i] for i, s in enumerate(self.spans) if s[PARENT] < 0) * 1e3
        if known & set(_DENSITY_KERNELS):
            out["evolve.mode_terms"] = self.counts["evolve.mode_terms"]
            out["evolve.bytes_computed"] = self.counts["evolve.bytes_computed"]
        if "mittag.mittag_leffler" in known:
            out["mittag.calls"] = sum(ml_calls.values())
            out["mittag.self_ms"] = self_ms["mittag"]
            for band in ("a_lo", "a_mid", "a_hi"):
                for zb in ("z_le5", "z_gt5"):
                    tag = f"{band}.{zb}"
                    n = ml_calls[tag]
                    out[f"mittag.ms_per_call.{tag}"] = ml_ms[tag] / n if n else 0.0
        if "oracle.cn_evolve" in known:
            out["oracle.cn_steps"] = self.counts["oracle.cn_steps"]
        if "grid.write_csv" in known:
            out["grid.write_csv.bytes"] = self.counts["grid.write_csv.bytes"]
        for cmd in ("spectrum", "darboux", "deform", "evolve", "ml", "blackhole", "verify"):
            samples = cli_ms.get(f"cli.{cmd}", [])
            out[f"cli.{cmd}.ms"] = sum(samples) / len(samples) if samples else 0.0
        return out

    def write(self, path) -> None:
        """Write all spans as JSON lines: name, start, end, parent, op, error, tag."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
