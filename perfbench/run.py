#!/usr/bin/env python3
"""isofokker benchmark: one workload per run, result as JSON on the last line.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0

Each run is a closed loop: one client in one process runs the workload's
operations one after another.  The operations come from the seed alone; the
loop repeats whole passes over them while the next pass still fits in
``--seconds``, and rates are medians over passes.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones from
a traced pass (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

# One client and no hidden thread pools: pin BLAS before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# Errors below this are round-off and are reported as this value, so that a
# change in summation order does not read as a change in accuracy.
ROUND_OFF = 1e-12
# A run measures at least this many passes, even past --seconds.
MIN_PASSES = 3


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("ISOFOKKER_OUT", None)
    return env


def fresh_import_s(env) -> float:
    """Time ``import isofokker`` inside a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import isofokker; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def environment() -> dict[str, object]:
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


class OpRunner:
    """Runs one operation under a SIGALRM deadline, then checks and classifies the outcome."""

    def __init__(self, workload, ctx, tracer=None):
        import workloads

        self.workloads = workloads
        self.workload = workload
        self.ctx = ctx
        self.tracer = tracer

    def __call__(self, op_id: int, op: dict) -> tuple[str, float]:
        root = None
        if self.tracer:
            root = self.tracer.begin_op(op_id, f"cli.{op['argv'][0]}" if "argv" in op else "op")
        status, result = "ok", None
        start = time.perf_counter()
        try:
            with spans.alarm(self.workload.deadline_s):
                result = self.workload.run(op, self.ctx)
        except self.workloads.CommandFailed as exc:
            status = exc.kind
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # the operation's own failure: classified and counted
            status = spans.error_class(exc)
        elapsed = time.perf_counter() - start
        if root is not None:
            self.tracer.end_op(root, None if status == "ok" else status)
        if status == "ok":
            try:
                self.workload.check(op, result)
            except self.workloads.WrongOutput:
                status = "wrong_output"
        return status, elapsed


def latency_ms(status: str, elapsed: float, deadline: float) -> float:
    """Latency that enters the percentiles.

    A failed operation counts at the deadline.  One hundredth of the time it
    took is added, which ranks failures by their cost and keeps a percentile
    that falls among failures a measurement rather than a constant.
    """
    if status == "ok":
        return elapsed * 1e3
    return (deadline + elapsed / 100.0) * 1e3


def run_passes(runner, ops, seconds: float, min_passes: int = MIN_PASSES, max_passes: int | None = None):
    """Whole passes over ``ops``: at least ``min_passes``, then while the next is predicted to fit in ``seconds``.

    Returns every outcome and the successful operations per second of each pass.
    """
    outcomes, rates = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        done = [runner(i, op) for i, op in enumerate(ops)]
        now = time.perf_counter()
        outcomes.extend(done)
        rates.append(sum(1 for status, _ in done if status == "ok") / (now - pass_start))
        if len(rates) == max_passes:
            return outcomes, rates
        if len(rates) >= min_passes and (now - start) + (now - pass_start) > seconds:
            return outcomes, rates


def end_to_end(outcomes, rates, deadline: float) -> dict[str, float]:
    lat = [latency_ms(status, elapsed, deadline) for status, elapsed in outcomes]
    q = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else lat * 9
    return {"ops_per_s": statistics.median(rates), "op_ms_p50": q[4], "op_ms_p90": q[8]}


def make_workload(name: str):
    import workloads

    if name == "construct":
        return workloads.Construct()
    if name == "fractional":
        return workloads.Fractional()
    return workloads.Cli(ROOT, child_env(), str(OUT / "tmp"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("construct", "fractional", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "isofokker" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'isofokker'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    env = child_env()

    import_s = statistics.median(fresh_import_s(env) for _ in range(SETUP_REPEATS))
    import isofokker

    if Path(isofokker.__file__).resolve().parent != (SRC / "isofokker").resolve():
        print(f"error: imported isofokker from {isofokker.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import probes

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload)
    setup_times, ctx = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = workload.setup()
        setup_times.append(time.perf_counter() - t0)
    ops = workload.make_ops(args.seed)
    probe_metrics, probes_ok = probes.run_all(str(OUT / "tmp"))
    print("# env " + json.dumps(environment()))

    if args.trace:
        # One untraced pass, then one traced pass of the same operations.
        if args.workload == "cli":
            workload.in_process = True  # drive cli.main in this process, where it can be traced
        t0 = time.perf_counter()
        run_passes(OpRunner(workload, ctx), ops, args.seconds, max_passes=1)
        plain_wall = time.perf_counter() - t0
        tracer = spans.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            outcomes, rates = run_passes(OpRunner(workload, ctx, tracer), ops, args.seconds, max_passes=1)
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        metrics = {**probe_metrics, **tracer.layer_metrics()}
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        outcomes, rates = run_passes(OpRunner(workload, ctx), ops, args.seconds)
        metrics = {k: max(v, ROUND_OFF) if k.startswith("acc_") else v for k, v in probe_metrics.items()}
        metrics.update(end_to_end(outcomes, rates, workload.deadline_s))
        metrics["setup_s"] = import_s + statistics.median(setup_times)
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics["peak_rss_mib"] = resource.getrusage(usage).ru_maxrss / 1024.0

    metrics = {k: v for k, v in metrics.items() if k in units}
    attempted = len(outcomes)
    failures = {c: sum(1 for o in outcomes if o[0] == c) for c in spans.FAILURE_CLASSES}
    failed = sum(failures.values())
    print(f"# {args.workload} seed={args.seed} ops_per_pass={len(ops)} passes={len(rates)} "
          f"attempted={attempted} failed={failed} fail_frac={failed / attempted:.4f} "
          f"failures={json.dumps(failures)} probes_ok={probes_ok} "
          f"pass_rates={json.dumps([round(r, 4) for r in rates])}")
    for key in sorted(metrics):
        print(f"# {key} = {metrics[key]:.6g} {units[key]} (samples={attempted})")
    result = {
        "correct": bool(probes_ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
