"""Smoke test of the benchmark itself; not part of the tier-1 suite.

    python -m pytest -q perfbench/test_smoke.py

Each case runs ``perfbench/run.py`` from the repository root, with a
one-second measuring window, and checks the shape of its result line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return result


@pytest.mark.parametrize("workload", ["construct", "fractional"])
def test_end_to_end_metrics(workload):
    result = _result(_run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0"))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["failed"] == 0


def test_traced_run_reports_layers():
    result = _result(_run(ROOT, "--workload", "construct", "--seed", "7", "--seconds", "1", "--trace", "1"))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["spectral.solve_spectrum.calls"]["value"] > 0
    assert result["metrics"]["darboux.steps"]["value"] > 0


def test_same_seed_same_inputs():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import workloads

        for make in (workloads.Construct, workloads.Fractional, lambda: workloads.Cli(ROOT, {}, "")):
            assert make().make_ops(3) == make().make_ops(3)
            assert make().make_ops(3) != make().make_ops(4)
    finally:
        sys.path.remove(str(HERE))
        sys.path.remove(str(ROOT / "src"))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "construct", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
