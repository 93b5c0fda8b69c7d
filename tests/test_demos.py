"""Every script under demos/, and the README's library quick start, runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_fresh(args, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, tmp_path):
    proc = run_fresh([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert list(tmp_path.iterdir()) == []


def test_readme_library_quick_start_runs(tmp_path):
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    # a RuntimeWarning fails here as it fails the suite
    proc = run_fresh(["-W", "error::RuntimeWarning", "-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
