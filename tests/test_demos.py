"""The demos run end to end: each exits 0 in a fresh interpreter, with nothing on stderr."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hmflab as H

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@functools.cache
def run_demo(name):
    """The finished process of one demo, run once per session."""
    src = str(Path(H.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, str(DEMOS / name)], env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_runs_cleanly(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


def test_walkthrough_reports_the_floor_and_the_second_order_coupling():
    # the gap of the eps = 0.01 run to the linear solve is the eps = 0 run's
    # discretization floor plus an eps^2 term, not an O(eps) gap
    lines = run_demo("landau_damping_walkthrough.py").stdout.splitlines()
    assert not any("O(eps)" in line for line in lines)
    floor = next(line for line in lines if line.startswith("eps = 0 run against the linear field-equation solve:"))
    assert "discretization floor" in floor
    assert any("/ eps^2 = " in line for line in lines)
