"""The scripts under ``scripts/`` run to completion against the package."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from .test_golden import DEMO_DIGEST, GRID_DIGEST

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, args, cwd):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name,args,printed", [
    ("emergence_sweep.py", ("2", "2"), "cross-producer synthesis emerged in"),
])
def test_script_runs(tmp_path, name, args, printed):
    result = run_script(name, args, tmp_path)
    assert result.returncode == 0, result.stderr
    assert printed in result.stdout


def test_digests_script_prints_the_golden_digests(tmp_path):
    result = run_script("digests.py", ("demo", "10x10"), tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        f"demo    {DEMO_DIGEST[:12]}  verify []",
        f"10x10   {GRID_DIGEST[:12]}  verify []",
    ]
    assert list(tmp_path.iterdir()) == []  # the runs go to a temporary directory


def test_digests_script_refuses_an_unknown_scenario(tmp_path):
    result = run_script("digests.py", ("demo", "9x9"), tmp_path)
    assert result.returncode == 2
    assert "unknown scenario(s) ['9x9']" in result.stderr


def test_memory_script_prints_the_traced_memory_of_the_demo(tmp_path):
    result = run_script("memory.py", ("demo",), tmp_path)
    assert result.returncode == 0, result.stderr
    header, line = result.stdout.splitlines()
    assert header.split() == ["scenario", "live", "MB", "verify", "peak", "MB", "verify"]
    name, live, peak, verdict = line.split()
    assert (name, verdict) == ("demo", "[]")
    assert 0 < float(peak) < float(live)
    assert list(tmp_path.iterdir()) == []
