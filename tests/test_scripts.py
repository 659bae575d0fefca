"""The scripts under ``scripts/`` run to completion against the package."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name,args,printed", [
    ("run_demo.py", ("out",), "all checks passed"),
    ("emergence_sweep.py", ("2", "2"), "cross-producer synthesis emerged in"),
])
def test_script_runs(tmp_path, name, args, printed):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert printed in result.stdout
