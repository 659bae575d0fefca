#!/usr/bin/env python3
"""Print the traced memory of each named scenario's run and of its audit.

The scenarios are those of ``scripts/digests.py``. A line gives the
scenario, the memory that ``tracemalloc`` traces once ``run`` has returned,
with the ``World`` that wrote the run still alive, and the traced peak of
``verify_output`` over the run directory, traced apart, both in MB
(10^6 bytes), and what ``verify_output`` returned. Tracing starts after the
imports, so neither figure counts the interpreter or the compiled modules;
the first scenario's live figure also holds what the package sets up on
first use (about 0.2 MB more for 40x10 run alone than after the demo).

Usage: python scripts/memory.py [scenario ...]   (default: demo 10x10 40x10 160x10)
"""

from __future__ import annotations

import sys
import tempfile
import tracemalloc
from pathlib import Path

from digests import GRIDS, load_perfbench, scenario

from artifact.sim import run, verify_output

DEFAULT = ["demo", "10x10", "40x10", "160x10"]


def traced_run(name: str, workloads, out: Path) -> tuple[int, int, list[str]]:
    """The bytes traced live after ``run`` with its ``World`` alive, the
    traced peak of ``verify_output``, and the violations it returned."""
    tracemalloc.start()
    try:
        world, _ = run(scenario(name, workloads), out)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        violations = verify_output(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return live, peak, violations


def main(names: list[str]) -> int:
    names = names or DEFAULT
    unknown = [name for name in names if name != "demo" and name not in GRIDS]
    if unknown:
        print(f"unknown scenario(s) {unknown}; choose from demo, {', '.join(GRIDS)}",
              file=sys.stderr)
        return 2
    workloads = load_perfbench("workloads")
    print(f"{'scenario':<8} {'live MB':>8} {'verify peak MB':>15}  verify")
    failed = False
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            live, peak, violations = traced_run(name, workloads, Path(tmp) / "out")
        failed |= bool(violations)
        verdict = "[]" if not violations else f"{len(violations)} violation(s)"
        print(f"{name:<8} {live / 1e6:>8.2f} {peak / 1e6:>15.2f}  {verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
