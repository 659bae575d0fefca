#!/usr/bin/env python3
"""Print the tree digest of each pinned scenario's run, and whether it verifies.

The scenarios are the bundled demo and the scenario-seed-7 grids of the
benchmark's recipe, ``perfbench/workloads.grid_scenario``: 10x10 and 20x20
with mutation on, and 40x10, 40x20, 40x40, 80x20, 160x10 and 320x10 with
it off (agents x cycles). A line gives the scenario, the first 12 hex digits of
``perfbench/checker.tree_digest`` over its run directory, and what
``verify_output`` returned. A refactor meant to keep every output byte
shows the same lines before and after.

Usage: python scripts/digests.py [scenario ...]   (default: all nine)
"""

from __future__ import annotations

import importlib.util
import sys
import tempfile
from pathlib import Path

from artifact.sim import Scenario, demo_scenario, run, verify_output
from artifact.skills import default_registry

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 7
GRIDS = {  # name: (agents, cycles, mutation on)
    "10x10": (10, 10, True),
    "20x20": (20, 20, True),
    "40x10": (40, 10, False),
    "40x20": (40, 20, False),
    "40x40": (40, 40, False),
    "80x20": (80, 20, False),
    "160x10": (160, 10, False),
    "320x10": (320, 10, False),
}


def load_perfbench(name: str):
    """A module of the benchmark, imported from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up as it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def scenario(name: str, workloads) -> Scenario:
    if name == "demo":
        return demo_scenario()
    agents, cycles, mutation = GRIDS[name]
    tools = [m.name for m in default_registry().skills()]
    return Scenario.from_dict(workloads.grid_scenario(SEED, agents, cycles, mutation, tools))


def main(names: list[str]) -> int:
    names = names or ["demo", *GRIDS]
    unknown = [name for name in names if name != "demo" and name not in GRIDS]
    if unknown:
        print(f"unknown scenario(s) {unknown}; choose from demo, {', '.join(GRIDS)}",
              file=sys.stderr)
        return 2
    workloads, checker = load_perfbench("workloads"), load_perfbench("checker")
    failed = False
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            run(scenario(name, workloads), out)
            violations = verify_output(out)
            failed |= bool(violations)
            verdict = "[]" if not violations else f"{len(violations)} violation(s)"
            print(f"{name:<7} {checker.tree_digest(out)[:12]}  verify {verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
