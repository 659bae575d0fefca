"""Golden digests: a refactor that changes any output byte fails here.

Each test runs one fixed scenario and compares the sha256 tree digest of
its run directory (the ``tree_digest`` of ``test_sim``) with a pinned value.
A change that alters output on purpose re-pins the digests and says why.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from artifact.sim import Scenario, demo_scenario, run, verify_output
from artifact.skills import default_registry

from .test_sim import tree_digest

DEMO_DIGEST = "5d0c359a41fb03fca16bdbbf286d2a388e57a611fd12d7f33a0501cded0530b9"
GRID_DIGEST = "2019e3c0abb02d164ad02919d511646830fab8be0f88a939c31718190f227968"
# A 20-cycle grid: a change that only a run's later heartbeats show, such as
# the gap queue's bound, leaves the 10-cycle digests as they were.
GRID_20_DIGEST = "41890ac0dae75875710c07c7378b02848d7d8d7d727c9c35a67c419b6ff0dcb7"
# A mutation-off grid, as the benchmark's grid-react workload runs: the mutator
# does nothing, so the publish path, the reactors and the feed set the bytes.
REACT_GRID_DIGEST = "6c16c2b108592957b0c3b6f77eb1105105cfbb36600b149a9fe12ace045f1302"

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    """A module of the benchmark, imported from its file: the benchmark's
    modules use the standard library alone, apart from the simulator."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up as it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WORKLOADS = load_perfbench("workloads")


def grid_scenario(seed: int, agents: int, cycles: int, mutation: bool) -> Scenario:
    """A grid made by the benchmark's own recipe,
    ``perfbench/workloads.grid_scenario``, from the default registry's tools."""
    tools = [m.name for m in default_registry().skills()]
    return Scenario.from_dict(WORKLOADS.grid_scenario(seed, agents, cycles, mutation, tools))


def test_demo_digest_pinned(tmp_path):
    run(demo_scenario(), tmp_path / "demo")
    assert tree_digest(tmp_path / "demo") == DEMO_DIGEST
    assert verify_output(tmp_path / "demo") == []


def test_mutation_grid_digest_pinned(tmp_path):
    run(grid_scenario(seed=7, agents=10, cycles=10, mutation=True), tmp_path / "grid")
    assert tree_digest(tmp_path / "grid") == GRID_DIGEST
    assert verify_output(tmp_path / "grid") == []


def test_20x20_mutation_grid_digest_pinned(tmp_path):
    run(grid_scenario(seed=7, agents=20, cycles=20, mutation=True), tmp_path / "grid")
    assert tree_digest(tmp_path / "grid") == GRID_20_DIGEST
    assert verify_output(tmp_path / "grid") == []


def test_mutation_off_grid_digest_pinned(tmp_path):
    run(grid_scenario(seed=7, agents=40, cycles=10, mutation=False), tmp_path / "grid")
    assert tree_digest(tmp_path / "grid") == REACT_GRID_DIGEST
    assert verify_output(tmp_path / "grid") == []


@pytest.mark.parametrize("scenario", [
    demo_scenario,
    lambda: grid_scenario(seed=7, agents=10, cycles=10, mutation=True),
], ids=["demo", "grid"])
def test_benchmark_checker_passes_the_golden_runs(tmp_path, scenario):
    run(scenario(), tmp_path / "out")
    assert load_perfbench("checker").check_run_dir(tmp_path / "out") == []
