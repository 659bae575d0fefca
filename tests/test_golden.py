"""Golden digests: a refactor that changes any output byte fails here.

Each test runs one fixed scenario and compares the sha256 tree digest of
its run directory (the ``tree_digest`` of ``test_sim``) with a pinned value.
A change that alters output on purpose re-pins the digests and says why.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from artifact.sim import Scenario, demo_scenario, run, verify_output
from artifact.skills import default_registry

from .test_sim import tree_digest

DEMO_DIGEST = "197a7ceb2d2f21de87d6a5e6e572f72ae7fba3fbf947433a6b7b3dc58ada1a8a"
GRID_DIGEST = "50cdc622a168489670c02271bcd35aae2e1fe78b20b7d745d8ea07c933b891c5"

# Domain words chain skills; the rest are unmatched and broadcast needs.
TOPIC_WORDS = (
    "literature", "paper", "review", "survey", "citation",
    "protein", "peptide", "sequence", "receptor", "binding", "motif",
    "chemistry", "compound", "molecule", "drug", "smiles", "admet",
    "materials", "ceramic", "crystal", "alloy", "density",
    "kinetics", "toxicity", "scaling", "entropy", "fatigue", "folding",
    "porosity", "resonance", "lattice", "solvent", "grain", "signal",
)


def grid_scenario(seed: int, agents: int, cycles: int) -> Scenario:
    """Agent i runs the 4 registry tools from index 3i mod 12; every even
    agent gets a seeded 3-keyword topic each cycle. Mutation stays on."""
    tools = [m.name for m in default_registry().skills()]
    rng = random.Random(seed)
    return Scenario.from_dict({
        "seed": seed,
        "cycles": cycles,
        "agents": [
            {"name": f"agent{i:02d}",
             "preferred_tools": [tools[(3 * i + k) % len(tools)] for k in range(4)]}
            for i in range(agents)
        ],
        "seeded_topics": [
            {"cycle": cycle, "agent": f"agent{i:02d}",
             "topic": " ".join(rng.sample(TOPIC_WORDS, 3))}
            for cycle in range(cycles)
            for i in range(0, agents, 2)
        ],
        "mutation_enabled": True,
    })


def test_demo_digest_pinned(tmp_path):
    run(demo_scenario(), tmp_path / "demo")
    assert tree_digest(tmp_path / "demo") == DEMO_DIGEST
    assert verify_output(tmp_path / "demo") == []


def test_mutation_grid_digest_pinned(tmp_path):
    run(grid_scenario(seed=7, agents=10, cycles=10), tmp_path / "grid")
    assert tree_digest(tmp_path / "grid") == GRID_DIGEST
    assert verify_output(tmp_path / "grid") == []


def load_checker():
    """The benchmark's output checker, imported from its file: it reads the
    run files with json and hashlib alone, apart from the simulator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checker.py"
    spec = importlib.util.spec_from_file_location("perfbench_checker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("scenario", [
    demo_scenario,
    lambda: grid_scenario(seed=7, agents=10, cycles=10),
], ids=["demo", "grid"])
def test_benchmark_checker_passes_the_golden_runs(tmp_path, scenario):
    run(scenario(), tmp_path / "out")
    assert load_checker().check_run_dir(tmp_path / "out") == []
