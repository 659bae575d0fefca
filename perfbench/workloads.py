"""Scenario generators for the three benchmark workloads.

Every scenario is made from the benchmark's ``--seed`` alone, so one seed
always gives the same inputs. A round of a workload is a fixed list of
scenarios; every round of a run repeats the same list.

The grids follow one recipe: agent *i* gets the 4 consecutive
default-registry tools that start at index ``3i mod 12``, and every other
agent (the even-numbered ones) gets a seeded 3-keyword topic each cycle.
Keywords come from the simulator's four domain vocabularies plus words no
domain knows, so topics both chain skills and broadcast needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Domain words select skills; the rest are unmatched and turn into needs.
TOPIC_WORDS = (
    "literature", "paper", "review", "survey", "citation",
    "protein", "peptide", "sequence", "receptor", "binding", "motif",
    "chemistry", "compound", "molecule", "drug", "smiles", "admet",
    "materials", "ceramic", "crystal", "alloy", "density",
    "kinetics", "toxicity", "scaling", "entropy", "fatigue", "folding",
    "porosity", "resonance", "lattice", "solvent", "grain", "signal",
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "grid" or "demo"
    per_round: int     # scenarios run in one round
    agents: int = 0
    cycles: int = 0
    mutation: bool = True


# The mutator's cost depends strongly on which sibling pair it starts
# merging over and over, which the seed decides: the sibling pairs it examines
# in one 10 x 10 grid vary by about 23% (standard deviation over mean) from
# seed to seed, and its run time with them. So a grid-mutate round sums twelve
# independent grids, which keeps one bench seed's figures within about 7% of
# another's.
WORKLOADS = {
    "grid-mutate": Workload("grid-mutate", "grid", per_round=12,
                            agents=10, cycles=10, mutation=True),
    "grid-react": Workload("grid-react", "grid", per_round=1,
                           agents=40, cycles=10, mutation=False),
    "demo-sweep": Workload("demo-sweep", "demo", per_round=20),
}


def sub_seeds(workload: Workload, seed: int) -> list[int]:
    """The scenario seeds of one round: distinct for distinct bench seeds."""
    return [seed * workload.per_round + k for k in range(workload.per_round)]


def grid_scenario(seed: int, agents: int, cycles: int, mutation: bool,
                  tool_names: list[str]) -> dict:
    """One synthetic grid in the simulator's scenario-file form."""
    rng = random.Random(seed)
    profiles = [
        {"name": f"agent{i:02d}",
         "preferred_tools": [tool_names[(3 * i + k) % len(tool_names)] for k in range(4)]}
        for i in range(agents)
    ]
    topics = [
        {"cycle": cycle, "agent": f"agent{i:02d}",
         "topic": " ".join(rng.sample(TOPIC_WORDS, 3))}
        for cycle in range(cycles)
        for i in range(0, agents, 2)
    ]
    return {
        "seed": seed,
        "cycles": cycles,
        "agents": profiles,
        "seeded_topics": topics,
        "mutation_enabled": mutation,
    }


def demo_sweep_scenarios(seeds: list[int], demo: dict) -> list[dict]:
    """The bundled demo once per seed, then its first seed a second time.

    The repeat lets every round check that a rerun writes the same tree.
    """
    runs = [dict(demo, seed=s) for s in seeds]
    return runs + [dict(runs[0])]


def scenario_dicts(workload: Workload, seed: int, tool_names: list[str],
                   demo: dict) -> list[dict]:
    seeds = sub_seeds(workload, seed)
    if workload.kind == "demo":
        return demo_sweep_scenarios(seeds, demo)
    return [grid_scenario(s, workload.agents, workload.cycles, workload.mutation, tool_names)
            for s in seeds]
