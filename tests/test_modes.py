"""Random scenarios, each run both sequentially and concurrently.

A scenario draws its agents, seeded topics, chat and redirect
interventions, and a mutation policy within the policy's bounds, so the
mutator merges and grafts under both modes. Forks are rare in drawn runs:
drift raises ``stagnation_cycles`` by one on every heartbeat whose conflict
rate is under 0.2, so a leaf goes stale only under sustained conflict. The
bundled demo, which forks, is therefore always one of the examples.
``verify`` must find nothing wrong in either mode, no ``artifact.*`` logger
may report a swallowed exception, and a sequential run must write the same
tree again when rerun. Concurrent runs are not compared byte for byte:
which thread claims an artifact first is up to the scheduler.

Drawn scenarios rarely give two agents one tool list, so one example is an
8-agent grid of the benchmark's recipe, mutation on, whose agents i and
i + 4 share a profile: under threads, 8 reactors read 4 candidate boards.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from artifact.mutator import REDUNDANCY_BOUNDS, STAGNATION_BOUNDS
from artifact.sim import Scenario, demo_scenario, run, verify_output
from artifact.skills import default_registry

from .test_golden import WORKLOADS
from .test_sim import logged_errors, tree_digest

TOOLS = [m.name for m in default_registry().skills()]
TOPIC_WORDS = WORKLOADS.TOPIC_WORDS


@st.composite
def scenarios(draw) -> dict:
    agents = draw(st.integers(1, 5))
    cycles = draw(st.integers(1, 6))
    names = [f"agent{i}" for i in range(agents)]
    topics = draw(st.lists(
        st.tuples(st.integers(0, cycles - 1), st.sampled_from(names),
                  st.lists(st.sampled_from(TOPIC_WORDS), min_size=1, max_size=4)),
        max_size=2 * agents * cycles,
    ))
    interventions = draw(st.lists(
        st.tuples(st.integers(0, cycles - 1), st.sampled_from(names),
                  st.sampled_from(("chat", "redirect")),
                  st.lists(st.sampled_from(TOPIC_WORDS), min_size=1, max_size=4)),
        max_size=agents,
    ))
    policy = draw(st.fixed_dictionaries({
        "stagnation_cycles": st.integers(*STAGNATION_BOUNDS),
        "redundancy_threshold": st.floats(*REDUNDANCY_BOUNDS),
        "max_mutations_per_cycle": st.integers(1, 4),
    }, optional={"drift_step": st.floats(0.0, 0.2)}))
    return {
        "seed": draw(st.integers(0, 2**16)),
        "cycles": cycles,
        "agents": [
            {"name": name,
             "preferred_tools": draw(st.lists(st.sampled_from(TOOLS), unique=True,
                                              max_size=5))}
            for name in names
        ],
        "seeded_topics": [
            {"cycle": cycle, "agent": agent, "topic": " ".join(words)}
            for cycle, agent, words in topics
        ],
        "interventions": [
            {"cycle": cycle, "agent": agent, "comment_type": kind, "body": " ".join(words)}
            for cycle, agent, kind, words in interventions
        ],
        "mutation_policy": policy,
    }


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(data=scenarios())
@example(data=demo_scenario().to_dict())
@example(data=WORKLOADS.grid_scenario(7, 8, 3, True, TOOLS))
def test_both_modes_verify_and_sequential_reruns_repeat(data):
    root = Path(tempfile.mkdtemp())
    try:
        with logged_errors() as errors:
            run(Scenario.from_dict(data), root / "first")
            assert verify_output(root / "first") == []
            run(Scenario.from_dict(data), root / "again")
            assert tree_digest(root / "again") == tree_digest(root / "first")
            run(Scenario.from_dict({**data, "concurrent": True}), root / "concurrent")
            assert verify_output(root / "concurrent") == []
        assert [record.getMessage() for record in errors] == []
    finally:
        shutil.rmtree(root)
