#!/usr/bin/env python3
"""Seed sweep: how reliably does cross-producer synthesis emerge?

Runs the three-agent need-broadcast scenario over a range of seeds and
reports, per seed, the number of synthesis artifacts whose parents span
at least two producer agents, counted from the run directory's stores,
plus the mean need-fulfillment latency.

Usage: python scripts/emergence_sweep.py [n_seeds] [cycles]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from artifact.rundir import load_world_dag
from artifact.sim import Scenario, run

AGENTS = [
    {"name": "alice",
     "preferred_tools": ["paper_search", "citation_graph", "topic_summary",
                         "protein_lookup"]},
    {"name": "bruno",
     "preferred_tools": ["protein_lookup", "sequence_align", "motif_scan"]},
    {"name": "chen",
     "preferred_tools": ["compound_lookup", "materials_search", "protein_lookup"]},
]

TOPICS = [
    {"cycle": 0, "agent": "alice", "topic": "protein receptor study zzqx"},
    {"cycle": 0, "agent": "chen", "topic": "protein binding material pp31"},
    {"cycle": 1, "agent": "alice", "topic": "peptide conservation scan rr28"},
]


def spanning_syntheses(out_dir: Path) -> int:
    _, artifacts, _ = load_world_dag(out_dir)
    count = 0
    for artifact in artifacts.values():
        if artifact.artifact_type != "synthesis" or len(artifact.parent_artifact_ids) < 2:
            continue
        producers = {artifacts[p].producer_agent for p in artifact.parent_artifact_ids}
        if len(producers) >= 2:
            count += 1
    return count


def main() -> int:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    cycles = int(sys.argv[2]) if len(sys.argv) > 2 else 3

    print(f"{'seed':>6} {'artifacts':>9} {'spanning':>9} {'fulfilled':>9} "
          f"{'latency_h':>10}")
    emerged = 0
    for seed in range(n_seeds):
        scenario = Scenario.from_dict({
            "seed": seed, "cycles": cycles, "agents": AGENTS,
            "seeded_topics": TOPICS,
        })
        with tempfile.TemporaryDirectory() as tmp:
            _, report = run(scenario, Path(tmp))
            spanning = spanning_syntheses(Path(tmp))
            emerged += spanning > 0
            latency = report.mean_need_latency_seconds
            latency_h = f"{latency / 3600:.2f}" if latency is not None else "-"
            print(f"{seed:>6} {report.dag_metrics['artifact_count']:>9} "
                  f"{spanning:>9} {len(report.need_latencies):>9} "
                  f"{latency_h:>10}")
    print(f"\ncross-producer synthesis emerged in {emerged}/{n_seeds} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
