"""The run directory's layout, and the audit's names as the benchmark's
tracer finds them."""

from __future__ import annotations

import dataclasses
import tracemalloc

import artifact.sim as sim
from artifact.rundir import RunDir, load_world_dag
from artifact.sim import demo_scenario, run, verify_output

from .test_golden import grid_scenario
from .test_tracer_targets import load_tracer


def test_a_demo_run_writes_exactly_the_files_the_layout_names(tmp_path):
    out = tmp_path / "out"
    run(demo_scenario(), out)
    run_dir = RunDir(out)
    assert run_dir.agent_names() == ["alice", "bruno", "chen"]
    named = {run_dir.index, run_dir.governance, run_dir.report}
    for agent in run_dir.agent_names():
        named.update(dataclasses.astuple(run_dir.agent(agent)))
    assert {path for path in out.rglob("*") if path.is_file()} == named


def test_the_tracer_counts_one_verify_as_one_lineage_rebuild(tmp_path, monkeypatch):
    """``perfbench/tracer.py`` wraps ``verify_output`` and ``load_world_dag``
    by their names in ``sim``; one verify is one call of each, so
    ``verify.load_dag_s`` times the rebuild the audit makes."""
    out = tmp_path / "out"
    run(demo_scenario(), out)
    tracer = load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        assert sim.verify_output(out) == []
    finally:
        tracer.uninstall()
    assert tracer.calls["sim.verify_output"] == 1
    assert tracer.calls["sim.load_world_dag"] == 1
    assert tracer.time["verify.load_dag"] > 0


def test_the_rebuilt_lineage_holds_no_payload(tmp_path):
    out = tmp_path / "out"
    run(demo_scenario(), out)
    graph, records, _ = load_world_dag(out)
    assert records and len(graph) == len(records)
    for artifact_id, record in records.items():
        assert graph.node(artifact_id) is record
        assert not hasattr(record, "payload") and record.intact


def test_verify_peaks_below_the_world_that_wrote_the_run(tmp_path):
    """The audit holds a payload-free record per stored artifact, so its
    traced peak stays below the traced live memory of the ``World`` that
    wrote the run (the ``GRID_DIGEST`` grid), measured with it alive."""
    scenario = grid_scenario(seed=7, agents=10, cycles=10, mutation=True)
    tracemalloc.start()
    try:
        world, _ = run(scenario, tmp_path / "grid")
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        assert verify_output(tmp_path / "grid") == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert world.agents
    assert peak < live
