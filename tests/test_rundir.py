"""The run directory's layout, and the audit's names as the benchmark's
tracer finds them."""

from __future__ import annotations

import dataclasses

import artifact.sim as sim
from artifact.rundir import RunDir
from artifact.sim import demo_scenario, run

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
