"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(bench.SRC))

from artifact.sim import Scenario, demo_scenario, run  # noqa: E402
from artifact.skills import default_registry  # noqa: E402
from tracer import Tracer  # noqa: E402


def tiny_grid(seed: int = 3) -> Scenario:
    tools = [m.name for m in default_registry().skills()]
    return Scenario.from_dict(workloads.grid_scenario(seed, agents=4, cycles=3,
                                                      mutation=True, tool_names=tools))


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo") / "run"
    run(demo_scenario(), out)
    return out


def names(problems):
    return {name for name, _ in problems}


def copy_tree(src: Path, dst: Path) -> Path:
    for path in src.rglob("*"):
        if path.is_file():
            target = dst / path.relative_to(src)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    return dst


def test_checker_passes_a_clean_run(demo_dir):
    assert checker.check_run_dir(demo_dir) == []


def test_one_changed_byte_in_a_store_line_fails(demo_dir, tmp_path):
    out = copy_tree(demo_dir, tmp_path / "run")
    store = out / "agents" / "alice" / "store.jsonl"
    raw = bytearray(store.read_bytes())
    at = raw.index(b'"echo":{') + len(b'"echo":{"') + 1  # inside the first payload key
    raw[at] = ord("X") if raw[at] != ord("X") else ord("Y")
    store.write_bytes(bytes(raw))
    assert "hash" in names(checker.check_run_dir(out))


def test_a_duplicated_need_fulfilment_fails(demo_dir, tmp_path):
    out = copy_tree(demo_dir, tmp_path / "run")
    for reactions in sorted(out.glob("agents/*/reactions.jsonl")):
        lines = reactions.read_text("utf-8").splitlines(keepends=True)
        fulfilments = [line for line in lines if json.loads(line)["fulfilled_need"]]
        if fulfilments:
            reactions.write_text("".join(lines + fulfilments[:1]), "utf-8")
            break
    else:
        pytest.fail("the demo fulfils no need")
    assert "need_fulfilled_twice" in names(checker.check_run_dir(out))


def test_a_wrong_pressure_score_fails(demo_dir, tmp_path):
    out = copy_tree(demo_dir, tmp_path / "run")
    for reactions in sorted(out.glob("agents/*/reactions.jsonl")):
        records = [json.loads(line) for line in reactions.read_text("utf-8").splitlines()]
        scored = [r for r in records if r["pressure"]]
        if scored:
            scored[0]["pressure"]["score"] += 1e-6
            reactions.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
            break
    assert "pressure_score" in names(checker.check_run_dir(out))


def test_traced_and_untraced_runs_write_the_same_tree(tmp_path):
    scenario = tiny_grid()
    run(scenario, tmp_path / "plain")
    tracer = Tracer()
    tracer.install()
    try:
        run(scenario, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert checker.tree_digest(tmp_path / "plain") == checker.tree_digest(tmp_path / "traced")
    assert tracer.calls["sim.heartbeat"] == 4 * 3
    assert tracer.counts["ledger.fsync_calls"] == tracer.calls["ledger.ArtifactStore.append"]


def test_uninstall_restores_every_name():
    import artifact
    import artifact.ledger
    import artifact.sim

    before = (artifact.sim.run, artifact.run, artifact.ledger.content_hash,
              artifact.ledger.os, artifact.sim.World.resolve_id)
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    after = (artifact.sim.run, artifact.run, artifact.ledger.content_hash,
             artifact.ledger.os, artifact.sim.World.resolve_id)
    assert before == after
    assert "open" not in vars(artifact.sim)


def test_scenarios_depend_on_the_seed_alone():
    tools = [m.name for m in default_registry().skills()]
    demo = demo_scenario().to_dict()
    for workload in workloads.WORKLOADS.values():
        one = workloads.scenario_dicts(workload, 5, tools, demo)
        assert one == workloads.scenario_dicts(workload, 5, tools, demo)
        assert one != workloads.scenario_dicts(workload, 6, tools, demo)
        for data in one:
            Scenario.from_dict(data)


def test_benchmark_without_the_program_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "demo-sweep", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
