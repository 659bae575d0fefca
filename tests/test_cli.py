from __future__ import annotations

import json

import pytest

from artifact.cli import main
from artifact.sim import Scenario

SCENARIO = {
    "seed": 31,
    "cycles": 2,
    "agents": [
        {"name": "ana", "preferred_tools": ["paper_search", "protein_lookup"]},
        {"name": "bo", "preferred_tools": ["protein_lookup", "sequence_align"]},
    ],
    "seeded_topics": [
        {"cycle": 0, "agent": "ana", "topic": "protein survey zz91"},
        {"cycle": 1, "agent": "ana", "topic": "protein binding zz92"},
    ],
}


@pytest.fixture
def run_dir(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO))
    out = tmp_path / "out"
    code = main(["run", str(scenario_path), "--out", str(out), "--verify"])
    assert code == 0
    return out


def test_run_writes_report(run_dir, capsys):
    assert (run_dir / "report.json").exists()
    report = json.loads((run_dir / "report.json").read_text())
    assert report["scenario"]["seed"] == 31


def test_run_into_a_used_directory_exits_2(run_dir, tmp_path, capsys):
    capsys.readouterr()
    assert main(["run", str(tmp_path / "scenario.json"), "--out", str(run_dir)]) == 2
    assert "not empty" in capsys.readouterr().err


def test_run_seed_override(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO))
    out = tmp_path / "out"
    assert main(["run", str(scenario_path), "--out", str(out), "--seed", "77"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"]["seed"] == 77


def test_metrics_command(run_dir, capsys):
    assert main(["metrics", "--out", str(run_dir)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["artifact_count"] > 0


def test_export_dag_both_formats(run_dir, capsys, tmp_path):
    assert main(["export-dag", "--out", str(run_dir), "--format", "graph-text"]) == 0
    assert capsys.readouterr().out.startswith("digraph lineage {")
    target = tmp_path / "dag.json"
    assert main(["export-dag", "--out", str(run_dir),
                 "--format", "structured-dump", "--output", str(target)]) == 0
    dump = json.loads(target.read_text())
    assert dump["nodes"]


def test_inspect_round_trip(run_dir, capsys):
    index_line = (run_dir / "index.jsonl").read_text().splitlines()[0]
    entry = json.loads(index_line)
    address = f"artifact://{entry['producer_agent']}/{entry['artifact_id']}"
    assert main(["inspect", address, "--out", str(run_dir)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["artifact_id"] == entry["artifact_id"]


def test_inspect_unknown_artifact(run_dir, capsys):
    address = "artifact://ana/00000000-0000-4000-8000-000000000000"
    assert main(["inspect", address, "--out", str(run_dir)]) == 1


def test_inspect_bad_address_is_an_error(run_dir):
    assert main(["inspect", "nonsense", "--out", str(run_dir)]) == 2


def test_inspect_refuses_a_record_another_agent_produced(run_dir, capsys):
    """A record of bo's copied into ana's store is damage, not ana's artifact."""
    peer_line = (run_dir / "agents" / "bo" / "store.jsonl").read_text().splitlines()[0]
    with open(run_dir / "agents" / "ana" / "store.jsonl", "a") as handle:
        handle.write(peer_line + "\n")
    address = f"artifact://ana/{json.loads(peer_line)['artifact_id']}"
    capsys.readouterr()
    assert main(["inspect", address, "--out", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "was produced by bo" in err


def test_verify_command(run_dir, capsys):
    assert main(["verify", "--out", str(run_dir)]) == 0
    assert "all invariant checks passed" in capsys.readouterr().out


def test_verify_detects_tampering(run_dir, capsys):
    store = run_dir / "agents" / "ana" / "store.jsonl"
    lines = store.read_text().splitlines()
    record = json.loads(lines[0])
    record["payload"] = {"tampered": True}
    lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    store.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--out", str(run_dir)]) == 1
    assert "hash mismatch" in capsys.readouterr().err


def test_demo_keyword_resolves(tmp_path):
    out = tmp_path / "demo"
    assert main(["run", "demo", "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert Scenario.load is not None


def test_accounts_table(run_dir, capsys):
    assert main(["accounts", "--out", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "ana" in out and "karma" in out
    assert main(["accounts", "--out", str(run_dir), "--agent", "bo"]) == 0
    assert main(["accounts", "--out", str(run_dir), "--agent", "ghost"]) == 1


def _late_post_line(log, change):
    """A copy of the log's first post event, dated years after the run, with
    ``change`` applied to its data."""
    event = next(e for e in map(json.loads, log.read_text().splitlines()) if e["op"] == "post")
    event["now"] = "2030-01-01T00:00:00.000000+00:00"
    change(event["data"])
    return json.dumps(event) + "\n"


def test_accounts_refuses_a_governance_line_that_does_not_replay(run_dir, capsys):
    log = run_dir / "governance.jsonl"
    written = log.read_text()
    number = len(written.splitlines()) + 1
    # The post lines below differ by one field from this one, which replays.
    log.write_text(written + _late_post_line(log, lambda data: None))
    assert main(["accounts", "--out", str(run_dir)]) == 0
    for line in ['{"op":"vote","data":{"post":"nope"}}\n',
                 _late_post_line(log, lambda data: data.update(data_sources=[])),
                 _late_post_line(log, lambda data: data.pop("title"))]:
        log.write_text(written + line)
        capsys.readouterr()
        assert main(["accounts", "--out", str(run_dir)]) == 2, line
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"governance.jsonl:{number}:" in err


# Malformed scenario files, and one naming an unknown skill, each with a
# word its error message must name.
MALFORMED = {
    "missing seed": ({"cycles": 1, "agents": [{"name": "a"}]}, "'seed'"),
    "agent without name": ({"seed": 1, "cycles": 1, "agents": [{}]}, "'name'"),
    "cycles as a string": ({"seed": 1, "cycles": "3", "agents": [{"name": "a"}]}, "'cycles'"),
    "seeded topic without agent": ({"seed": 1, "cycles": 1, "agents": [{"name": "a"}],
                                    "seeded_topics": [{"cycle": 0, "topic": "t"}]}, "'agent'"),
    "seeded topic without topic": ({"seed": 1, "cycles": 1, "agents": [{"name": "a"}],
                                    "seeded_topics": [{"cycle": 0, "agent": "a"}]}, "'topic'"),
    "top-level array": ([{"seed": 1, "cycles": 1, "agents": [{"name": "a"}]}], "JSON object"),
    "misspelt field": ({"seed": 1, "cycles": 1, "agents": [{"name": "a"}],
                        "mutation_enabeld": False}, "'mutation_enabeld'"),
    "drift_step as a string": ({"seed": 1, "cycles": 1, "agents": [{"name": "a"}],
                                "mutation_policy": {"drift_step": "x"}}, "drift_step"),
    "unknown skill": ({"seed": 1, "cycles": 1,
                       "agents": [{"name": "a", "preferred_tools": ["nope"]}]}, "'nope'"),
}
SCENARIO_TEXTS = {case: (json.dumps(data), named) for case, (data, named) in MALFORMED.items()}
SCENARIO_TEXTS["not JSON"] = ('{"seed": 1,', "not a JSON file")


@pytest.mark.parametrize("case", SCENARIO_TEXTS)
def test_malformed_scenario_file_exits_2(tmp_path, capsys, case):
    """A malformed scenario is an error message and exit code 2, as an
    unknown skill is, never a traceback; nothing is written."""
    text, named = SCENARIO_TEXTS[case]
    path = tmp_path / "sc.json"
    path.write_text(text)
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()
