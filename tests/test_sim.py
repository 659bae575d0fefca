from __future__ import annotations

import hashlib
import json
import logging
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import pytest

from artifact import reactor as reactor_module
from artifact.clock import EPOCH, ManualClock, format_timestamp
from artifact.errors import (ArtifactError, CorruptStore, DuplicateArtifact, InvalidFormat,
                             InvalidScenario)
from artifact.governance import GovernanceLedger
from artifact.index import GlobalIndex
from artifact.ledger import read_log
from artifact.lineage import LineageGraph
from artifact.memory import AgentJournal, InvestigationTracker, JournalEntry, slugify
from artifact.reactor import _read_consumption, param_keys, reaction_fields
from artifact.rundir import RunDir, read_store
from artifact.sim import (
    Scenario,
    World,
    demo_scenario,
    export_dag,
    heartbeat,
    load_world_dag,
    run,
    run_pipeline,
    select_chain,
    stable_hash,
    verify_output,
)

from .conftest import post_events, started_topics, stored_records

FIG2_AGENTS = [
    # alice produces everything up to protein_data, so her first two foreign
    # types are sequence_alignment and motif_report, both only bruno's.
    {"name": "alice",
     "preferred_tools": ["paper_search", "citation_graph", "topic_summary",
                         "protein_lookup"]},
    {"name": "bruno",
     "preferred_tools": ["protein_lookup", "sequence_align", "motif_scan"]},
    {"name": "chen",
     "preferred_tools": ["compound_lookup", "materials_search", "protein_lookup"]},
]


def fig2_scenario(cycles=3, seed=99):
    return Scenario.from_dict({
        "seed": seed,
        "cycles": cycles,
        "agents": FIG2_AGENTS,
        "seeded_topics": [
            {"cycle": 0, "agent": "alice", "topic": "protein receptor study zzqx"},
            {"cycle": 0, "agent": "chen", "topic": "protein binding material pp31"},
            {"cycle": 1, "agent": "alice", "topic": "peptide conservation scan rr28"},
        ],
    })


@contextmanager
def logged_errors():
    """The ERROR records any ``artifact.*`` logger writes inside the block.

    The heartbeat and the reactor log an exception they swallow this way, so
    a run can fail where ``verify`` sees nothing wrong.
    """
    records = []
    handler = logging.Handler(logging.ERROR)
    handler.emit = records.append
    logger = logging.getLogger("artifact")
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


def tree_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


# -- stub ordering ---------------------------------------------------------------

@pytest.mark.parametrize("parts", [(), ("",), ("7", "gap", "alice", "What is the role of x?"),
                                   ("seed", "agent", "bruno"), ("\u00e9t\u00e9", "\x1f", "a" * 300)])
def test_stable_hash_is_the_first_16_hex_digits_of_the_digest(parts):
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
    assert stable_hash(*parts) == int(digest[:16], 16)


# -- scenario validation ---------------------------------------------------------

def test_scenario_rejects_zero_cycles():
    with pytest.raises(InvalidScenario):
        Scenario.from_dict({"seed": 1, "cycles": 0, "agents": [{"name": "a"}]})


def test_scenario_rejects_duplicate_agents():
    with pytest.raises(InvalidScenario):
        Scenario.from_dict({
            "seed": 1, "cycles": 1,
            "agents": [{"name": "a"}, {"name": "a"}],
        })


def test_scenario_rejects_unknown_seeded_agent():
    with pytest.raises(InvalidScenario):
        Scenario.from_dict({
            "seed": 1, "cycles": 1, "agents": [{"name": "a"}],
            "seeded_topics": [{"cycle": 0, "agent": "ghost", "topic": "t"}],
        })


def test_scenario_rejects_out_of_range_cycle():
    with pytest.raises(InvalidScenario):
        Scenario.from_dict({
            "seed": 1, "cycles": 2, "agents": [{"name": "a"}],
            "seeded_topics": [{"cycle": 5, "agent": "a", "topic": "t"}],
        })


def test_scenario_rejects_out_of_range_intervention():
    with pytest.raises(InvalidScenario):
        Scenario.from_dict({
            "seed": 1, "cycles": 2, "agents": [{"name": "a"}],
            "interventions": [{"cycle": 9, "agent": "a",
                               "comment_type": "chat", "body": "hi"}],
        })


def test_scenario_round_trips_through_dict():
    scenario = fig2_scenario()
    assert Scenario.from_dict(scenario.to_dict()).to_dict() == scenario.to_dict()


# -- pipeline ----------------------------------------------------------------------

def test_chain_selection_spans_matched_domains(tmp_path):
    scenario = Scenario.from_dict({
        "seed": 3, "cycles": 1,
        "agents": [{"name": "omni"}],  # unrestricted
    })
    world = World(scenario, tmp_path)
    chain = select_chain(world, world.profiles["omni"],
                         "protein chemistry materials study")
    assert [m.domain for m in chain] == ["protein", "chemistry", "materials"]


def test_chain_falls_back_to_literature(tmp_path):
    scenario = Scenario.from_dict({
        "seed": 3, "cycles": 1, "agents": [{"name": "omni"}],
    })
    world = World(scenario, tmp_path)
    chain = select_chain(world, world.profiles["omni"], "xylophonics qqq")
    assert [m.name for m in chain] == ["paper_search"]


def test_pipeline_builds_linear_lineage(tmp_path):
    scenario = Scenario.from_dict({
        "seed": 3, "cycles": 1, "agents": [{"name": "omni"}],
    })
    world = World(scenario, tmp_path)
    outcome = run_pipeline(world, "omni", "protein chemistry materials study")
    artifacts = outcome["artifacts"]
    assert len(artifacts) == 4  # three chain steps + synthesis
    for previous, current in zip(artifacts, artifacts[1:]):
        assert current.parent_artifact_ids == (previous.artifact_id,)
    # final artifact sits n steps above the chain root
    assert world.graph.depth(artifacts[-1].artifact_id) == 3
    assert artifacts[-1].artifact_type == "synthesis"


def test_pipeline_attaches_needs_for_unmatched_tokens(tmp_path):
    scenario = Scenario.from_dict({
        "seed": 3, "cycles": 1,
        "agents": [{"name": "lit", "preferred_tools": ["paper_search"]}],
    })
    world = World(scenario, tmp_path)
    outcome = run_pipeline(world, "lit", "literature survey of xkcd0 phenomena")
    needs = outcome["synthesis"].needs
    assert needs is not None
    # first foreign type in registry order for a paper_search-only agent
    assert needs.items[0].artifact_type == "citation_map"
    assert "xkcd0" in needs.items[0].query


# -- heartbeat ----------------------------------------------------------------------

def test_heartbeat_posts_with_artifact_refs(tmp_path):
    scenario = Scenario.from_dict({
        "seed": 5, "cycles": 1, "agents": [{"name": "solo"}],
        "seeded_topics": [{"cycle": 0, "agent": "solo", "topic": "protein focus area"}],
    })
    world = World(scenario, tmp_path)
    heartbeat(world, "solo", 0)
    slug = "protein-focus-area"
    assert world.agents["solo"].tracker.status(slug) == "complete"
    [post] = world.governance.posts.values()
    [event] = post_events(world.run_dir.governance)
    assert event["title"] == "Findings: protein focus area"
    results = [entry.metadata["artifact"]
               for _, entry in read_log(world.run_dir.agent("solo").journal,
                                        JournalEntry.from_dict)
               if entry.kind == "experiment" and entry.metadata.get("investigation") == slug
               and "skill" in entry.metadata]
    # The investigation's chain artifacts, then their synthesis.
    pipeline = [a for a in stored_records(world.run_dir.agent("solo").store)
                if a.investigation_id == slug][:len(results) + 1]
    assert post.artifact_refs == [a.artifact_id for a in pipeline]
    assert post.artifact_refs[:-1] == results
    assert event["artifact_refs"] == post.artifact_refs
    assert pipeline[-1].artifact_type == "synthesis"
    assert all(a.producer_agent == post.author for a in pipeline)
    assert event["tools_used"]


def test_heartbeat_without_topic_skips_post(tmp_path):
    scenario = Scenario.from_dict({
        "seed": 5, "cycles": 1, "agents": [{"name": "solo"}],
    })
    world = World(scenario, tmp_path)
    heartbeat(world, "solo", 0)
    assert all("investigation" not in entry.metadata
               for entry in world.agents["solo"].journal.entries())
    assert world.governance.posts == {}


def test_redirect_promotes_subquestion(tmp_path):
    scenario = Scenario.from_dict({
        "seed": 5, "cycles": 2,
        "agents": [{"name": "solo"}],
        "seeded_topics": [
            {"cycle": 0, "agent": "solo", "topic": "protein focus area"},
            {"cycle": 1, "agent": "solo", "topic": "a seeded distraction"},
        ],
    })
    world = World(scenario, tmp_path)
    heartbeat(world, "solo", 0)
    post = next(iter(world.governance.posts.values()))
    world.clock.advance(seconds=30)
    world.governance.create_comment(
        author="human", post=post.id, body="switch to ceramics",
        comment_type="redirect", redirect_subquestion="ceramic stability question",
        parent_comment=None,
    )
    heartbeat(world, "solo", 1)
    assert started_topics(world.run_dir.agent("solo").journal) == [
        "protein focus area", "ceramic stability question"]
    tracker = world.agents["solo"].tracker
    assert "ceramic-stability-question" in tracker and "a-seeded-distraction" not in tracker


def test_repeated_topic_resumes_completed_investigation(tmp_path):
    scenario = Scenario.from_dict({
        "seed": 5, "cycles": 2, "agents": [{"name": "solo"}],
        "seeded_topics": [
            {"cycle": 0, "agent": "solo", "topic": "protein focus area"},
            {"cycle": 1, "agent": "solo", "topic": "Protein Focus Area"},  # same slug
        ],
    })
    world, _ = run(scenario, tmp_path / "out")
    assert len(world.governance.posts) == 2
    assert [event["title"] for event in post_events(world.run_dir.governance)] == [
        "Findings: protein focus area", "Findings: Protein Focus Area"]


def test_gap_detection_picks_up_peer_open_questions(tmp_path):
    scenario = Scenario.from_dict({
        "seed": 5, "cycles": 2,
        "agents": [
            {"name": "asker", "preferred_tools": ["paper_search"]},
            {"name": "helper"},
        ],
        "seeded_topics": [
            {"cycle": 0, "agent": "asker", "topic": "survey of qqz17 dynamics"},
        ],
    })
    world = World(scenario, tmp_path)
    heartbeat(world, "asker", 0)
    heartbeat(world, "helper", 0)
    [topic] = started_topics(world.run_dir.agent("helper").journal)
    assert "qqz17" in topic


def test_engagement_upvotes_newest_peer_post(tmp_path):
    scenario = Scenario.from_dict({
        "seed": 5, "cycles": 1,
        "agents": [{"name": "poster"}, {"name": "voter"}],
        "seeded_topics": [{"cycle": 0, "agent": "poster", "topic": "protein notes"}],
    })
    world = World(scenario, tmp_path)
    heartbeat(world, "poster", 0)
    heartbeat(world, "voter", 0)
    post = next(p for p in world.governance.posts.values() if p.author == "poster")
    assert post.upvotes == 1
    assert world.governance.account("poster").karma == 1


# -- full runs -----------------------------------------------------------------------

def test_two_agents_three_cycles_yields_posts(tmp_path):
    scenario = Scenario.from_dict({
        "seed": 8, "cycles": 3,
        "agents": [
            {"name": "ana", "preferred_tools": ["paper_search", "protein_lookup"]},
            {"name": "bo", "preferred_tools": ["compound_lookup", "materials_search"]},
        ],
        "seeded_topics": [
            {"cycle": c, "agent": a, "topic": t}
            for c, a, t in [
                (0, "ana", "protein survey alpha0"),
                (0, "bo", "ceramic compound beta0"),
                (1, "ana", "protein survey alpha1"),
                (1, "bo", "ceramic compound beta1"),
                (2, "ana", "protein survey alpha2"),
                (2, "bo", "ceramic compound beta2"),
            ]
        ],
    })
    _, report = run(scenario, tmp_path / "out")
    assert report.posts >= 6


def test_same_seed_runs_are_byte_identical(tmp_path):
    scenario = fig2_scenario(cycles=2)
    run(scenario, tmp_path / "one")
    run(scenario, tmp_path / "two")
    assert tree_digest(tmp_path / "one") == tree_digest(tmp_path / "two")


def test_run_refuses_a_non_empty_output_directory(tmp_path):
    out = tmp_path / "out"
    run(fig2_scenario(cycles=2), out)
    before = tree_digest(out)
    with pytest.raises(ArtifactError, match="not empty"):
        run(fig2_scenario(cycles=2), out)
    assert tree_digest(out) == before
    (tmp_path / "empty").mkdir()
    run(fig2_scenario(cycles=2), tmp_path / "empty")  # an empty directory is fine


def readme_run_layout() -> list[str]:
    """The files of README's "Run directory layout" block, ``<name>`` kept."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Run directory layout", 1)[1].split("```", 2)[1]
    files, folder = [], ""
    for line in block.splitlines():
        name = line.split("#", 1)[0].strip()
        if not name or name == "out/":
            continue
        depth = len(line) - len(line.lstrip())
        if name.endswith("/"):
            folder = name
        else:
            files.append(folder + name if depth > 2 else name)
    return files


def test_demo_run_directory_layout(tmp_path):
    """The files a demo run writes, as the README's run-directory layout lists them."""
    out = tmp_path / "out"
    run(demo_scenario(), out)
    layout = readme_run_layout()
    assert "report.json" in layout and "agents/<name>/journal.jsonl" in layout
    expected = {
        file.replace("<name>", name) for file in layout for name in ("alice", "bruno", "chen")
    }
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert written == expected


def test_reopened_trackers_equal_the_live_ones(tmp_path):
    world, _ = run(demo_scenario(), tmp_path / "out")
    for name, runtime in world.agents.items():
        journal = AgentJournal(tmp_path / "out" / "agents" / name / "journal.jsonl",
                               clock=ManualClock())
        slugs = [slugify(topic) for topic in started_topics(journal.path)]
        assert slugs, name
        reopened = InvestigationTracker(journal)
        assert ([reopened.status(slug) for slug in slugs]
                == [runtime.tracker.status(slug) for slug in slugs])


def test_reopened_governance_equals_the_live_ledger(tmp_path):
    world, _ = run(demo_scenario(), tmp_path / "out")
    live = world.governance
    reopened = GovernanceLedger(tmp_path / "out" / "governance.jsonl", clock=ManualClock())
    assert any(post.artifact_refs for post in live.posts.values())
    assert any(post.upvotes for post in live.posts.values()) and live.comments
    for name in ("accounts", "posts", "comments"):
        assert ({key: asdict(value) for key, value in getattr(reopened, name).items()}
                == {key: asdict(value) for key, value in getattr(live, name).items()}), name
    assert [post.id for post in reopened.visible_posts()] == \
           [post.id for post in live.visible_posts()]


def test_failed_report_rename_leaves_no_report(tmp_path, monkeypatch):
    import artifact.memory as memory

    def failing_replace(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(memory.os, "replace", failing_replace)
    out = tmp_path / "out"
    with pytest.raises(OSError, match="disk gone"):
        run(fig2_scenario(cycles=2), out)
    monkeypatch.undo()
    assert not (out / "report.json").exists()
    assert not list(out.rglob("*.tmp"))
    violations = verify_output(out)
    assert len(violations) == 1 and "FileNotFoundError" in violations[0]


def test_different_seeds_diverge(tmp_path):
    run(fig2_scenario(cycles=2, seed=1), tmp_path / "one")
    run(fig2_scenario(cycles=2, seed=2), tmp_path / "two")
    assert tree_digest(tmp_path / "one") != tree_digest(tmp_path / "two")


def test_emergent_multi_producer_synthesis(tmp_path):
    world, _ = run(fig2_scenario(), tmp_path / "out")
    spanning = []
    for entry in world.index.entries():
        if entry.artifact_type != "synthesis" or len(entry.parent_artifact_ids) < 2:
            continue
        producers = {
            world.resolve_id(p).producer_agent for p in entry.parent_artifact_ids
        }
        if len(producers) >= 2:
            spanning.append(entry)
    assert spanning, "expected at least one cross-producer synthesis"
    # index entries record the full parent set
    for entry in spanning:
        artifact = world.resolve_id(entry.artifact_id)
        assert entry.parent_artifact_ids == artifact.parent_artifact_ids


def test_index_graph_and_world_hold_one_record_per_artifact(tmp_path):
    """The index holds the artifact the world made, not a copy of its
    fields, and the world resolves an id to the graph's node, that same
    artifact."""
    world, _ = run(demo_scenario(), tmp_path / "out")
    published = world.index.entries()
    assert len(published) == len(world.graph)
    for artifact in published:
        assert world.graph.node(artifact.artifact_id) is artifact
        assert world.resolve_id(artifact.artifact_id) is artifact


@pytest.mark.parametrize("repeated", ["own", "peer"])
def test_emit_refuses_a_repeated_id(tmp_path, repeated):
    """An agent's id stream that repeats an id, its own earlier one or a
    peer's, is refused before a reaction, store or index line is written."""
    world = World(fig2_scenario(), tmp_path / "out")
    alice = world.agents["alice"]
    first_emitter = alice if repeated == "own" else world.agents["bruno"]
    state = first_emitter.rng.getstate()
    first = world.emit(first_emitter.profile.name, artifact_type="synthesis",
                       skill="synthesize", payload={"n": 1})
    alice.rng.setstate(state)  # alice's next id is the first artifact's

    def log_reaction(artifact):
        alice.reactor.reactions.append({"produced_id": artifact.artifact_id})

    with pytest.raises(DuplicateArtifact):
        world.emit("alice", artifact_type="synthesis", skill="synthesize",
                   payload={"n": 2}, before_store=log_reaction)
    world.close()
    assert world.resolve_id(first.artifact_id) is first
    files = world.run_dir.agent("alice")
    lines = {path: path.read_text(encoding="utf-8").splitlines() if path.exists() else []
             for path in (files.reactions, files.store, world.run_dir.index)}
    mentions = {path: sum(first.artifact_id in line for line in text)
                for path, text in lines.items()}
    assert mentions == {files.reactions: 0, files.store: int(repeated == "own"),
                        world.run_dir.index: 1}


def test_run_passes_invariant_checks(tmp_path):
    run(fig2_scenario(), tmp_path / "out")
    assert verify_output(tmp_path / "out") == []


def test_a_world_judges_each_payload_once_per_profile(tmp_path, monkeypatch):
    """The demo's three agents have three profiles, so their reactors read
    three boards: each published payload's keys are read at most three
    times, once per board, whichever agents produced and scanned it."""
    reads = Counter()
    monkeypatch.setattr(reactor_module, "param_keys",
                        lambda payload: reads.update([id(payload)]) or param_keys(payload))
    world, _ = run(demo_scenario(), tmp_path / "out")
    assert len({agent.reactor._fit_profile for agent in world.agents.values()}) == 3
    holders = Counter(id(artifact.payload) for artifact in world.index.entries())
    assert reads and all(count <= 3 * holders[payload] for payload, count in reads.items())
    assert max(reads.values()) > 1  # the boards are not shared between profiles


def test_dropped_world_is_freed_without_the_cyclic_collector(tmp_path):
    import gc
    import weakref

    gc.disable()
    try:
        world, _ = run(fig2_scenario(cycles=2), tmp_path / "out")
        refs = [weakref.ref(world), weakref.ref(world.graph),
                weakref.ref(next(iter(world.agents.values())))]
        del world
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def open_files_under(root: Path) -> list[str]:
    """The files under ``root`` that a descriptor of this process holds open."""
    fd_dir = Path("/proc/self/fd")
    if not fd_dir.is_dir():
        pytest.skip("no /proc/self/fd to list open descriptors")
    held = []
    for fd in fd_dir.iterdir():
        try:
            target = Path(os.readlink(fd))
        except OSError:  # closed between the listing and the read
            continue
        if target.is_relative_to(root.resolve()):
            held.append(str(target))
    return held


@pytest.mark.parametrize("concurrent", [False, True])
def test_run_leaves_no_file_open(tmp_path, concurrent):
    scenario = fig2_scenario()
    scenario.concurrent = concurrent
    out = tmp_path / "out"
    run(scenario, out)
    assert list(out.rglob("*.jsonl")) and open_files_under(out) == []


@pytest.mark.parametrize("concurrent", [False, True])
def test_run_whose_heartbeat_raises_leaves_no_file_open(tmp_path, monkeypatch, concurrent):
    """The run raises the heartbeat's own exception, in either mode; on a
    thread, it is caught there, so none reaches ``threading.excepthook``."""
    import artifact.sim as sim

    calls = []

    def failing_heartbeat(world, agent_name, cycle):
        calls.append(agent_name)
        if len(calls) == 4:
            raise RuntimeError("heartbeat down")
        return heartbeat(world, agent_name, cycle)

    monkeypatch.setattr(sim, "heartbeat", failing_heartbeat)
    scenario = fig2_scenario()
    scenario.concurrent = concurrent
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="heartbeat down"):
        run(scenario, out)
    assert list(out.rglob("*.jsonl")) and open_files_under(out) == []


def _append_line(path, record):
    if isinstance(record, bytes):
        with open(path, "ab") as handle:
            handle.write(record)
        return
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(record if isinstance(record, str) else json.dumps(record) + "\n")


def _first_line(path):
    return path.read_bytes().splitlines(keepends=True)[0]


def _add_extra_field(path, nested):
    """Add ``"extra": 1`` to the map that ``nested`` finds in a record, in
    the first line of ``path`` where it finds one."""
    lines = path.read_text(encoding="utf-8").splitlines()
    number = next(i for i, line in enumerate(lines) if nested(json.loads(line)) is not None)
    record = json.loads(lines[number])
    nested(record)["extra"] = 1
    lines[number] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _drop_fields(path, *names):
    """Delete the named fields from the first line of ``path``."""
    first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(first)
    for name in names:
        del record[name]
    path.write_text(json.dumps(record) + "\n" + "".join(rest), encoding="utf-8")


def _graft(node, new_parent):
    """A graft line numbered after every graft of the run."""
    return {"kind": "graft", "inputs": [node], "outputs": [], "cycle": 99,
            "new_parent": new_parent, "seq": 10**6}


UNKNOWN_ID = "00000000-0000-4000-8000-000000000000"


def _reshape(kind, inputs, outputs):
    return {"kind": kind, "inputs": inputs, "outputs": outputs, "cycle": 99,
            "new_parent": None, "seq": None}


@pytest.mark.parametrize("damage, error", [
    ("garbled store line", "CorruptStore"),
    ("non-UTF-8 store line", "CorruptStore"),
    ("repeated store line", "CorruptStore"),
    ("a peer's store line", "is in the store of alice too"),
    ("a record a peer produced", "was produced by alice"),
    ("non-UTF-8 mutation line", "CorruptStore"),
    ("graft onto a descendant", "CycleRejected"),
    ("graft onto a missing parent", "DanglingParent"),
    ("malformed mutation line", "CorruptStore"),
    ("key-less mutation line", "CorruptStore"),
    ("fork into an id no store holds", f"fork output {UNKNOWN_ID} is in no store"),
    ("merge into a peer's artifact", "was produced by bruno"),
    ("merge of an id no store holds", f"merge input {UNKNOWN_ID} is in no store"),
    ("unparseable report", "JSONDecodeError"),
    ("report that is not an object", "unreadable report"),
    ("report without scenario", "missing field(s) ['scenario']"),
    ("report without dag_metrics", "missing field(s) ['dag_metrics']"),
    ("report with a non-numeric depth", "ValueError"),
    ("report with a wrong synthesis_count", "dag_metrics synthesis_count mismatch"),
    ("report with a wrong per_agent", "dag_metrics per_agent mismatch"),
    ("report with a wrong reactions", "reactions mismatch"),
    ("report with a wrong mutations", "mutations mismatch"),
    ("report with a wrong posts", "posts mismatch"),
    ("garbled governance line", "unparseable governance event"),
    ("governance event without now", "missing field(s) ['now']"),
    ("governance event of no command", "unknown event op 'post_link'"),
    ("report with a wrong need latency", "need_latencies mismatch"),
    ("report still holding cycles", "unknown field(s) ['cycles']"),
    ("report with an extra dag_metrics field", "unknown field(s) ['extra']"),
    ("an extra field in a need", "CorruptStore"),
    ("an extra field in a reaction's pressure", "unparseable reaction"),
    ("a reaction line without kind, skill and pressure",
     "missing field(s) ['kind', 'pressure', 'skill']"),
    ("a store record without needs", "missing field(s) ['needs']"),
    ("a graft line without seq", "lineage cannot be rebuilt"),
    ("report naming an unknown skill", "UnknownSkill"),
    ("missing report", "FileNotFoundError"),
])
def test_verify_reports_damaged_dag_as_violation(tmp_path, damage, error):
    out = tmp_path / "out"
    run(fig2_scenario(cycles=2), out)
    alice = out / "agents" / "alice"
    child = next(a for a in stored_records(alice / "store.jsonl") if a.parent_artifact_ids)
    parent = child.parent_artifact_ids[0]
    report_path = out / "report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if damage == "missing report":
        report_path.unlink()
    elif damage == "unparseable report":
        report_path.write_text("{truncated", encoding="utf-8")
    elif damage == "report that is not an object":
        report_path.write_text("[1, 2]", encoding="utf-8")
    elif damage.startswith("report "):
        if damage.startswith("report without "):
            del report[damage.removeprefix("report without ")]
        elif damage == "report with a non-numeric depth":
            report["dag_metrics"]["avg_dag_depth"] = "deep"
        elif damage == "report with a wrong synthesis_count":
            report["dag_metrics"]["synthesis_count"] += 1
        elif damage == "report with a wrong per_agent":
            report["dag_metrics"]["per_agent"]["alice"] += 1
        elif damage in ("report with a wrong reactions", "report with a wrong mutations",
                        "report with a wrong posts"):
            report[damage.rpartition(" ")[2]] += 1
        elif damage == "report with a wrong need latency":
            key = next(iter(report["need_latencies"]))
            report["need_latencies"][key] += 1
        elif damage == "report with an extra dag_metrics field":
            report["dag_metrics"]["extra"] = 1
        elif damage == "report still holding cycles":
            # The per-heartbeat block that report.json once held.
            report["cycles"] = [{"cycle": 0, "interventions": [], "agents": {}}]
        else:
            report["scenario"]["agents"][0]["preferred_tools"] = ["no_such_skill"]
        report_path.write_text(json.dumps(report), encoding="utf-8")
    elif damage == "an extra field in a need":
        _add_extra_field(alice / "store.jsonl",
                         lambda record: record["needs"] and record["needs"]["items"][0])
        with pytest.raises(CorruptStore):
            list(read_store(RunDir(out), "alice", {}))
    elif damage == "an extra field in a reaction's pressure":
        _add_extra_field(alice / "reactions.jsonl", lambda record: record["pressure"])
        with pytest.raises(CorruptStore):
            _read_consumption(alice / "reactions.jsonl")
    elif damage == "a reaction line without kind, skill and pressure":
        _drop_fields(out / "agents" / "bruno" / "reactions.jsonl", "kind", "skill", "pressure")
    elif damage == "a store record without needs":
        _drop_fields(alice / "store.jsonl", "needs")
    elif damage == "a graft line without seq":
        graft = _graft(child.artifact_id, parent)
        del graft["seq"]
        _append_line(alice / "mutations.jsonl", graft)
    elif damage == "garbled governance line":
        _append_line(out / "governance.jsonl", "{not json\n")
    elif damage == "governance event without now":
        _append_line(out / "governance.jsonl", {"op": "vote", "data": {"post": "nope"}})
    elif damage == "governance event of no command":
        _append_line(out / "governance.jsonl", {"op": "post_link", "now": format_timestamp(EPOCH),
                                                "data": {}})
    elif damage == "garbled store line":
        _append_line(alice / "store.jsonl", "{not json\n")
    elif damage == "non-UTF-8 store line":
        _append_line(alice / "store.jsonl",
                     _first_line(alice / "store.jsonl")[:-1] + b"\xff\n")
    elif damage == "repeated store line":
        _append_line(alice / "store.jsonl", _first_line(alice / "store.jsonl"))
    elif damage == "a peer's store line":
        _append_line(out / "agents" / "bruno" / "store.jsonl",
                     _first_line(alice / "store.jsonl"))
    elif damage == "a record a peer produced":
        record = json.loads(_first_line(alice / "store.jsonl"))
        record["artifact_id"] = "00000000-0000-4000-8000-000000000000"
        _append_line(out / "agents" / "bruno" / "store.jsonl", record)
    elif damage == "non-UTF-8 mutation line":
        _append_line(alice / "mutations.jsonl", json.dumps(_graft(child.artifact_id, parent))
                     .encode("utf-8") + b"\xff\n")
    elif damage == "malformed mutation line":
        _append_line(alice / "mutations.jsonl", "{broken\n")
    elif damage == "key-less mutation line":
        _append_line(alice / "mutations.jsonl", {"kind": "graft"})
    elif damage == "graft onto a descendant":
        _append_line(alice / "mutations.jsonl", _graft(parent, child.artifact_id))
    elif damage == "fork into an id no store holds":
        _append_line(alice / "mutations.jsonl",
                     _reshape("fork", [parent], [child.artifact_id, UNKNOWN_ID]))
    elif damage == "merge into a peer's artifact":
        peer = stored_records(out / "agents" / "bruno" / "store.jsonl")[0]
        _append_line(alice / "mutations.jsonl",
                     _reshape("merge", [parent, child.artifact_id], [peer.artifact_id]))
    elif damage == "merge of an id no store holds":
        _append_line(alice / "mutations.jsonl",
                     _reshape("merge", [parent, UNKNOWN_ID], [child.artifact_id]))
    else:
        _append_line(alice / "mutations.jsonl", _graft(child.artifact_id, "artifact-gone"))
    violations = verify_output(out)
    assert len(violations) == 1
    assert error in violations[0]


def test_verify_reports_a_repeated_merge(tmp_path):
    scenario = demo_scenario()
    scenario.seed = 2  # a demo seed whose run merges
    out = tmp_path / "out"
    run(scenario, out)
    assert verify_output(out) == []
    path, line = next(
        (path, line)
        for path in sorted(out.glob("agents/*/mutations.jsonl"))
        for line in path.read_text(encoding="utf-8").splitlines(keepends=True)
        if json.loads(line)["kind"] == "merge"
    )
    _append_line(path, line)
    violations = verify_output(out)
    assert len(violations) == 1
    assert "merge repeats an input set" in violations[0]


@pytest.mark.parametrize("line", ["{broken\n", {"kind": "single_parent"},
                                  {"consumed_ids": "abc", "fulfilled_need": None},
                                  {"consumed_ids": [], "fulfilled_need": None},
                                  {"consumed_ids": [], "fulfilled_need": None,
                                   "produced_id": 7},
                                  # a pressure without all of its terms
                                  {"consumed_ids": [], "fulfilled_need": None,
                                   "produced_id": UNKNOWN_ID, "pressure": {"score": 1.0}},
                                  # a non-UTF-8 reaction line
                                  b'{"consumed_ids":[],"fulfilled_need":null,'
                                  b'"produced_id":"\xff"}\n'])
def test_verify_reports_damaged_reaction_line_as_violation(tmp_path, line):
    out = tmp_path / "out"
    run(fig2_scenario(cycles=2), out)
    reactions = out / "agents" / "bruno" / "reactions.jsonl"
    assert reactions.exists()
    _append_line(reactions, line)
    violations = verify_output(out)
    assert len(violations) == 1
    assert "unparseable reaction" in violations[0]


@pytest.mark.parametrize("reactor,error", [
    ("bruno", "is in no store"),          # a product id that names nothing
    ("chen", "was produced by bruno"),    # a peer's product claimed as one's own
])
def test_verify_reports_reaction_product_not_stored_by_its_agent(tmp_path, reactor, error):
    out = tmp_path / "out"
    run(fig2_scenario(cycles=2), out)
    agents = out / "agents"
    record = json.loads(
        (agents / "bruno" / "reactions.jsonl").read_text(encoding="utf-8").splitlines()[-1]
    )
    if reactor == "bruno":
        record["produced_id"] = "00000000-0000-4000-8000-000000000000"
    # A single-parent reaction that consumes an id no other line consumes.
    record.update(kind="single_parent", consumed_ids=["00000000-0000-4000-8000-00000000000c"],
                  fulfilled_need=None, pressure=None)
    _append_line(agents / reactor / "reactions.jsonl", record)
    violations = verify_output(out)
    assert len(violations) == 2
    assert record["produced_id"] in violations[0]
    assert error in violations[0]
    assert violations[1] == (f"{reactor} consumed 00000000-0000-4000-8000-00000000000c, "
                             "which is in no store")


@pytest.mark.parametrize("damage", ["reaction key rewritten", "index key dropped"])
def test_verify_reports_a_fulfilment_its_two_records_disagree_on(tmp_path, damage):
    """A need-driven reaction line and its product's index line name the
    same need key; damage to either one is one violation."""
    out = tmp_path / "out"
    run(fig2_scenario(), out)
    path, number, line = next(
        (path, number, json.loads(line))
        for path in sorted((out / "agents").glob("*/reactions.jsonl"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines())
        if json.loads(line)["fulfilled_need"] is not None)
    product, key = line["produced_id"], line["fulfilled_need"]
    if damage == "reaction key rewritten":
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[number] = json.dumps(dict(line, fulfilled_need=UNKNOWN_ID + ":0:default"))
        path.write_text("".join(text + "\n" for text in lines), encoding="utf-8")
        expected = (UNKNOWN_ID + ":0:default", key)
    else:
        records = _index_lines(out)
        listed = next(r for r in records if r["artifact_id"] == product)
        assert listed["fulfills"] == key
        listed["fulfills"] = None
        _write_index(out, records)
        expected = (key, None)
    assert verify_output(out) == [f"product {product} fulfilled need key {expected[0]} by its "
                                  f"reaction line but {expected[1]} by the index"]


def test_governance_log_replays_to_the_live_ledger(tmp_path):
    world, _ = run(demo_scenario(), tmp_path / "out")
    live = world.governance
    replayed = GovernanceLedger(tmp_path / "out" / "governance.jsonl")
    for table in ("accounts", "posts", "comments"):
        assert ({k: asdict(v) for k, v in getattr(replayed, table).items()}
                == {k: asdict(v) for k, v in getattr(live, table).items()})
    assert [asdict(link) for link in replayed.links] == [asdict(link) for link in live.links]
    # No run links posts; test_replay_reconstructs_state replays links.
    assert any(p.upvotes for p in live.posts.values())
    assert any(c.read for c in live.comments.values())


def test_verify_reports_need_key_fulfilled_twice(tmp_path):
    out = tmp_path / "out"
    run(fig2_scenario(), out)
    agents = out / "agents"
    # The copy goes to the file it came from, so its product stays its agent's own.
    path, fulfilment = next(
        (path, line) for path in sorted(agents.glob("*/reactions.jsonl"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if json.loads(line)["fulfilled_need"] is not None
    )
    _append_line(path, fulfilment + "\n")
    violations = verify_output(out)
    assert len(violations) == 1
    assert "fulfilled twice" in violations[0]


def test_verify_reports_a_tampered_payload_and_the_damage_beside_it(tmp_path):
    """The payload hash is checked as the store is read; the checks after
    the rebuild still run, so an independent damage is reported too."""
    out = tmp_path / "out"
    run(fig2_scenario(cycles=2), out)
    agents = out / "agents"
    store = agents / "alice" / "store.jsonl"
    first, *rest = store.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(first)
    record["payload"] = {"tampered": True}
    store.write_text(json.dumps(record) + "\n" + "".join(rest), encoding="utf-8")
    reaction = json.loads(
        (agents / "bruno" / "reactions.jsonl").read_text(encoding="utf-8").splitlines()[-1])
    # A second reaction of bruno's that consumes an id bruno's last one consumed.
    reaction.update(kind="single_parent", consumed_ids=reaction["consumed_ids"][:1],
                    fulfilled_need=None, pressure=None)
    _append_line(agents / "bruno" / "reactions.jsonl", reaction)
    assert verify_output(out) == [
        f"hash mismatch for artifact {record['artifact_id']}",
        f"artifact {reaction['consumed_ids'][0]} consumed twice (bruno and bruno)",
    ]


def _index_lines(out):
    return [json.loads(line) for line in
            (out / "index.jsonl").read_text(encoding="utf-8").splitlines()]


def _write_index(out, records):
    (out / "index.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records),
                                     encoding="utf-8")


@pytest.mark.parametrize("damage, error", [
    ("garbled line", "unparseable index entry"),
    ("non-UTF-8 line", "unparseable index entry"),
    ("line without fulfills", "unparseable index entry"),
    ("malformed need key", "unparseable index entry"),
    ("an id no store holds", "is in no store"),
    ("another producer", "names producer"),
    ("stored artifact left out", "is not in the index"),
    ("entry listed twice", "is in the index twice"),
    ("need index never broadcast", "was never broadcast"),
    ("variant never broadcast", "was never broadcast"),
    ("key on a carrier with no needs", "was never broadcast"),
    ("key fulfilled twice", "fulfilled twice in the index"),
])
def test_verify_reports_index_damage_as_violation(tmp_path, damage, error):
    out = tmp_path / "out"
    run(fig2_scenario(), out)
    assert verify_output(out) == []
    records = _index_lines(out)
    fulfilling = next(r for r in records if r["fulfills"] is not None)
    plain = next(r for r in records if r["fulfills"] is None)
    carrier, need_index, _ = fulfilling["fulfills"].split(":")
    appended = None  # a line added to the index, or else the records rewritten
    if damage == "garbled line":
        appended = "{broken\n"
    elif damage == "non-UTF-8 line":
        appended = _first_line(out / "index.jsonl")[:-1] + b"\xff\n"
    elif damage == "line without fulfills":
        appended = {"artifact_id": plain["artifact_id"], "producer_agent": plain["producer_agent"]}
    elif damage == "malformed need key":
        appended = dict(plain, fulfills=carrier)
    elif damage == "an id no store holds":
        appended = dict(plain, artifact_id="artifact-gone")
    elif damage == "another producer":
        plain["producer_agent"] = "zed"
    elif damage == "stored artifact left out":
        records.remove(plain)
    elif damage == "entry listed twice":
        records.append(plain)
    elif damage == "need index never broadcast":
        fulfilling["fulfills"] = f"{carrier}:99:default"
    elif damage == "variant never broadcast":
        fulfilling["fulfills"] = f"{carrier}:{need_index}:v9"
    elif damage == "key on a carrier with no needs":
        bare = next(a for a in stored_records(out / "agents" / "alice" / "store.jsonl")
                    if a.needs is None)
        fulfilling["fulfills"] = f"{bare.artifact_id}:0:default"
    else:
        plain["fulfills"] = fulfilling["fulfills"]
    if appended is None:
        _write_index(out, records)
    else:
        _append_line(out / "index.jsonl", appended)
    violations = verify_output(out)
    assert len(violations) == 1, violations
    assert error in violations[0]


def test_verify_reports_each_artifact_cut_off_the_index(tmp_path):
    out = tmp_path / "out"
    run(demo_scenario(), out)
    records = _index_lines(out)
    _write_index(out, records[:-3])
    violations = verify_output(out)
    assert violations == [f"stored artifact {r['artifact_id']} is not in the index"
                          for r in records[-3:]]


def test_gating_holds_over_full_trace(tmp_path):
    from artifact.skills import allowed_types

    world, _ = run(fig2_scenario(), tmp_path / "out")
    for name, runtime in world.agents.items():
        allowed = allowed_types(runtime.profile, world.registry)
        for _, (consumed_ids, _, _) in read_log(world.run_dir.agent(name).reactions,
                                                reaction_fields):
            for consumed in consumed_ids:
                assert world.resolve_id(consumed).artifact_type in allowed
                assert world.resolve_id(consumed).producer_agent != name


def test_report_metrics_match_rebuilt_dag(tmp_path):
    _, report = run(fig2_scenario(), tmp_path / "out")
    graph, artifacts, _ = load_world_dag(tmp_path / "out")
    recomputed = graph.metrics()
    assert recomputed.artifact_count == report.dag_metrics["artifact_count"]
    assert recomputed.avg_dag_depth == pytest.approx(
        report.dag_metrics["avg_dag_depth"], abs=1e-12
    )
    assert len(artifacts) == recomputed.artifact_count


def test_interventions_are_deterministic_and_logged(tmp_path):
    scenario = Scenario.from_dict({
        "seed": 5, "cycles": 2,
        "agents": [{"name": "solo"}],
        "seeded_topics": [{"cycle": 0, "agent": "solo", "topic": "protein focus"}],
        "interventions": [
            {"cycle": 1, "agent": "solo", "comment_type": "redirect",
             "body": "pivot to ceramics now"},
        ],
    })
    world, _ = run(scenario, tmp_path / "out")
    [comment] = [c for c in world.governance.comments.values() if c.author == "human"]
    assert (comment.comment_type, comment.body) == ("redirect", "pivot to ceramics now")
    assert world.governance.posts[comment.post].author == "solo"
    assert started_topics(world.run_dir.agent("solo").journal) == [
        "protein focus", "pivot to ceramics now"]


def test_concurrent_mode_preserves_invariants(tmp_path):
    data = fig2_scenario(cycles=3).to_dict()
    data["concurrent"] = True
    scenario = Scenario.from_dict(data)
    with logged_errors() as errors:
        world, _ = run(scenario, tmp_path / "out")
    assert [record.getMessage() for record in errors] == []
    assert verify_output(tmp_path / "out") == []
    assert world.graph.is_acyclic()


def test_an_id_resolves_before_the_graph_or_the_index_holds_it(tmp_path, monkeypatch):
    """Agents on threads publish through World.emit. The graph's node is what
    an id resolves to, so the graph gets each id while it resolves to
    nothing yet, and every id handed to the index already resolves."""
    worlds, misplaced = [], []
    world_init = World.__init__

    def init(world, *args, **kwargs):
        worlds.append(world)
        world_init(world, *args, **kwargs)

    def checked(method, resolves):
        def wrapper(structure, item, *args):
            for world in worlds:
                if structure is world.graph or structure is world.index:
                    if (world.resolve_id(item.artifact_id) is not None) != resolves:
                        misplaced.append((type(structure).__name__, item.artifact_id))
            return method(structure, item, *args)
        return wrapper

    monkeypatch.setattr(World, "__init__", init)
    monkeypatch.setattr(LineageGraph, "insert", checked(LineageGraph.insert, False))
    monkeypatch.setattr(GlobalIndex, "publish", checked(GlobalIndex.publish, True))
    data = fig2_scenario(cycles=3).to_dict()
    data["concurrent"] = True
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with logged_errors() as errors:
            world, report = run(Scenario.from_dict(data), tmp_path / "out")
    finally:
        sys.setswitchinterval(interval)
    assert [w is world for w in worlds] == [True]
    assert misplaced == []
    assert [record.getMessage() for record in errors] == []
    assert report.reactions and len(world.graph) == len(world.index)


# -- export -----------------------------------------------------------------------

def test_export_empty_world(tmp_path):
    graph, _, _ = load_world_dag(tmp_path)
    assert export_dag(graph, "graph-text") == "digraph lineage {\n}\n"
    assert json.loads(export_dag(graph, "structured-dump")) == {"nodes": [], "edges": []}


def test_export_counts_match_stores(tmp_path):
    world, _ = run(fig2_scenario(cycles=2), tmp_path / "out")
    graph, artifacts, _ = load_world_dag(tmp_path / "out")
    dump = json.loads(export_dag(graph, "structured-dump"))
    assert len(dump["nodes"]) == len(artifacts)
    stored_edges = set()
    for agent_dir in sorted((tmp_path / "out" / "agents").iterdir()):
        for artifact in stored_records(agent_dir / "store.jsonl"):
            for parent in artifact.parent_artifact_ids:
                stored_edges.add((artifact.artifact_id, parent))
    overlay_edges = {(e["child"], e["parent"]) for e in dump["edges"]}
    # grafts may rewire, but every dumped edge refers to real artifacts
    assert {c for c, _ in overlay_edges} <= set(artifacts)
    grafted = {
        event.inputs[0]
        for _, events in _mutation_events(tmp_path / "out")
        for event in events if event.kind == "graft"
    }
    ungrafted = {(c, p) for c, p in stored_edges if c not in grafted}
    assert ungrafted <= overlay_edges


def _mutation_events(out_dir):
    from artifact.mutator import MutationEvent

    results = []
    for agent_dir in sorted((Path(out_dir) / "agents").iterdir()):
        path = agent_dir / "mutations.jsonl"
        events = []
        if path.exists():
            with open(path, "r", encoding="utf-8") as handle:
                events = [MutationEvent.from_dict(json.loads(line)) for line in handle]
        results.append((agent_dir.name, events))
    return results


def test_export_rejects_unknown_format(tmp_path):
    graph, _, _ = load_world_dag(tmp_path)
    with pytest.raises(InvalidFormat):
        export_dag(graph, "yaml")


# -- the bundled demo ------------------------------------------------------------

def test_demo_scenario_loads_and_validates():
    scenario = demo_scenario()
    assert scenario.cycles == 5
    assert [a["name"] for a in scenario.agents] == ["alice", "bruno", "chen"]
