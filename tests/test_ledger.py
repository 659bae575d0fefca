from __future__ import annotations

import dataclasses
import json
import re
import shutil

import pytest

from artifact.canonical import content_hash
from artifact.clock import ManualClock
from artifact.errors import (
    CorruptStore,
    CyclicLineage,
    DuplicateArtifact,
    InvalidAddress,
    InvalidNeedsSignal,
    UnknownArtifactType,
)
from artifact.ledger import (
    AppendLog,
    ArtifactAddress,
    ArtifactStore,
    create_artifact,
    format_address,
    parse_address,
    read_log,
    verify_integrity,
)
from artifact.governance import GovernanceLedger
from artifact.index import GlobalIndex
from artifact.memory import AgentJournal
from artifact.needs import NeedItem, NeedsSignal
from artifact.reactor import _read_consumption
from artifact.sim import demo_scenario, load_world_dag, run, verify_output

UUID_RE = re.compile(r"^[0-9a-f]{8}-[0-9a-f]{4}-4[0-9a-f]{3}-[89ab][0-9a-f]{3}-[0-9a-f]{12}$")

RATIONALE = "long enough rationale for the item"


def test_root_artifact(make_artifact):
    artifact = make_artifact(payload={"hits": 3})
    assert artifact.parent_artifact_ids == ()
    assert artifact.content_hash == content_hash({"hits": 3})
    assert UUID_RE.match(artifact.artifact_id)


def test_parent_list_preserved(make_artifact):
    a1 = make_artifact()
    child = make_artifact(parents=(a1.artifact_id,))
    assert child.parent_artifact_ids == (a1.artifact_id,)


def test_needs_cap_of_two():
    items = tuple(
        NeedItem(artifact_type="synthesis", query=f"query {i}", rationale=RATIONALE)
        for i in range(3)
    )
    with pytest.raises(InvalidNeedsSignal):
        NeedsSignal(items=items)


def test_unknown_type_rejected(make_artifact):
    with pytest.raises(UnknownArtifactType):
        make_artifact(artifact_type="nonsense", known_types={"synthesis"})


def test_known_type_accepted(make_artifact):
    artifact = make_artifact(artifact_type="synthesis", known_types={"synthesis"})
    assert artifact.artifact_type == "synthesis"


def test_self_parent_rejected(clock):
    with pytest.raises(CyclicLineage):
        create_artifact(
            artifact_type="synthesis",
            producer_agent="alice",
            skill="s",
            payload={},
            parents=("fixed-id",),
            investigation_id="",
            needs=None,
            clock=clock,
            id_factory=lambda: "fixed-id",
        )


# -- stores ---------------------------------------------------------------

def test_append_then_load_preserves_order(tmp_path, make_artifact):
    store = ArtifactStore(tmp_path / "store.jsonl")
    a1, a2 = make_artifact(), make_artifact()
    store.append(a1)
    store.append(a2)
    assert [a.artifact_id for a in ArtifactStore(store.path).records()] == [
        a1.artifact_id, a2.artifact_id]


def test_duplicate_append_rejected(tmp_path, make_artifact):
    store = ArtifactStore(tmp_path / "store.jsonl")
    a1 = make_artifact()
    store.append(a1)
    with pytest.raises(DuplicateArtifact):
        store.append(a1)


def test_truncated_final_line_detected(tmp_path, make_artifact):
    store = ArtifactStore(tmp_path / "store.jsonl")
    store.append(make_artifact())
    store.append(make_artifact())
    raw = store.path.read_bytes()
    store.path.write_bytes(raw[:-10])
    with pytest.raises(CorruptStore) as err:
        ArtifactStore(store.path)
    assert err.value.line_number == 2


def test_append_only_byte_prefix(tmp_path, make_artifact):
    store = ArtifactStore(tmp_path / "store.jsonl")
    store.append(make_artifact())
    before = store.path.read_bytes()
    store.append(make_artifact())
    after = store.path.read_bytes()
    assert after.startswith(before)


def test_round_trip_field_for_field(tmp_path, make_artifact):
    needs = NeedsSignal(items=(
        NeedItem(
            artifact_type="synthesis",
            query="deep query",
            rationale=RATIONALE,
            parallel_variants=({"level": 1}, {"level": 2}),
            preferred_skills=("paper_search",),
        ),
    ))
    originals = [
        make_artifact(payload={"a": [1, {"b": None}], "c": 2.5}),
        make_artifact(needs=needs, investigation_id="topic-x"),
    ]
    originals.append(make_artifact(parents=(originals[0].artifact_id,)))
    store = ArtifactStore(tmp_path / "store.jsonl")
    for artifact in originals:
        store.append(artifact)
    assert ArtifactStore(store.path).records() == originals


def test_reopened_store_rejects_known_duplicate(tmp_path, make_artifact):
    store = ArtifactStore(tmp_path / "store.jsonl")
    a1 = make_artifact()
    store.append(a1)
    reopened = ArtifactStore(store.path)
    with pytest.raises(DuplicateArtifact):
        reopened.append(a1)


# -- integrity --------------------------------------------------------------

def test_verify_integrity_untampered(make_artifact):
    assert verify_integrity(make_artifact(payload={"x": 1}))


def test_verify_integrity_flipped_payload(make_artifact):
    artifact = make_artifact(payload={"x": 1})
    tampered = dataclasses.replace(artifact, payload={"x": 2})
    assert not verify_integrity(tampered)


def test_verify_integrity_is_case_exact(make_artifact):
    artifact = make_artifact(payload={"x": 1})
    tampered = dataclasses.replace(artifact, content_hash=artifact.content_hash.upper())
    assert not verify_integrity(tampered)


# -- addresses ---------------------------------------------------------------

def test_parse_address_example():
    address = parse_address("artifact://alice/123e4567-e89b-12d3-a456-426614174000")
    assert address == ArtifactAddress("alice", "123e4567-e89b-12d3-a456-426614174000")


def test_address_round_trip(make_artifact):
    artifact = make_artifact()
    text = format_address(ArtifactAddress("alice", artifact.artifact_id))
    assert format_address(parse_address(text)) == text


@pytest.mark.parametrize("bad", [
    "artifact://alice",
    "http://alice/123e4567-e89b-12d3-a456-426614174000",
    "artifact:///123e4567-e89b-12d3-a456-426614174000",
    "artifact://alice/not-a-uuid",
    "artifact://alice/123E4567-E89B-12D3-A456-426614174000",
])
def test_invalid_addresses(bad):
    with pytest.raises(InvalidAddress):
        parse_address(bad)


# -- the shared line format of every run file --------------------------------------

# Each kind of JSONL file a run writes: one such file in a demo run, the loader
# that reads it, and whether its lines carry an id that may appear only once.
RUN_FILES = {
    "store": ("agents/alice/store.jsonl", ArtifactStore, True),
    "index": ("index.jsonl",
              lambda path: GlobalIndex(path, load_world_dag(path.parent)[1].__getitem__), True),
    "reactions": ("agents/bruno/reactions.jsonl", _read_consumption, False),
    "journal": ("agents/alice/journal.jsonl",
                lambda path: AgentJournal(path, clock=ManualClock()).entries(), False),
    "mutations": ("agents/alice/mutations.jsonl",
                  lambda path: load_world_dag(path.parents[2]), False),
    "governance": ("governance.jsonl", GovernanceLedger, False),
}

# A damaged line, made from the file's first line.
DAMAGE = {
    "blank": lambda first: b"\n",
    "truncated JSON": lambda first: first[:len(first) // 2] + b"\n",
    "unterminated": lambda first: first[:-1],
    "non-object JSON": lambda first: b"[1, 2]\n",
    "non-UTF-8": lambda first: first[:-1] + b"\xff\n",
    "repeated id": lambda first: first,
}


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo") / "out"
    run(demo_scenario(), out)
    return out


@pytest.mark.parametrize("kind, damage", [
    (kind, damage) for kind, (_, _, has_ids) in RUN_FILES.items()
    for damage in DAMAGE if has_ids or damage != "repeated id"
])
def test_damaged_line_of_every_run_file_raises_corrupt_store(demo_run, tmp_path, kind, damage):
    name, load, _ = RUN_FILES[kind]
    out = tmp_path / "out"
    shutil.copytree(demo_run, out)
    path = out / name
    lines = path.read_bytes().splitlines(keepends=True)
    load(path)
    with open(path, "ab") as handle:
        handle.write(DAMAGE[damage](lines[0]))
    with pytest.raises(CorruptStore) as caught:
        load(path)
    assert (caught.value.path, caught.value.line_number) == (str(path), len(lines) + 1)


# The kinds of run file ``verify`` reads, each with another agent's file of
# that kind, where there is one.
VERIFIED = {
    "store": "agents/bruno/store.jsonl",
    "index": None,
    "reactions": "agents/alice/reactions.jsonl",
    "mutations": "agents/bruno/mutations.jsonl",
}


def damaged_lines(damage, lines, other_lines):
    """A file's lines after one damage: a ``DAMAGE`` line appended, its last
    line cut mid-line, or the first line of another agent's file appended."""
    if damage == "tail cut mid-line":
        return lines[:-1] + [lines[-1][:len(lines[-1]) // 2]]
    if damage == "another agent's line":
        return lines + other_lines[:1]
    return lines + [DAMAGE[damage](lines[0])]


@pytest.mark.parametrize("kind, damage", [
    (kind, damage) for kind, other in VERIFIED.items()
    for damage in [*DAMAGE, "tail cut mid-line", "another agent's line"]
    if other is not None or damage != "another agent's line"
])
def test_damaged_line_of_every_verified_file_is_a_violation(demo_run, tmp_path, kind, damage):
    """The verify twin of the test above: a damaged line is reported, and
    nothing is raised."""
    out = tmp_path / "out"
    shutil.copytree(demo_run, out)
    path = out / RUN_FILES[kind][0]
    lines = path.read_bytes().splitlines(keepends=True)
    other = VERIFIED[kind]
    other_lines = (out / other).read_bytes().splitlines(keepends=True) if other else []
    assert verify_output(out) == []
    path.write_bytes(b"".join(damaged_lines(damage, lines, other_lines)))
    assert verify_output(out) != []


@pytest.mark.parametrize("kind", RUN_FILES)
def test_a_field_no_writer_writes_is_refused(demo_run, tmp_path, kind):
    """A first line with one key beside its writer's raises CorruptStore at
    line 1, and ``verify`` reports it for the kinds it reads."""
    name, load, _ = RUN_FILES[kind]
    out = tmp_path / "out"
    shutil.copytree(demo_run, out)
    path = out / name
    first, *rest = path.read_bytes().splitlines(keepends=True)
    line = json.dumps({**json.loads(first), "unwritten": 1}).encode("utf-8") + b"\n"
    path.write_bytes(line + b"".join(rest))
    with pytest.raises(CorruptStore) as caught:
        load(path)
    assert (caught.value.path, caught.value.line_number) == (str(path), 1)
    if kind in VERIFIED:
        assert any("unknown field(s) ['unwritten']" in v for v in verify_output(out))


def test_append_log_reopens_after_close(tmp_path):
    """A log keeps its file open between appends; an append after ``close``
    opens it again, and every line is whole, in append order."""
    log = AppendLog(tmp_path / "sub" / "log.jsonl")
    log.append({"n": 1})
    log.append({"n": 2})
    log.close()
    log.close()  # a second close is a no-op
    log.append({"n": 3})
    log.sync()
    log.close()
    log.sync()  # nothing appended since the last sync
    assert [record["n"] for _, record in read_log(log.path, dict)] == [1, 2, 3]
    assert log.path.read_bytes() == b'{"n":1}\n{"n":2}\n{"n":3}\n'
