from __future__ import annotations

import dataclasses
import json

import pytest

from artifact.clock import ManualClock
from artifact.errors import ClockSkew, CorruptStore
from artifact.index import GlobalIndex, NeedKey, variant_ids
from artifact.ledger import Artifact, ArtifactStore, create_artifact
from artifact.needs import NeedItem, NeedsSignal

from .conftest import nothing_stored, stored_records

RATIONALE = "more data on this entity would advance the run"


def entry(artifact_id, *, artifact_type="protein_data", producer="alice",
          timestamp="2024-01-01T00:00:00.000000+00:00", needs=None):
    """An artifact record for the index; the index never reads its payload."""
    return Artifact(
        artifact_id=artifact_id,
        artifact_type=artifact_type,
        producer_agent=producer,
        skill="protein_lookup",
        schema_version=1,
        payload={},
        investigation_id="",
        timestamp=timestamp,
        content_hash="",
        parent_artifact_ids=(),
        needs=needs,
    )


def need(artifact_type="protein_data", query="TP53 data", variants=()):
    return NeedItem(
        artifact_type=artifact_type,
        query=query,
        rationale=RATIONALE,
        parallel_variants=tuple(variants),
    )


def test_publish_then_scan(tmp_path):
    index = GlobalIndex(tmp_path / "index.jsonl", nothing_stored)
    index.publish(entry("a1"), None)
    assert [e.artifact_id for e in index.scan()] == ["a1"]


def assert_refused(index, artifact):
    """Publishing ``artifact`` raises ClockSkew and changes neither the
    index's file nor its entries."""
    before, entries = index.path.read_bytes(), index.entries()
    with pytest.raises(ClockSkew):
        index.publish(artifact, None)
    assert index.path.read_bytes() == before
    assert index.entries() == entries


def test_duplicate_publish_rejected(tmp_path):
    index = GlobalIndex(tmp_path / "index.jsonl", nothing_stored)
    index.publish(entry("a1"), None)
    assert_refused(index, entry("a1"))


def test_scan_filters(tmp_path):
    index = GlobalIndex(tmp_path / "index.jsonl", nothing_stored)
    index.publish(entry("a1", artifact_type="protein_data", producer="alice"), None)
    index.publish(entry("a2", artifact_type="pubmed_results", producer="bruno"), None)
    index.publish(entry("a3", artifact_type="protein_data", producer="bruno"), None)
    assert {e.artifact_id for e in index.scan(artifact_type="protein_data")} == {"a1", "a3"}
    assert {e.artifact_id for e in index.scan(exclude_producer="alice")} == {"a2", "a3"}
    assert {e.artifact_id for e in index.scan(producer="bruno",
                                              artifact_type="protein_data")} == {"a3"}


def test_publish_out_of_time_order_rejected(tmp_path):
    index = GlobalIndex(tmp_path / "index.jsonl", nothing_stored)
    index.publish(entry("b", timestamp="2024-01-01T00:00:01.000000+00:00"), None)
    assert_refused(index, entry("c", timestamp="2024-01-01T00:00:00.000000+00:00"))
    assert_refused(index, entry("a", timestamp="2024-01-01T00:00:01.000000+00:00"))
    index.publish(entry("a", timestamp="2024-01-01T00:00:02.000000+00:00"), None)
    index.publish(entry("c", timestamp="2024-01-01T00:00:02.000000+00:00"), None)
    assert [e.artifact_id for e in index.scan()] == ["b", "a", "c"]


# -- needs board ---------------------------------------------------------------

def test_open_needs_expands_items(tmp_path):
    signal = NeedsSignal(items=(need(query="first query"), need(query="second query")))
    index = GlobalIndex(tmp_path / "index.jsonl", nothing_stored)
    index.publish(entry("a1", needs=signal), None)
    rows = index.open_needs({})
    assert len(rows) == 2
    assert [key.need_index for key, _, _ in rows] == [0, 1]
    assert all(key.variant_id == "default" for key, _, _ in rows)


def test_open_needs_expands_variants(tmp_path):
    signal = NeedsSignal(items=(need(variants=({"a": 1}, {"a": 2}, {"a": 3})),))
    index = GlobalIndex(tmp_path / "index.jsonl", nothing_stored)
    index.publish(entry("a1", needs=signal), None)
    rows = index.open_needs({})
    assert [key.variant_id for key, _, _ in rows] == ["v0", "v1", "v2"]
    assert len({key.text for key, _, _ in rows}) == 3


def test_fulfilled_key_closes_need(tmp_path):
    index = GlobalIndex(tmp_path / "index.jsonl", nothing_stored)
    index.publish(entry("a1", needs=NeedsSignal(items=(need(),))), None)
    key = NeedKey("a1", 0, "default")
    index.publish(entry("b1", producer="bruno"), key)
    assert [k for k, _, _ in index.open_needs({})] == []
    assert index.coverage("a1", 0) == 1


def test_need_key_text_round_trip():
    key = NeedKey("a1", 2, "v1")
    assert key.text == "a1:2:v1"
    assert NeedKey.parse(key.text) == key


def test_variant_ids_default():
    assert variant_ids(need()) == ["default"]
    assert variant_ids(need(variants=({"x": 1},))) == ["v0"]


# -- coverage --------------------------------------------------------------------

def test_coverage_counts_across_variants(tmp_path):
    index = GlobalIndex(tmp_path / "index.jsonl", nothing_stored)
    signal = NeedsSignal(items=(need(variants=({"a": 1}, {"a": 2})),))
    index.publish(entry("a1", needs=signal), None)
    assert index.coverage("a1", 0) == 0
    index.publish(entry("b1", producer="bruno"), NeedKey("a1", 0, "v0"))
    index.publish(entry("b2", producer="chen"), NeedKey("a1", 0, "v1"))
    assert index.coverage("a1", 0) == 2


def test_coverage_ignores_other_need_index(tmp_path):
    index = GlobalIndex(tmp_path / "index.jsonl", nothing_stored)
    index.publish(entry("a1", needs=NeedsSignal(items=(need(), need(query="other q")))), None)
    index.publish(entry("b1", producer="bruno"), NeedKey("a1", 1, "default"))
    assert index.coverage("a1", 0) == 0
    assert index.coverage("a1", 1) == 1


# -- persistence & invariants ------------------------------------------------------

def stored(store, artifact_id, *, producer="alice", needs=None):
    """Store an artifact with this id and return it."""
    artifact = create_artifact(
        artifact_type="protein_data", producer_agent=producer, skill="protein_lookup",
        payload={"id": artifact_id}, parents=(), investigation_id="", needs=needs,
        clock=ManualClock(),
        id_factory=lambda: artifact_id,
    )
    store.append(artifact)
    return artifact


def reopened(store):
    """Resolve an id through the store as read back from its file."""
    return {a.artifact_id: a for a in stored_records(store.log.path)}.get


def test_index_line_holds_the_address_and_fulfilled_key(tmp_path):
    path = tmp_path / "index.jsonl"
    store = ArtifactStore(tmp_path / "store.jsonl")
    index = GlobalIndex(path, nothing_stored)
    index.publish(stored(store, "a1", needs=NeedsSignal(items=(need(),))), None)
    index.publish(stored(store, "b1", producer="bruno"), NeedKey("a1", 0, "default"))
    assert path.read_bytes() == (
        b'{"artifact_id":"a1","fulfills":null,"producer_agent":"alice"}\n'
        b'{"artifact_id":"b1","fulfills":"a1:0:default","producer_agent":"bruno"}\n'
    )


def test_reload_from_file(tmp_path):
    path = tmp_path / "index.jsonl"
    store = ArtifactStore(tmp_path / "store.jsonl")
    index = GlobalIndex(path, nothing_stored)
    index.publish(stored(store, "a1", needs=NeedsSignal(items=(need(),))), None)
    index.publish(stored(store, "b1", producer="bruno"), NeedKey("a1", 0, "default"))
    reloaded = GlobalIndex(path, reopened(store))
    assert len(reloaded) == 2
    assert reloaded.coverage("a1", 0) == 1
    assert reloaded.open_needs({}) == []
    assert reloaded.entries() == index.entries()
    assert reloaded.fulfillments() == index.fulfillments() == [
        (index.entries()[1], NeedKey("a1", 0, "default"))]


def test_reload_rejects_a_repeated_entry(tmp_path):
    path = tmp_path / "index.jsonl"
    store = ArtifactStore(tmp_path / "store.jsonl")
    index = GlobalIndex(path, nothing_stored)
    index.publish(stored(store, "a1"), None)
    index.publish(stored(store, "a2"), None)
    first = path.read_bytes().splitlines(keepends=True)[0]
    with open(path, "ab") as handle:
        handle.write(first)
    with pytest.raises(CorruptStore) as caught:
        GlobalIndex(path, reopened(store))
    assert (caught.value.path, caught.value.line_number) == (str(path), 3)
    assert "a1" in caught.value.reason


def test_reload_rejects_two_swapped_entries(tmp_path):
    path = tmp_path / "index.jsonl"
    store = ArtifactStore(tmp_path / "store.jsonl")
    index = GlobalIndex(path, nothing_stored)
    for artifact_id in ("a1", "a2", "a3"):
        index.publish(stored(store, artifact_id), None)
    first, second, third = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(first + third + second)
    with pytest.raises(CorruptStore) as caught:
        GlobalIndex(path, reopened(store))
    assert (caught.value.path, caught.value.line_number) == (str(path), 3)
    assert "a2" in caught.value.reason and "out of order" in caught.value.reason


def test_reload_rejects_an_id_no_store_holds(tmp_path):
    path = tmp_path / "index.jsonl"
    store = ArtifactStore(tmp_path / "store.jsonl")
    index = GlobalIndex(path, nothing_stored)
    index.publish(stored(store, "a1"), None)
    index.publish(entry("a2"), None)  # indexed, never stored
    with pytest.raises(CorruptStore) as caught:
        GlobalIndex(path, reopened(store))
    assert (caught.value.path, caught.value.line_number) == (str(path), 2)
    assert "a2" in caught.value.reason
    with pytest.raises(CorruptStore) as caught:
        GlobalIndex(path, nothing_stored)  # no store to join with
    assert caught.value.line_number == 1


def test_reload_rejects_a_producer_other_than_the_records(tmp_path):
    path = tmp_path / "index.jsonl"
    store = ArtifactStore(tmp_path / "store.jsonl")
    index = GlobalIndex(path, nothing_stored)
    index.publish(stored(store, "a1"), None)
    index.publish(dataclasses.replace(stored(store, "a2"), producer_agent="bruno"), None)
    with pytest.raises(CorruptStore) as caught:
        GlobalIndex(path, reopened(store))
    assert (caught.value.path, caught.value.line_number) == (str(path), 2)
    assert "alice" in caught.value.reason and "bruno" in caught.value.reason


def test_scans_are_monotone(tmp_path):
    index = GlobalIndex(tmp_path / "index.jsonl", nothing_stored)
    index.publish(entry("a1"), None)
    first = {e.artifact_id for e in index.scan(artifact_type="protein_data")}
    index.publish(entry("a2"), None)
    second = {e.artifact_id for e in index.scan(artifact_type="protein_data")}
    assert first <= second


def test_open_needs_never_intersect_fulfilled(tmp_path):
    index = GlobalIndex(tmp_path / "index.jsonl", nothing_stored)
    signal = NeedsSignal(items=(need(variants=({"a": 1}, {"a": 2})), need(query="zz top")))
    index.publish(entry("a1", needs=signal), None)
    index.publish(entry("f1", producer="bruno"), NeedKey("a1", 0, "v0"))
    index.publish(entry("f2", producer="bruno"), NeedKey("a1", 1, "default"))
    open_keys = {k.text for k, _, _ in index.open_needs({})}
    fulfilled = {"a1:0:v0", "a1:1:default"}
    assert open_keys.isdisjoint(fulfilled)
    assert open_keys == {"a1:0:v1"}


def test_coverage_matches_brute_force_over_raw_file(tmp_path):
    path = tmp_path / "index.jsonl"
    index = GlobalIndex(path, nothing_stored)
    signal = NeedsSignal(items=(need(variants=({"a": 1}, {"a": 2}, {"a": 3})),))
    index.publish(entry("a1", needs=signal), None)
    for i, variant in enumerate(["v0", "v1", "v2"]):
        index.publish(entry(f"f{i}", producer="bruno"), NeedKey("a1", 0, variant))

    brute = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            fulfills = record.get("fulfills")
            if fulfills:
                artifact_id, need_index, _ = fulfills.split(":", 2)
                if artifact_id == "a1" and int(need_index) == 0:
                    brute += 1
    assert index.coverage("a1", 0) == brute == 3
