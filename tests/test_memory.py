from __future__ import annotations

import pytest

from artifact.errors import AlreadyComplete, InvalidKind, UnknownInvestigation
from artifact.memory import AgentJournal, InvestigationTracker, slugify


# -- journal -------------------------------------------------------------------

def test_journal_appends_in_order(tmp_path, clock):
    journal = AgentJournal(tmp_path / "journal.jsonl", clock=clock)
    journal.log("observation", "saw a post")
    journal.log("hypothesis", "maybe X causes Y")
    journal.log("conclusion", "X does cause Y", {"evidence": ["a1"]})
    kinds = [e.kind for e in journal.entries()]
    assert kinds == ["observation", "hypothesis", "conclusion"]


def test_journal_rejects_unknown_kind(tmp_path, clock):
    journal = AgentJournal(tmp_path / "journal.jsonl", clock=clock)
    with pytest.raises(InvalidKind):
        journal.log("rumination", "hmm")


def test_journal_replay_reconstructs_state(tmp_path, clock):
    path = tmp_path / "journal.jsonl"
    journal = AgentJournal(path, clock=clock)
    journal.log("observation", "first")
    journal.log("experiment", "second", {"tool": "paper_search"})
    reloaded = AgentJournal(path, clock=clock)
    assert reloaded.entries() == journal.entries()


def test_journal_file_is_append_only(tmp_path, clock):
    journal = AgentJournal(tmp_path / "journal.jsonl", clock=clock)
    journal.log("observation", "first")
    before = journal.path.read_bytes()
    journal.log("observation", "second")
    assert journal.path.read_bytes().startswith(before)


# -- investigations -------------------------------------------------------------

def test_slugify():
    assert slugify("Protein Receptor Binding!") == "protein-receptor-binding"


def test_create_is_idempotent_on_slug(tmp_path, clock):
    tracker = InvestigationTracker(tmp_path / "inv.json", clock=clock)
    first = tracker.create("Protein binding")
    again = tracker.create("protein BINDING")
    assert first is again
    assert first.status == "active"
    assert len(tracker.all()) == 1


def test_mark_complete_sets_timestamp(tmp_path, clock):
    tracker = InvestigationTracker(tmp_path / "inv.json", clock=clock)
    inv = tracker.create("some topic")
    assert inv.completed is None
    tracker.mark_complete(inv.id)
    assert inv.status == "complete"
    assert inv.completed is not None


def test_double_complete_rejected(tmp_path, clock):
    tracker = InvestigationTracker(tmp_path / "inv.json", clock=clock)
    inv = tracker.create("some topic")
    tracker.mark_complete(inv.id)
    with pytest.raises(AlreadyComplete):
        tracker.mark_complete(inv.id)


def test_unknown_investigation_errors(tmp_path, clock):
    tracker = InvestigationTracker(tmp_path / "inv.json", clock=clock)
    with pytest.raises(UnknownInvestigation):
        tracker.add_result("nope", {"x": 1})
    with pytest.raises(UnknownInvestigation):
        tracker.add_hypothesis("nope", "h")


def test_tracker_persists_across_reload(tmp_path, clock):
    path = tmp_path / "inv.json"
    tracker = InvestigationTracker(path, clock=clock)
    inv = tracker.create("some topic")
    tracker.add_hypothesis(inv.id, "h1")
    tracker.add_result(inv.id, {"artifact": "a1"})
    tracker.mark_complete(inv.id)
    reloaded = InvestigationTracker(path, clock=clock)
    loaded = reloaded.get(inv.id)
    assert loaded.hypotheses == ["h1"]
    assert loaded.results == [{"artifact": "a1"}]
    assert loaded.status == "complete"


def test_tracker_batch_writes_once_with_the_same_bytes(tmp_path, clock, monkeypatch):
    import artifact.memory as memory

    start = clock.current
    direct = InvestigationTracker(tmp_path / "direct.json", clock=clock)
    inv = direct.create("some topic")
    direct.add_hypothesis(inv.id, "h1")
    direct.add_result(inv.id, {"artifact": "a1"})
    direct.mark_complete(inv.id)

    writes = []
    atomic_write = memory._atomic_write
    monkeypatch.setattr(memory, "_atomic_write",
                        lambda path, data: (writes.append(path), atomic_write(path, data)))
    clock.current = start  # the same timestamps as above
    batched = InvestigationTracker(tmp_path / "batched.json", clock=clock)
    with batched.batch():
        inv = batched.create("some topic")
        batched.add_hypothesis(inv.id, "h1")
        batched.add_result(inv.id, {"artifact": "a1"})
        batched.mark_complete(inv.id)
        assert writes == []
    assert writes == [tmp_path / "batched.json"]
    assert (tmp_path / "batched.json").read_bytes() == (tmp_path / "direct.json").read_bytes()
    batched.add_result(inv.id, "late")  # outside a batch: saved at once
    assert len(writes) == 2


def test_tracker_batch_persists_when_the_block_fails(tmp_path, clock):
    path = tmp_path / "inv.json"
    tracker = InvestigationTracker(path, clock=clock)
    with pytest.raises(RuntimeError):
        with tracker.batch():
            inv = tracker.create("some topic")
            tracker.add_hypothesis(inv.id, "h1")
            raise RuntimeError("pipeline step failed")
    assert InvestigationTracker(path, clock=clock).get(inv.id).hypotheses == ["h1"]

