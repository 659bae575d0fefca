from __future__ import annotations

import pytest

from artifact.errors import AlreadyComplete, CorruptStore, InvalidKind, UnknownInvestigation
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


def tracker_over(tmp_path, clock) -> InvestigationTracker:
    return InvestigationTracker(AgentJournal(tmp_path / "journal.jsonl", clock=clock))


def test_create_is_idempotent_on_slug(tmp_path, clock):
    tracker = tracker_over(tmp_path, clock)
    first = tracker.create("Protein binding")
    again = tracker.create("protein BINDING")
    assert first is again
    assert first.status == "active"
    assert len(tracker.all()) == 1
    assert len(tracker.journal.entries()) == 1  # the second create logs nothing


def test_mark_complete_sets_timestamp(tmp_path, clock):
    tracker = tracker_over(tmp_path, clock)
    inv = tracker.create("some topic")
    assert inv.created == tracker.journal.entries()[0].timestamp
    assert inv.completed is None
    tracker.mark_complete(inv.id)
    assert inv.status == "complete"
    assert inv.completed == tracker.journal.entries()[-1].timestamp


def test_double_complete_rejected(tmp_path, clock):
    tracker = tracker_over(tmp_path, clock)
    inv = tracker.create("some topic")
    tracker.mark_complete(inv.id)
    with pytest.raises(AlreadyComplete):
        tracker.mark_complete(inv.id)


def test_unknown_investigation_errors(tmp_path, clock):
    tracker = tracker_over(tmp_path, clock)
    with pytest.raises(UnknownInvestigation):
        tracker.add_result("nope", "a1", "paper_search")
    with pytest.raises(UnknownInvestigation):
        tracker.add_hypothesis("nope", "h")
    assert tracker.journal.entries() == []


def test_tracker_writes_one_journal_line_per_change(tmp_path, clock):
    tracker = tracker_over(tmp_path, clock)
    inv = tracker.create("Some topic")
    tracker.add_hypothesis(inv.id, "h1")
    tracker.add_result(inv.id, "a1", "paper_search")
    tracker.mark_complete(inv.id)
    assert [(e.kind, e.content, e.metadata) for e in tracker.journal.entries()] == [
        ("observation", "Some topic", {"investigation": "some-topic", "status": "active"}),
        ("hypothesis", "h1", {"investigation": "some-topic"}),
        ("experiment", "ran paper_search",
         {"investigation": "some-topic", "artifact": "a1", "skill": "paper_search"}),
        ("observation", "investigation complete",
         {"investigation": "some-topic", "status": "complete"}),
    ]


def test_tracker_persists_across_reload(tmp_path, clock):
    tracker = tracker_over(tmp_path, clock)
    inv = tracker.create("some topic")
    tracker.add_hypothesis(inv.id, "h1")
    tracker.journal.log("experiment", "skill x skipped", {"investigation": inv.id})
    tracker.add_result(inv.id, "a1", "paper_search")
    tracker.journal.log("conclusion", "done", {"investigation": inv.id})
    tracker.mark_complete(inv.id)
    tracker.create("other topic")
    reloaded = tracker_over(tmp_path, clock)
    assert [i.to_dict() for i in reloaded.all()] == [i.to_dict() for i in tracker.all()]
    loaded = reloaded.get(inv.id)
    assert loaded.hypotheses == ["h1"]
    assert loaded.results == [{"artifact": "a1", "skill": "paper_search"}]
    assert loaded.status == "complete"
    assert reloaded.get("other-topic").status == "active"


@pytest.mark.parametrize("line", ["{truncated\n", '{"timestamp": "t", "kind": "hypothesis"}\n',
                                  '{"timestamp": "t", "kind": "observation", '
                                  '"content": "c", "metadata": []}\n'])
def test_damaged_journal_line_raises_corrupt_store(tmp_path, clock, line):
    tracker = tracker_over(tmp_path, clock)
    tracker.create("some topic")
    with open(tracker.journal.path, "a", encoding="utf-8") as handle:
        handle.write(line)
    with pytest.raises(CorruptStore) as caught:
        tracker_over(tmp_path, clock)
    assert (caught.value.path, caught.value.line_number) == (str(tracker.journal.path), 2)
