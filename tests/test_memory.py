from __future__ import annotations

import pytest

from artifact.errors import AlreadyComplete, CorruptStore, InvalidKind, UnknownInvestigation
from artifact.ledger import read_log
from artifact.memory import AgentJournal, InvestigationTracker, JournalEntry, slugify


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


def investigation_lines(path, slug) -> list[JournalEntry]:
    """The journal lines of one investigation, read from its file."""
    return [entry for _, entry in read_log(path, JournalEntry.from_dict)
            if entry.metadata.get("investigation") == slug]


def test_create_is_idempotent_on_slug(tmp_path, clock):
    tracker = tracker_over(tmp_path, clock)
    first = tracker.create("Protein binding")
    again = tracker.create("protein BINDING")
    assert first == again == tracker.status("protein-binding") == "active"
    assert "protein-binding" in tracker
    assert len(tracker.journal.entries()) == 1  # the second create logs nothing


def test_mark_complete_sets_timestamp(tmp_path, clock):
    """An investigation's start and completion times are its journal lines'."""
    tracker = tracker_over(tmp_path, clock)
    tracker.create("some topic")
    [started] = investigation_lines(tracker.journal.path, "some-topic")
    assert started.timestamp == tracker.journal.entries()[0].timestamp
    assert started.metadata["status"] == "active"
    assert tracker.status("some-topic") == "active"
    tracker.mark_complete("some-topic")
    assert tracker.status("some-topic") == "complete"
    completed = investigation_lines(tracker.journal.path, "some-topic")[-1]
    assert completed.metadata["status"] == "complete"
    assert completed.timestamp == tracker.journal.entries()[-1].timestamp > started.timestamp


def test_double_complete_rejected(tmp_path, clock):
    tracker = tracker_over(tmp_path, clock)
    tracker.create("some topic")
    tracker.mark_complete("some-topic")
    with pytest.raises(AlreadyComplete):
        tracker.mark_complete("some-topic")


def test_unknown_investigation_errors(tmp_path, clock):
    tracker = tracker_over(tmp_path, clock)
    with pytest.raises(UnknownInvestigation):
        tracker.add_result("nope", "a1", "paper_search")
    with pytest.raises(UnknownInvestigation):
        tracker.add_hypothesis("nope", "h")
    with pytest.raises(UnknownInvestigation):
        tracker.status("nope")
    assert tracker.journal.entries() == []


def test_tracker_writes_one_journal_line_per_change(tmp_path, clock):
    tracker = tracker_over(tmp_path, clock)
    tracker.create("Some topic")
    tracker.add_hypothesis("some-topic", "h1")
    tracker.add_result("some-topic", "a1", "paper_search")
    tracker.mark_complete("some-topic")
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
    slug = "some-topic"
    tracker.create("some topic")
    tracker.add_hypothesis(slug, "h1")
    tracker.journal.log("experiment", "skill x skipped", {"investigation": slug})
    tracker.add_result(slug, "a1", "paper_search")
    tracker.journal.log("conclusion", "done", {"investigation": slug})
    tracker.mark_complete(slug)
    tracker.create("other topic")
    reloaded = tracker_over(tmp_path, clock)
    for known in (slug, "other-topic"):
        assert reloaded.status(known) == tracker.status(known)
    assert "nope" not in reloaded
    # The hypotheses and results are the journal's alone.
    lines = investigation_lines(tracker.journal.path, slug)
    assert [e.content for e in lines if e.kind == "hypothesis"] == ["h1"]
    assert [{"artifact": e.metadata["artifact"], "skill": e.metadata["skill"]}
            for e in lines if e.kind == "experiment" and "skill" in e.metadata] == [
        {"artifact": "a1", "skill": "paper_search"}]
    assert reloaded.status(slug) == "complete"
    assert reloaded.status("other-topic") == "active"


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
