"""What a live run keeps in memory: one slotted object per record, and no
field that the run never reads again.

The paper's persistent memory is the run's files. A post's text is in its
``governance.jsonl`` event, and an investigation's topic, hypotheses and
results are in its agent's ``journal.jsonl``, so the ledger and the
trackers keep only what the run reads back from them.
"""

from __future__ import annotations

from dataclasses import fields
from datetime import timedelta

from artifact.clock import EPOCH
from artifact.governance import AgentAccount, CommentAction, Post
from artifact.index import NeedKey
from artifact.ledger import Artifact, read_log
from artifact.memory import JournalEntry
from artifact.mutator import MutationEvent
from artifact.needs import NeedItem, NeedsSignal
from artifact.pressure import PressureBreakdown, PressureContext, RankedNeed, pressure
from artifact.reactor import ReactionRecord
from artifact.sim import demo_scenario, run

from .conftest import post_events

# Each record of which a run holds one instance per artifact, need, post,
# comment, account, journal line, reaction or mutation.
SLOTTED = (Artifact, NeedItem, NeedsSignal, NeedKey, Post, CommentAction, AgentAccount,
           JournalEntry, MutationEvent, ReactionRecord, PressureBreakdown, PressureContext,
           RankedNeed)

# The fields of a post that the ledger's commands and queries, the gap
# queues and the interventions read.
POST_FIELDS = {"id", "community", "author", "open_questions", "artifact_refs", "hidden",
               "created", "upvotes", "downvotes", "comment_count"}


def demo_instances(tmp_path) -> tuple:
    """A demo run's world, and one instance of each ``SLOTTED`` class: those
    the run holds taken from it, the rest built as the reactor builds them."""
    world, _ = run(demo_scenario(), tmp_path / "out")
    artifacts = list(world.index.entries())
    carrier = next(a for a in artifacts if a.needs is not None)
    key = next(world.index.fulfilled_key(a.artifact_id) for a in artifacts
               if world.index.fulfilled_key(a.artifact_id) is not None)
    alice = world.agents["alice"]
    [(_, event), *_] = read_log(world.run_dir.agent("bruno").mutations, MutationEvent.from_dict)
    context = PressureContext(coverage=0, centrality=1, parent_depth=1, created=EPOCH,
                              now=EPOCH + timedelta(minutes=5))
    breakdown = pressure(context)
    found = {
        Artifact: carrier,
        NeedItem: carrier.needs.items[0],
        NeedsSignal: carrier.needs,
        NeedKey: key,
        Post: next(iter(world.governance.posts.values())),
        CommentAction: next(iter(world.governance.comments.values())),
        AgentAccount: world.governance.account("alice"),
        JournalEntry: alice.journal.entries()[0],
        MutationEvent: event,
        ReactionRecord: ReactionRecord("need_driven", (), key, artifacts[-1].artifact_id,
                                       "motif_scan", breakdown),
        PressureBreakdown: breakdown,
        PressureContext: context,
        RankedNeed: RankedNeed(key, carrier.needs.items[0], carrier, breakdown),
    }
    return world, found


def test_per_record_objects_are_slotted(tmp_path):
    _, found = demo_instances(tmp_path)
    assert set(found) == set(SLOTTED)
    with_dict = [cls.__name__ for cls, instance in found.items()
                 if type(instance) is not cls or hasattr(instance, "__dict__")]
    assert with_dict == []


def test_ledger_and_trackers_keep_only_what_the_run_reads(tmp_path):
    world, _ = demo_instances(tmp_path)
    assert {f.name for f in fields(Post)} == POST_FIELDS
    posts = list(world.governance.posts.values())
    events = post_events(world.run_dir.governance)
    assert len(posts) == len(events) > 0
    for post, event in zip(posts, events):
        # The text is the event's alone; the cited ids and questions are both.
        assert (post.artifact_refs, post.open_questions) == (event["artifact_refs"],
                                                             event["open_questions"])
        assert not any(hasattr(post, name) for name in
                       ("title", "content", "hypothesis", "method", "findings", "tools_used"))
    for name, runtime in world.agents.items():
        tracker = runtime.tracker
        assert set(vars(tracker)) == {"journal", "_status"}, name
        assert tracker._status, name
        assert set(tracker._status.values()) <= {"active", "complete"}, name
