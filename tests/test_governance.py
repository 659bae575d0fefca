from __future__ import annotations

import json
from datetime import timedelta

import pytest

from artifact.clock import EPOCH, ManualClock, format_timestamp
from artifact.errors import (
    ClockSkew,
    CorruptStore,
    DanglingArtifactRef,
    Forbidden,
    InvalidKind,
    InvalidLink,
    InvalidRelation,
    RateLimited,
    UnknownPost,
)
from artifact.governance import GovernanceLedger, Tier, tier_of


@pytest.fixture
def ledger(tmp_path, clock):
    ledger = GovernanceLedger(tmp_path / "governance.jsonl", clock=clock)
    for name in ("alice", "bruno", "chen"):
        ledger.register_agent(name)
    return ledger


# Each command's fields that a test may leave out, at the value they then take.
UNSAID = {
    "create_post": dict(content="", community="main", hypothesis="", method="", findings="",
                        open_questions=(), tools_used=(), artifact_refs=()),
    "create_comment": dict(comment_type="plain", redirect_subquestion=None,
                           parent_comment=None),
    "link_posts": dict(description=""),
}


def call(command, *args, **fields):
    """Run a ledger command, with the fields the test leaves out as ``UNSAID``."""
    return command(*args, **{**UNSAID[command.__name__], **fields})


def make_post(ledger, author="alice", **kwargs):
    return call(ledger.create_post, author=author, title=kwargs.pop("title", "t"), **kwargs)


# -- tiers ---------------------------------------------------------------------

TIER_TABLE = [
    (-101, 0, Tier.BANNED),
    (-100, 0, Tier.BANNED),
    (-99, 0, Tier.SHADOWBAN),
    (-21, 0, Tier.SHADOWBAN),
    (-20, 0, Tier.SHADOWBAN),  # overlap in the table resolves strict
    (-19, 0, Tier.PROBATION),
    (0, 0, Tier.PROBATION),
    (49, 0, Tier.PROBATION),
    (50, 0, Tier.ACTIVE),
    (199, 0, Tier.ACTIVE),
    (200, 0, Tier.ACTIVE),     # reputation floor not met
    (250, 500, Tier.ACTIVE),
    (250, 999, Tier.ACTIVE),
    (200, 1000, Tier.TRUSTED),
    (250, 1000, Tier.TRUSTED),
]


@pytest.mark.parametrize("karma,reputation,expected", TIER_TABLE)
def test_tier_boundaries(karma, reputation, expected):
    assert tier_of(karma, reputation) == expected


# -- votes & karma ----------------------------------------------------------------

def test_upvote_increments_author_karma(ledger):
    post = make_post(ledger)
    ledger.apply_vote("bruno", post.id, +1)
    assert ledger.account("alice").karma == 1
    assert post.upvotes == 1
    assert ledger.account("alice").upvotes_received == 1


def test_downvote_decrements_author_karma(ledger):
    post = make_post(ledger)
    ledger.apply_vote("bruno", post.id, -1)
    assert ledger.account("alice").karma == -1
    assert post.downvotes == 1


def test_vote_quota_for_active_agent(ledger, clock):
    post = make_post(ledger)
    for _ in range(200):
        ledger.apply_vote("bruno", post.id, +1)
    with pytest.raises(RateLimited):
        ledger.apply_vote("bruno", post.id, +1)


def test_trusted_agent_gets_double_quota(ledger):
    post = make_post(ledger)
    trusted = ledger.account("bruno")
    trusted.karma = 250
    trusted.upvotes_received = 0
    trusted.citations_received = 100  # reputation 1000
    trusted.refresh()
    assert trusted.tier == Tier.TRUSTED
    for _ in range(201):
        ledger.apply_vote("bruno", post.id, +1)
    assert ledger.account("alice").karma == 201
    for _ in range(199):
        ledger.apply_vote("bruno", post.id, +1)
    with pytest.raises(RateLimited):
        ledger.apply_vote("bruno", post.id, +1)


def test_banned_voter_forbidden(ledger):
    post = make_post(ledger)
    banned = ledger.account("bruno")
    banned.karma = -150
    banned.refresh()
    with pytest.raises(Forbidden):
        ledger.apply_vote("bruno", post.id, +1)


def test_vote_quota_resets_at_utc_midnight(ledger, clock):
    post = make_post(ledger)
    for _ in range(200):
        ledger.apply_vote("bruno", post.id, +1)
    with pytest.raises(RateLimited) as err:
        ledger.apply_vote("bruno", post.id, +1)
    assert 0 < err.value.retry_after <= 86400
    clock.advance(hours=25)
    ledger.apply_vote("bruno", post.id, +1)  # new day, new quota


# -- rate limits --------------------------------------------------------------------

def test_post_interval_thirty_minutes(ledger, clock):
    make_post(ledger)
    clock.advance(minutes=10)
    with pytest.raises(RateLimited) as err:
        make_post(ledger)
    # ~20 minutes left, minus the seconds the ticking clock consumed
    assert 0 < err.value.retry_after <= 20 * 60
    assert err.value.retry_after > 19 * 60
    clock.advance(minutes=21)
    make_post(ledger)


def test_comment_interval_twenty_seconds(ledger, clock):
    post = make_post(ledger)
    call(ledger.create_comment, "bruno", post.id, "first remark")
    clock.advance(seconds=5)
    with pytest.raises(RateLimited) as err:
        call(ledger.create_comment, "bruno", post.id, "too soon")
    assert 0 < err.value.retry_after <= 15
    clock.advance(seconds=20)
    call(ledger.create_comment, "bruno", post.id, "fine now")


def test_fifty_comments_per_day(ledger, clock):
    post = make_post(ledger)
    for i in range(50):
        clock.advance(seconds=25)
        call(ledger.create_comment, "bruno", post.id, f"comment {i}")
    clock.advance(seconds=25)
    with pytest.raises(RateLimited) as err:
        call(ledger.create_comment, "bruno", post.id, "the 51st")
    assert err.value.retry_after > 0
    clock.advance(hours=25)
    call(ledger.create_comment, "bruno", post.id, "next day works")


# -- posts -----------------------------------------------------------------------

def test_post_with_artifact_refs(tmp_path, clock):
    known = {"art-1", "art-2"}
    ledger = GovernanceLedger(
        tmp_path / "gov.jsonl", clock=clock, resolve_ref=known.__contains__
    )
    ledger.register_agent("alice")
    refs = ["art-1", "art-2"]
    post = make_post(ledger, title="finding", artifact_refs=refs)
    assert post.artifact_refs == refs
    assert ledger.account("alice").post_count == 1


def test_dangling_artifact_ref_rejected(tmp_path, clock):
    ledger = GovernanceLedger(
        tmp_path / "gov.jsonl", clock=clock, resolve_ref={"known"}.__contains__
    )
    ledger.register_agent("alice")
    with pytest.raises(DanglingArtifactRef):
        make_post(ledger, title="finding",
                  artifact_refs=["ghost"])


def test_shadowbanned_post_hidden(ledger):
    shady = ledger.account("alice")
    shady.karma = -50
    shady.refresh()
    post = make_post(ledger)
    assert post.hidden
    assert post.id not in [p.id for p in ledger.feed("main")]


@pytest.mark.parametrize("newest_hidden", [False, True])
def test_a_backdated_post_is_refused(ledger, clock, newest_hidden):
    """A post dated before the newest post, hidden or not, raises ClockSkew
    before the ledger changes or logs anything, so each post joins the feed
    at its end; a log that holds such a post does not replay."""
    make_post(ledger, author="bruno")
    clock.advance(minutes=31)
    if newest_hidden:
        shady = ledger.account("alice")
        shady.karma = -50
        shady.refresh()
    assert make_post(ledger).hidden == newest_hidden
    feed, posts, log = ledger.feed("main"), dict(ledger.posts), ledger.path.read_bytes()
    backdated = EPOCH - timedelta(days=1)
    with pytest.raises(ClockSkew):
        make_post(ledger, author="chen", now=backdated)
    assert (ledger.feed("main"), ledger.posts, ledger.path.read_bytes()) == (feed, posts, log)
    assert ledger.account("chen").post_count == 0

    lines = log.splitlines(keepends=True)
    event = json.loads(lines[-1])  # the newest post's
    event["data"]["author"], event["now"] = "chen", format_timestamp(backdated)
    ledger.path.write_bytes(log + json.dumps(event).encode("utf-8") + b"\n")
    with pytest.raises(CorruptStore) as caught:
        GovernanceLedger(ledger.path, clock=clock)
    assert caught.value.line_number == len(lines) + 1


def test_banned_author_cannot_post(ledger):
    banned = ledger.account("alice")
    banned.karma = -150
    banned.refresh()
    with pytest.raises(Forbidden):
        make_post(ledger)


# -- links ----------------------------------------------------------------------

def test_cite_link_credits_target_author(ledger, clock):
    first = make_post(ledger, author="alice")
    clock.advance(minutes=31)
    second = make_post(ledger, author="bruno")
    ledger.link_posts(second.id, first.id, "cite", "builds on it")
    assert ledger.account("alice").citations_received == 1
    assert ledger.account("alice").reputation == 10


def test_self_link_rejected(ledger):
    post = make_post(ledger)
    with pytest.raises(InvalidLink):
        call(ledger.link_posts, post.id, post.id, "cite")


def test_unknown_relation_rejected(ledger, clock):
    first = make_post(ledger, author="alice")
    clock.advance(minutes=31)
    second = make_post(ledger, author="bruno")
    with pytest.raises(InvalidRelation):
        call(ledger.link_posts, second.id, first.id, "duplicates")


def test_link_requires_existing_posts(ledger):
    post = make_post(ledger)
    with pytest.raises(UnknownPost):
        call(ledger.link_posts, post.id, "missing", "cite")


# -- comments & interventions ------------------------------------------------------

def test_redirect_requires_subquestion(ledger):
    post = make_post(ledger)
    with pytest.raises(InvalidKind):
        call(ledger.create_comment, "bruno", post.id, "go left", comment_type="redirect")


def test_comment_depth_tracks_parent(ledger, clock):
    post = make_post(ledger)
    top = call(ledger.create_comment, "bruno", post.id, "root remark")
    clock.advance(seconds=21)
    child = call(ledger.create_comment, "chen", post.id, "reply", parent_comment=top.id)
    assert top.depth == 0
    assert child.depth == 1


def test_pending_interventions_flow(ledger, clock):
    post = make_post(ledger)
    assert ledger.pending_interventions("alice") == []
    ledger.create_comment("bruno", post.id, "redirect to ceramics",
                          comment_type="redirect",
                          redirect_subquestion="what about ceramics", parent_comment=None)
    clock.advance(seconds=21)
    call(ledger.create_comment, "chen", post.id, "plain note", comment_type="plain")
    pending = ledger.pending_interventions("alice")
    assert len(pending) == 1
    assert pending[0].comment_type == "redirect"
    ledger.mark_intervention_read(pending[0].id)
    assert ledger.pending_interventions("alice") == []


def test_comment_credits_replied_to_author(ledger, clock):
    def credits():
        return [(ledger.account(n).replies_received, ledger.account(n).reputation)
                for n in ("alice", "bruno", "chen")]

    post = make_post(ledger)
    top = call(ledger.create_comment, "bruno", post.id, "root remark")
    assert credits() == [(1, 1), (0, 0), (0, 0)]
    call(ledger.create_comment, "chen", post.id, "reply", parent_comment=top.id)
    assert credits() == [(1, 1), (1, 1), (0, 0)]
    clock.advance(seconds=21)
    call(ledger.create_comment, "alice", post.id, "on my own post")
    call(ledger.create_comment, "bruno", post.id, "on my own comment", parent_comment=top.id)
    assert credits() == [(1, 1), (1, 1), (0, 0)]


# -- replay & conservation -----------------------------------------------------------

def _exercise(ledger, clock):
    post = make_post(ledger, author="alice")
    ledger.apply_vote("bruno", post.id, +1)
    ledger.apply_vote("chen", post.id, +1)
    call(ledger.create_comment, "bruno", post.id, "question about methods")
    clock.advance(minutes=31)
    reply = make_post(ledger, author="bruno")
    ledger.link_posts(reply.id, post.id, "extend", "follow-up")
    ledger.apply_vote("alice", reply.id, -1)
    return post


def test_replay_reconstructs_state(tmp_path, clock):
    path = tmp_path / "gov.jsonl"
    ledger = GovernanceLedger(path, clock=clock)
    for name in ("alice", "bruno", "chen"):
        ledger.register_agent(name)
    _exercise(ledger, clock)

    replayed = GovernanceLedger(path, clock=clock)
    assert replayed.account("alice").karma == ledger.account("alice").karma == 2
    assert replayed.account("bruno").karma == ledger.account("bruno").karma == -1
    for name in ("alice", "bruno", "chen"):
        ours, theirs = ledger.account(name), replayed.account(name)
        assert (ours.karma, ours.reputation, ours.tier,
                ours.post_count, ours.comment_count) == \
               (theirs.karma, theirs.reputation, theirs.tier,
                theirs.post_count, theirs.comment_count)
    assert [p.id for p in replayed.feed("main")] == [p.id for p in ledger.feed("main")]
    assert len(replayed.comments) == len(ledger.comments)
    assert replayed.links == ledger.links


def test_karma_conservation_from_vote_log(ledger, clock):
    _exercise(ledger, clock)
    totals: dict[str, int] = {}
    with open(ledger.path, "r", encoding="utf-8") as handle:
        votes = [event["data"] for event in map(json.loads, handle) if event["op"] == "vote"]
    assert len(votes) == 3
    for vote in votes:
        target = ledger.posts.get(vote["target"]) or ledger.comments[vote["target"]]
        totals[target.author] = totals.get(target.author, 0) + vote["direction"]
    for name in ("alice", "bruno", "chen"):
        assert ledger.account(name).karma == totals.get(name, 0)


def test_rate_decisions_replay_identically(tmp_path):
    # Drive the limiter near its edges, then replay: accepted events only,
    # and re-applying them against fresh state must not trip any limit.
    clock = ManualClock(current=EPOCH, step=timedelta(0))
    path = tmp_path / "gov.jsonl"
    ledger = GovernanceLedger(path, clock=clock)
    ledger.register_agent("alice")
    ledger.register_agent("bruno")
    post = make_post(ledger)
    accepted, rejected = 0, 0
    for i in range(10):
        clock.advance(seconds=10)
        try:
            call(ledger.create_comment, "bruno", post.id, f"note {i}")
            accepted += 1
        except RateLimited:
            rejected += 1
    assert accepted == 5 and rejected == 5
    replayed = GovernanceLedger(path, clock=clock)
    assert replayed.account("bruno").comment_count == accepted
