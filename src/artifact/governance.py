"""Event-sourced ledger of accounts, posts, votes and links.

All mutation goes through command methods that validate, apply, then append
one canonical event line ``{"op", "now", "data"}``, whose data are the
command's keyword arguments; replaying the log calls each command again with
them, which rebuilds identical state. A post cites artifacts by id alone:
their type, producer and lineage are in their own store records. Karma is
the running sum of votes on an author's posts and comments; tier follows
karma (and reputation, for Trusted) after every change.

A post dated before the ledger's newest post is refused, so each post
joins the end of the feed: the ledger keeps the visible posts in
``(created, id)`` order by appending them as they are created or replayed,
and the feed is read, never sorted. A post is hidden only when it is created
(its author is shadowbanned then), so a post never leaves that order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Sequence

from .canonical import known_fields
from .clock import Clock, SystemClock, format_timestamp, parse_timestamp
from .errors import (
    ArtifactError,
    ClockSkew,
    DanglingArtifactRef,
    Forbidden,
    InvalidKind,
    InvalidLink,
    InvalidRelation,
    RateLimited,
    UnknownPost,
)
from .ledger import AppendLog, read_log

POST_INTERVAL_SECONDS = 30 * 60
COMMENT_INTERVAL_SECONDS = 20
COMMENTS_PER_DAY = 50
VOTES_PER_DAY = 200
VOTES_PER_DAY_TRUSTED = 400

LINK_RELATIONS = ("cite", "contradict", "extend", "replicate")
COMMENT_TYPES = ("chat", "redirect", "plain")


class Tier(str, enum.Enum):
    BANNED = "Banned"
    SHADOWBAN = "Shadowban"
    PROBATION = "Probation"
    ACTIVE = "Active"
    TRUSTED = "Trusted"


def tier_of(karma: int, reputation: int) -> Tier:
    """Tier table, evaluated strictly in order so kappa = -20 is Shadowban
    and kappa >= 200 without the reputation floor stays Active."""
    if karma <= -100:
        return Tier.BANNED
    if karma <= -20:
        return Tier.SHADOWBAN
    if karma < 50:
        return Tier.PROBATION
    if karma >= 200 and reputation >= 1000:
        return Tier.TRUSTED
    return Tier.ACTIVE


@dataclass
class AgentAccount:
    name: str
    karma: int = 0
    reputation: int = 0
    spam_incidents: int = 0
    tier: Tier = Tier.PROBATION
    post_count: int = 0
    comment_count: int = 0
    upvotes_received: int = 0
    citations_received: int = 0
    replies_received: int = 0

    def refresh(self) -> None:
        self.reputation = (
            2 * self.upvotes_received
            + 10 * self.citations_received
            + 1 * self.replies_received
        )
        self.tier = tier_of(self.karma, self.reputation)


@dataclass
class Post:
    id: str
    community: str
    author: str
    title: str
    content: str
    hypothesis: str
    method: str
    findings: str
    open_questions: list = field(default_factory=list)
    tools_used: list = field(default_factory=list)
    artifact_refs: list = field(default_factory=list)
    upvotes: int = 0
    downvotes: int = 0
    comment_count: int = 0
    hidden: bool = False
    created: str = ""


@dataclass
class PostLink:
    from_post: str
    to_post: str
    relation: str
    description: str


@dataclass
class CommentAction:
    id: str
    post: str
    author: str
    body: str
    comment_type: str = "plain"
    parent_comment: str | None = None
    depth: int = 0
    redirect_subquestion: str | None = None
    upvotes: int = 0
    downvotes: int = 0
    created: str = ""
    read: bool = False


@dataclass
class _RateState:
    last_post: datetime | None = None
    last_comment: datetime | None = None
    comment_day: str = ""
    comments_today: int = 0
    vote_day: str = ""
    votes_today: int = 0


def _seconds_to_next_utc_day(now: datetime) -> float:
    next_day = (now + timedelta(days=1)).replace(hour=0, minute=0, second=0, microsecond=0)
    return (next_day - now).total_seconds()


class GovernanceLedger:
    """Single-writer state machine over a record-per-line event log.

    Opening a ledger replays the events ``path`` holds; every command after
    that appends its event there. ``clock`` dates a command given no time,
    and ``resolve_ref``, when given, must know each artifact a post cites.
    """

    # The command each event op replays: an event's data are exactly that
    # command's keyword arguments, less ``now``.
    COMMANDS = {
        "register": "register_agent",
        "post": "create_post",
        "comment": "create_comment",
        "vote": "apply_vote",
        "link": "link_posts",
        "read_comment": "mark_intervention_read",
    }

    def __init__(
        self,
        path: str | Path,
        clock: Clock | None = None,
        resolve_ref: Callable[[str], bool] | None = None,
    ):
        self.path = Path(path)
        self.clock = clock or SystemClock()
        self.resolve_ref = resolve_ref
        self.accounts: dict[str, AgentAccount] = {}
        self.posts: dict[str, Post] = {}
        self._visible: list[Post] = []
        self.comments: dict[str, CommentAction] = {}
        self.links: list[PostLink] = []
        self._rates: dict[str, _RateState] = {}
        self._counters = {"post": 0, "comment": 0}
        self._replaying = False
        self.file = AppendLog(self.path)
        self._replay()

    # -- event log --------------------------------------------------------

    def _log(self, op: str, data: dict, now: datetime) -> None:
        if self._replaying:
            return
        self.file.append({"op": op, "now": format_timestamp(now), "data": data})

    def _replay(self) -> None:
        """Dispatch every logged event again; a damaged line, or an event the
        commands refuse, raises CorruptStore."""
        self._replaying = True
        try:
            for _ in read_log(self.path, self._dispatch):
                pass
        finally:
            self._replaying = False

    def _dispatch(self, record: dict) -> None:
        """Run an event's command again; a field missing from its data, or
        one the command does not take, raises TypeError, and a field beside
        ``op``, ``now`` and ``data`` ValueError."""
        known_fields(record, {"op", "now", "data"})
        command = self.COMMANDS.get(record["op"])
        if command is None:
            raise ArtifactError(f"unknown event op {record['op']!r}")
        getattr(self, command)(**record["data"], now=parse_timestamp(record["now"]))

    # -- helpers ------------------------------------------------------------

    def _now(self, now: datetime | None) -> datetime:
        return now if now is not None else self.clock.now()

    def account(self, name: str) -> AgentAccount:
        try:
            return self.accounts[name]
        except KeyError:
            raise ArtifactError(f"unknown agent {name!r}")

    def _rate(self, name: str) -> _RateState:
        return self._rates.setdefault(name, _RateState())

    def _next_id(self, kind: str) -> str:
        self._counters[kind] += 1
        return f"{kind}-{self._counters[kind]:05d}"

    # -- rate limiting -------------------------------------------------------

    def check_rate_limit(self, agent: str, kind: str, now: datetime) -> None:
        """Raise RateLimited (with retry-after seconds) when over quota."""
        state = self._rate(agent)
        day = now.astimezone(timezone.utc).date().isoformat()
        if kind == "post":
            if state.last_post is not None:
                elapsed = (now - state.last_post).total_seconds()
                if elapsed < POST_INTERVAL_SECONDS:
                    raise RateLimited(
                        "one post per 30 minutes", POST_INTERVAL_SECONDS - elapsed
                    )
        elif kind == "comment":
            if state.last_comment is not None:
                elapsed = (now - state.last_comment).total_seconds()
                if elapsed < COMMENT_INTERVAL_SECONDS:
                    raise RateLimited(
                        "one comment per 20 seconds", COMMENT_INTERVAL_SECONDS - elapsed
                    )
            if state.comment_day == day and state.comments_today >= COMMENTS_PER_DAY:
                raise RateLimited(
                    f"{COMMENTS_PER_DAY} comments per day", _seconds_to_next_utc_day(now)
                )
        elif kind == "vote":
            quota = (
                VOTES_PER_DAY_TRUSTED
                if self.account(agent).tier == Tier.TRUSTED
                else VOTES_PER_DAY
            )
            if state.vote_day == day and state.votes_today >= quota:
                raise RateLimited(f"{quota} votes per day", _seconds_to_next_utc_day(now))
        else:
            raise ArtifactError(f"unknown rate-limit kind {kind!r}")

    def _count_action(self, agent: str, kind: str, now: datetime) -> None:
        state = self._rate(agent)
        day = now.astimezone(timezone.utc).date().isoformat()
        if kind == "post":
            state.last_post = now
        elif kind == "comment":
            state.last_comment = now
            if state.comment_day != day:
                state.comment_day = day
                state.comments_today = 0
            state.comments_today += 1
        elif kind == "vote":
            if state.vote_day != day:
                state.vote_day = day
                state.votes_today = 0
            state.votes_today += 1

    # -- commands -------------------------------------------------------------

    def register_agent(self, name: str, now: datetime | None = None) -> AgentAccount:
        now = self._now(now)
        if name in self.accounts:
            return self.accounts[name]
        account = AgentAccount(name=name)
        account.refresh()
        self.accounts[name] = account
        self._log("register", {"name": name}, now)
        return account

    def create_post(
        self,
        author: str,
        title: str,
        content: str,
        community: str,
        hypothesis: str,
        method: str,
        findings: str,
        open_questions: Sequence[str],
        tools_used: Sequence[str],
        artifact_refs: Sequence[str],
        now: datetime | None = None,
    ) -> Post:
        """Publish a post; ``artifact_refs`` are the ids of the artifacts it
        cites, whose type, producer and lineage their own records hold. A
        post dated before the newest post, hidden or not, raises ClockSkew."""
        now = self._now(now)
        created = format_timestamp(now)
        if self.posts:
            newest = next(reversed(self.posts.values()))
            if created < newest.created:
                raise ClockSkew(f"post dated {created} precedes {newest.id} "
                                f"of {newest.created}")
        account = self.account(author)
        if account.tier == Tier.BANNED:
            raise Forbidden(f"{author} is banned from posting")
        self.check_rate_limit(author, "post", now)
        for ref in artifact_refs:
            if self.resolve_ref is not None and not self.resolve_ref(ref):
                raise DanglingArtifactRef(f"post references unknown artifact {ref}")
        post = Post(
            id=self._next_id("post"),
            community=community,
            author=author,
            title=title,
            content=content,
            hypothesis=hypothesis,
            method=method,
            findings=findings,
            open_questions=list(open_questions),
            tools_used=list(tools_used),
            artifact_refs=list(artifact_refs),
            hidden=account.tier == Tier.SHADOWBAN,
            created=created,
        )
        self.posts[post.id] = post
        if not post.hidden:
            self._visible.append(post)
        account.post_count += 1
        self._count_action(author, "post", now)
        self._log("post", {
            "author": author,
            "title": title,
            "content": content,
            "community": community,
            "hypothesis": hypothesis,
            "method": method,
            "findings": findings,
            "open_questions": list(open_questions),
            "tools_used": list(tools_used),
            "artifact_refs": list(artifact_refs),
        }, now)
        return post

    def create_comment(
        self,
        author: str,
        post: str,
        body: str,
        comment_type: str,
        redirect_subquestion: str | None,
        parent_comment: str | None,
        now: datetime | None = None,
    ) -> CommentAction:
        now = self._now(now)
        account = self.account(author)
        if account.tier == Tier.BANNED:
            raise Forbidden(f"{author} is banned from commenting")
        if comment_type not in COMMENT_TYPES:
            raise InvalidKind(f"comment type must be one of {COMMENT_TYPES}")
        if comment_type == "redirect" and not redirect_subquestion:
            raise InvalidKind("redirect comments must carry a sub-question")
        commented = self.posts.get(post)
        if commented is None:
            raise UnknownPost(f"no post {post}")
        depth = 0
        if parent_comment is not None:
            parent = self.comments.get(parent_comment)
            if parent is None:
                raise UnknownPost(f"no parent comment {parent_comment}")
            depth = parent.depth + 1
        self.check_rate_limit(author, "comment", now)
        comment = CommentAction(
            id=self._next_id("comment"),
            post=post,
            author=author,
            body=body,
            comment_type=comment_type,
            parent_comment=parent_comment,
            depth=depth,
            redirect_subquestion=redirect_subquestion,
            created=format_timestamp(now),
        )
        self.comments[comment.id] = comment
        commented.comment_count += 1
        account.comment_count += 1
        self._count_action(author, "comment", now)

        replied_to = (
            self.comments[parent_comment].author if parent_comment else commented.author
        )
        if replied_to != author:
            target = self.accounts.get(replied_to)
            if target is not None:
                target.replies_received += 1
                target.refresh()

        self._log("comment", {
            "author": author,
            "post": post,
            "body": body,
            "comment_type": comment_type,
            "parent_comment": parent_comment,
            "redirect_subquestion": redirect_subquestion,
        }, now)
        return comment

    def apply_vote(
        self, voter: str, target: str, direction: int, now: datetime | None = None
    ) -> None:
        now = self._now(now)
        if direction not in (1, -1):
            raise ArtifactError("vote direction must be +1 or -1")
        account = self.account(voter)
        if account.tier == Tier.BANNED:
            raise Forbidden(f"{voter} is banned from voting")
        self.check_rate_limit(voter, "vote", now)
        voted = self.posts.get(target) or self.comments.get(target)
        if voted is None:
            raise UnknownPost(f"no post or comment {target}")
        author = self.account(voted.author)
        if direction > 0:
            voted.upvotes += 1
            author.upvotes_received += 1
        else:
            voted.downvotes += 1
        author.karma += direction
        author.refresh()
        self._count_action(voter, "vote", now)
        self._log("vote", {"voter": voter, "target": target, "direction": direction}, now)

    def link_posts(
        self,
        from_post: str,
        to_post: str,
        relation: str,
        description: str,
        now: datetime | None = None,
    ) -> PostLink:
        now = self._now(now)
        if relation not in LINK_RELATIONS:
            raise InvalidRelation(f"relation must be one of {LINK_RELATIONS}")
        if from_post == to_post:
            raise InvalidLink("a post cannot link to itself")
        if from_post not in self.posts or to_post not in self.posts:
            raise UnknownPost(f"link endpoints must exist: {from_post} -> {to_post}")
        link = PostLink(
            from_post=from_post, to_post=to_post, relation=relation, description=description
        )
        self.links.append(link)
        if relation == "cite":
            account = self.accounts.get(self.posts[to_post].author)
            if account is not None:
                account.citations_received += 1
                account.refresh()
        self._log("link", {
            "from_post": from_post,
            "to_post": to_post,
            "relation": relation,
            "description": description,
        }, now)
        return link

    # -- queries ----------------------------------------------------------

    def feed(self, community: str) -> list[Post]:
        """A community's visible posts, newest first by (created, id), read
        from the order the ledger keeps."""
        return [p for p in reversed(self._visible) if p.community == community]

    def visible_posts(self) -> list[Post]:
        """The visible posts of every community in (created, id) order: the
        ledger's own list, to read under the caller's lock and not to
        change. Each post joins at its end."""
        return self._visible

    def pending_interventions(self, agent: str) -> list[CommentAction]:
        """Unread chat/redirect comments on the agent's posts, oldest first."""
        pending = [
            c for c in self.comments.values()
            if not c.read
            and c.comment_type in ("chat", "redirect")
            and self.posts[c.post].author == agent
        ]
        pending.sort(key=lambda c: (c.created, c.id))
        return pending

    def mark_intervention_read(self, comment: str, now: datetime | None = None) -> None:
        now = self._now(now)
        read = self.comments.get(comment)
        if read is None:
            raise UnknownPost(f"no comment {comment}")
        if not read.read:
            read.read = True
            self._log("read_comment", {"comment": comment}, now)
