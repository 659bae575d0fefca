"""The reactor's incremental scans against the full rescans they replaced.

Random publishes (each a non-negative time step after the last, as
``World`` publishes; need carriers and fulfilments, repeated fulfilments),
publishes out of time order, which the index must refuse without a change,
and interleaved claims of artifacts and of need keys
(a claimed key whose answer is never published) drive a shared index and
one reactor per agent; two agents share a profile, so their reactors read
one candidate board. At every check a reactor's candidates must equal a
filter of the whole index through ``can_react`` of a reactor that never
scanned, each with its payload keys, and the index's ordered needs board
must equal a sort-and-rescan of every entry.
Random publishes, fulfilments, need-key claims and closes check the
centrality count the index keeps for each open need row against
``pressure.centrality``, the count's specification.
One agent's gap queue, driven across calls while posts arrive and questions
are started, is checked at every call against the sort it replaced, and the
ledger's ordered feed against a sort of every post.
"""

from __future__ import annotations

import random
import tempfile
from datetime import timedelta
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.clock import EPOCH, ManualClock
from artifact.governance import GovernanceLedger
from artifact.index import GlobalIndex, NeedKey, variant_ids
from artifact.ledger import ArtifactStore, create_artifact
from artifact.lineage import LineageGraph
from artifact.memory import slugify
from artifact.needs import NeedItem, NeedsSignal
from artifact.pressure import centrality
from artifact.reactor import ArtifactReactor, param_keys
from artifact.sim import GapQueue, choose_gap, stable_hash
from artifact.skills import default_registry, load_profile

from .conftest import nothing_stored
from .test_governance import call
from .test_index import assert_refused, reopened

RATIONALE = "downstream synthesis is blocked on this data"
AGENTS = {
    "alice": ["paper_search", "protein_lookup"],
    "ava": ["paper_search", "protein_lookup"],  # alice's profile: one board for both
    "bob": ["protein_lookup", "sequence_align", "motif_scan"],
    "cara": [],  # unrestricted
    "dan": ["candidate_rank", "citation_graph"],
}
TYPES = ("protein_data", "synthesis", "materials_data", "pubmed_results", "citation_map")
KEYS = ("query", "sequence", "papers", "Motifs", "--smiles", "other", "-", "x y")


def rescanned_open_needs(index: GlobalIndex, claimed: set) -> list:
    """Every need row neither fulfilled nor in ``claimed``, from a sort and a
    rescan of all entries."""
    entries = index.entries()
    fulfilled = {key for _, key in index.fulfillments()} | claimed
    rows = []
    for entry in sorted(entries, key=lambda e: (e.timestamp, e.artifact_id)):
        if entry.needs is None:
            continue
        for need_index, item in enumerate(entry.needs.items):
            for vid in variant_ids(item):
                key = NeedKey(entry.artifact_id, need_index, vid)
                if key not in fulfilled:
                    rows.append((key, item, entry))
    return rows


class Peers:
    """A shared index, one live reactor and one reference reactor per agent,
    and the artifact ids and need keys claimed in the index. The reference
    reactors only judge entries one at a time, through ``can_react``; they
    never read a board."""

    def __init__(self, directory: Path):
        registry = default_registry()
        self.index = GlobalIndex(directory / "index.jsonl", nothing_stored)
        self.store = ArtifactStore(directory / "store.jsonl")
        self.claimed_ids: set[str] = set()
        self.claimed_keys: set[NeedKey] = set()
        self.published: list = []
        self.seconds = 0  # the newest publish's time, after the epoch

        def reactor(name, tools, subdir):
            return ArtifactReactor(
                profile=load_profile({"name": name, "preferred_tools": tools}, registry),
                registry=registry,
                index=self.index,
                graph=LineageGraph(),
                emit=None,  # these reactors only scan
                reactions_path=directory / subdir / name / "reactions.jsonl",
                clock=ManualClock(),
                rng=random.Random(name),
            )

        self.reactors = {n: reactor(n, t, "live") for n, t in AGENTS.items()}
        self.references = {n: reactor(n, t, "reference") for n, t in AGENTS.items()}

    def broadcast_keys(self) -> list[NeedKey]:
        return [NeedKey(e.artifact_id, i, vid)
                for e in self.published if e.needs is not None
                for i, item in enumerate(e.needs.items) for vid in variant_ids(item)]

    def publish(self, op) -> None:
        _, producer, type_pick, keys, investigation, step, needs, fulfil = op
        carriers_keys = self.broadcast_keys()
        fulfills = None
        if fulfil is not None and carriers_keys:
            fulfills = carriers_keys[fulfil % len(carriers_keys)]
        signal = None
        if needs:
            signal = NeedsSignal(items=tuple(
                NeedItem(artifact_type=TYPES[t], query=f"need query {t}", rationale=RATIONALE,
                         parallel_variants=tuple({"sequence": "A" * (v + 1)} for v in range(n)))
                for t, n in needs
            ))
        number = len(self.published)
        self.seconds += step
        artifact = create_artifact(
            artifact_type=TYPES[type_pick],
            producer_agent=list(AGENTS)[producer],
            skill="synthesize",
            payload={key: number for key in keys},
            parents=(),
            investigation_id=investigation,
            needs=signal,
            clock=ManualClock(current=EPOCH + timedelta(seconds=self.seconds)),
            id_factory=lambda: f"a{number:03d}",
        )
        self.store.append(artifact)
        self.index.publish(artifact, fulfills)
        self.published.append(artifact)

    def publish_stale(self, op) -> None:
        """Publish a need carrier that does not come after the newest entry:
        an earlier or equal time with an id no later than the newest's."""
        _, pick, back = op
        number = pick % len(self.published)
        artifact = create_artifact(
            artifact_type="synthesis", producer_agent="alice", skill="synthesize",
            payload={}, parents=(), investigation_id="",
            needs=NeedsSignal(items=(NeedItem(artifact_type=TYPES[0], query="need query 0",
                                              rationale=RATIONALE),)),
            clock=ManualClock(current=EPOCH + timedelta(seconds=self.seconds - back)),
            id_factory=lambda: f"a{number:03d}",
        )
        assert_refused(self.index, artifact)


publishes = st.tuples(
    st.just("publish"),
    st.integers(0, len(AGENTS) - 1),
    st.integers(0, len(TYPES) - 1),
    st.sets(st.sampled_from(KEYS), max_size=3),
    st.sampled_from(("", "x", "y")),
    st.integers(0, 3),  # seconds after the last publish: ties are broken by id
    st.lists(st.tuples(st.integers(0, len(TYPES) - 1), st.integers(0, 2)), max_size=2),
    st.none() | st.integers(0, 40),  # fulfil one of the keys broadcast so far
)
claims = st.tuples(st.just("claim"), st.integers(0, 60))
need_claims = st.tuples(st.just("claim_need"), st.integers(0, 40))
stale_publishes = st.tuples(st.just("stale"), st.integers(0, 40), st.integers(0, 3))
checks = st.tuples(st.just("check"), st.integers(0, len(AGENTS) - 1))


@settings(max_examples=120)
@given(ops=st.lists(st.one_of(publishes, publishes, claims, need_claims, stale_publishes,
                              checks, checks),
                    min_size=5, max_size=40))
def test_incremental_scans_match_full_rescan(ops):
    with tempfile.TemporaryDirectory() as tmp:
        peers = Peers(Path(tmp))
        for op in ops + [("check", a) for a in range(len(AGENTS))]:
            if op[0] == "publish":
                peers.publish(op)
            elif op[0] == "stale" and peers.published:
                peers.publish_stale(op)
            elif op[0] == "claim" and peers.published:
                artifact_id = peers.published[op[1] % len(peers.published)].artifact_id
                peers.index.claim_all((artifact_id,))
                peers.claimed_ids.add(artifact_id)
            elif op[0] == "claim_need" and peers.broadcast_keys():
                keys = peers.broadcast_keys()
                key = keys[op[1] % len(keys)]  # claiming a closed key closes nothing
                peers.index.claim_need(key)
                peers.claimed_keys.add(key)
            elif op[0] == "check":
                name = list(AGENTS)[op[1]]
                reactor, reference = peers.reactors[name], peers.references[name]
                found = reactor.scan_available()
                expected = [(e, param_keys(e.payload))
                            for e in sorted(peers.index.scan(exclude_producer=name),
                                            key=lambda e: (e.timestamp, e.artifact_id))
                            if reference.can_react(e)]
                assert found == expected
                assert all(a.artifact_id not in peers.claimed_ids for a, _ in found)
                rows = peers.index.open_needs({})
                rescanned = rescanned_open_needs(peers.index, peers.claimed_keys)
                assert rows == rescanned
                assert reactor.scan_needs(rows) == reference.scan_needs(rescanned)
        reloaded = GlobalIndex(Path(tmp) / "index.jsonl", reopened(peers.store))
        reloaded.seed_claims(peers.claimed_ids, peers.claimed_keys)
        assert reloaded.open_needs({}) == peers.index.open_needs({})


# -- centrality kept by the index against its specification ---------------------------

# Queries that overlap in some tokens and not in others; equal queries on two
# carriers come up often.
QUERIES = ("TP53 Y220C binding", "tp53 motif", "alloy density", "density-of-ALLOY",
           "a b c", "binding energy")

need_specs = st.tuples(st.integers(0, 2), st.sampled_from(QUERIES), st.integers(0, 3))
carries = st.tuples(st.just("carry"), st.lists(need_specs, min_size=1, max_size=2),
                    st.booleans(),  # one NeedItem object carried twice by the signal
                    st.integers(0, 3))  # seconds after the last publish
fulfils = st.tuples(st.just("fulfil"), st.integers(0, 60), st.integers(0, 3))
key_claims = st.tuples(st.just("claim_need"), st.integers(0, 60))


def assert_counts_match_specification(index: GlobalIndex) -> None:
    counts: dict = {}
    rows = index.open_needs(counts)
    items = [item for _, item, _ in rows]
    assert set(counts) == {key for key, _, _ in rows}
    for key, item, _ in rows:
        assert counts[key] == centrality(item, items), key.text


@settings(max_examples=150)
@given(ops=st.lists(st.one_of(carries, carries, fulfils, key_claims), min_size=1, max_size=30))
def test_index_centrality_counts_match_the_specification(ops):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.jsonl"
        index = GlobalIndex(path, nothing_stored)
        store = ArtifactStore(Path(tmp) / "store.jsonl")
        keys: list[NeedKey] = []
        claimed: list[NeedKey] = []
        seconds = 0
        for number, op in enumerate(ops):
            fulfills, signal = None, None
            if op[0] == "claim_need":
                if keys:  # a key claimed and never answered: nothing is published
                    claimed.append(keys[op[1] % len(keys)])
                    index.claim_need(claimed[-1])
                    assert_counts_match_specification(index)
                continue
            if op[0] == "carry":
                _, specs, repeat, step = op
                items = tuple(
                    NeedItem(artifact_type=TYPES[t], query=query, rationale=RATIONALE,
                             parallel_variants=tuple({"sequence": "A" * (v + 1)}
                                                     for v in range(n)))
                    for t, query, n in specs)
                signal = NeedsSignal(items=items[:1] * 2 if repeat else items)
            else:
                _, pick, step = op
                if not keys:
                    continue
                fulfills = keys[pick % len(keys)]  # a repeated fulfilment closes nothing
            seconds += step
            artifact = create_artifact(
                artifact_type="synthesis", producer_agent="alice", skill="synthesize",
                payload={}, parents=(), investigation_id="", needs=signal,
                clock=ManualClock(current=EPOCH + timedelta(seconds=seconds)),
                id_factory=lambda: f"a{number:03d}")
            store.append(artifact)
            index.publish(artifact, fulfills)
            if signal is not None:
                keys += [NeedKey(artifact.artifact_id, i, vid)
                         for i, item in enumerate(signal.items) for vid in variant_ids(item)]
            assert_counts_match_specification(index)
        reloaded = GlobalIndex(path, reopened(store))
        reloaded.seed_claims((), claimed)
        assert_counts_match_specification(reloaded)
        assert reloaded.open_needs({}) == index.open_needs({})


# -- the gap queue against the sort it replaced -----------------------------------------

def sorted_gap(seed: int, agent: str, feed, started: set) -> str | None:
    """Head of the gap queue as the heartbeat built it before: every unstarted
    question, deduplicated in feed order, sorted by the agent's hash."""
    gaps = []
    for post in feed:
        if post.author == agent:
            continue
        for question in post.open_questions:
            if slugify(question) not in started and question not in gaps:
                gaps.append(question)
    gaps.sort(key=lambda q: stable_hash(str(seed), "gap", agent, q))
    return gaps[0] if gaps else None


# Slug collisions ("Role of X?" / "role of x") and repeats are deliberate.
QUESTIONS = ("Role of X?", "role of x", "What is the role of kinetics in y?",
             "What is the role of grain in y?", "Why Z", "why-z!", "open")
# "me" chooses; "shady" is shadowbanned, so its posts are hidden.
AUTHORS = ("me", "p1", "p2", "shady")


class GapFeed:
    """A governance ledger logging to ``path`` and one agent's gap queue,
    driven across calls, in a run with room for ``budget`` starts.

    Each start is its own heartbeat's, as in a run, where a heartbeat starts
    at most one investigation: the run has ``budget + 1`` cycles, a call
    passes the number of starts so far as its cycle, and so the budget left
    after it is ``cycles - cycle - 1``. A start past the budget is skipped.
    """

    def __init__(self, seed: int, path: Path, budget: int = 100):
        self.seed = seed
        self.cycles = budget + 1
        self.starts = 0
        self.clock = ManualClock(current=EPOCH, step=timedelta(seconds=1))
        self.ledger = GovernanceLedger(path, clock=self.clock)
        for name in AUTHORS:
            self.ledger.register_agent(name)
        shady = self.ledger.account("shady")
        shady.karma = -20
        shady.refresh()
        self.started: set = set()
        self.world = SimpleNamespace(
            agents={"me": SimpleNamespace(gaps=GapQueue("me", seed, "main", self.cycles),
                                          tracker=self.started)},
            governance=self.ledger,
            question_slug=slugify,
        )

    def post(self, author: str, questions, community: str) -> None:
        self.clock.advance(minutes=31)  # past the per-author post interval
        call(self.ledger.create_post, author=author, title="t", community=community,
             open_questions=questions)

    def start(self, question: str) -> None:
        """Start a question's investigation (trackers only grow), unless the
        budget is spent."""
        if self.starts < self.cycles - 1:
            self.started.add(slugify(question))
            self.starts += 1

    def check(self) -> None:
        """The queue's head, and the ledger's feed, against a sort of every post."""
        feed = sorted((p for p in self.ledger.posts.values()
                       if not p.hidden and p.community == "main"),
                      key=lambda p: (p.created, p.id), reverse=True)
        assert self.ledger.feed(community="main") == feed
        assert (choose_gap(self.world, "me", self.starts)
                == sorted_gap(self.seed, "me", feed, self.started))


gap_posts = st.tuples(st.just("post"), st.sampled_from(AUTHORS),
                      st.lists(st.sampled_from(QUESTIONS), max_size=3),
                      st.sampled_from(("main", "main", "side")))
gap_starts = st.tuples(st.just("start"), st.sampled_from(QUESTIONS))
gap_calls = st.tuples(st.just("call"))


@settings(max_examples=150)
@given(seed=st.integers(0, 50), budget=st.integers(0, 6),
       ops=st.lists(st.one_of(gap_posts, gap_posts, gap_starts, gap_calls), max_size=25))
def test_lazy_gap_choice_matches_sorted_queue(seed, budget, ops):
    with tempfile.TemporaryDirectory() as tmp:
        gaps = GapFeed(seed, Path(tmp) / "governance.jsonl", budget)
        try:
            for op in ops + [("call",)]:
                if op[0] == "post":
                    gaps.post(*op[1:])
                elif op[0] == "start":
                    gaps.start(op[1])
                else:
                    gaps.check()
        finally:
            gaps.ledger.file.close()


def test_gap_ties_go_to_the_first_question_in_feed_order(monkeypatch, tmp_path):
    import artifact.sim as sim

    monkeypatch.setattr(sim, "stable_hash", lambda *parts: 7)
    gaps = GapFeed(seed=1, path=tmp_path / "governance.jsonl")
    gaps.post("p1", ["b question", "a question"], "main")
    assert choose_gap(gaps.world, "me", gaps.starts) == "b question"
    gaps.post("p2", ["d question", "c question"], "main")  # newer, so first in the feed
    assert choose_gap(gaps.world, "me", gaps.starts) == "d question"
    gaps.start("d question")
    gaps.start("c question")
    assert choose_gap(gaps.world, "me", gaps.starts) == "b question"
