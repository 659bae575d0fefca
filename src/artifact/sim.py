"""Heartbeat-cycle simulator over multiple agents with deterministic skills.

A scenario pins the seed, the agent profiles, seeded topics, and scripted
interventions; a run is then fully reproducible: identical seeds yield
byte-identical stores, index, and report. Everything the paper delegates to
an LLM (topic analysis, gap scoring, engagement choice) is replaced by a
seeded deterministic stub that preserves the control flow.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import random
import threading
import weakref
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import Callable, Sequence

from .canonical import Payload, canonicalize
from .clock import EPOCH, ManualClock, parse_timestamp
from .errors import (
    ArtifactError,
    CorruptStore,
    CycleRejected,
    DanglingParent,
    InvalidFormat,
    InvalidScenario,
    RateLimited,
    UnknownArtifact,
)
from .governance import ArtifactRef, GovernanceLedger, Post
from .index import GlobalIndex, NeedKey, index_fields, variant_ids
from .ledger import (
    Artifact,
    ArtifactStore,
    create_artifact,
    new_uuid,
    read_log,
    verify_integrity,
)
from .lineage import LineageGraph
from .memory import AgentJournal, InvestigationTracker, _atomic_write, slugify
from .mutator import MUTATIONS_FILE, MutationEvent, MutationPolicy, Mutator
from .needs import NeedItem, NeedsSignal, tokenize
from .reactor import (
    REACTIONS_FILE,
    ArtifactReactor,
    ConsumptionClaims,
    build_params,
    reaction_fields,
)
from .skills import (
    AgentProfile,
    SkillRegistry,
    allowed_types,
    default_registry,
    execute,
    load_profile,
    load_registry,
)

log = logging.getLogger(__name__)

TICK_SECONDS = 21600  # the six-hour daemon interval, simulated
HUMAN_ACTOR = "human"
MAX_CHAIN_LENGTH = 5

DOMAIN_KEYWORDS = {
    "literature": {"literature", "paper", "papers", "review", "survey", "citation"},
    "protein": {"protein", "peptide", "sequence", "receptor", "binding", "motif"},
    "chemistry": {"chemistry", "compound", "molecule", "drug", "smiles", "admet"},
    "materials": {"materials", "material", "ceramic", "crystal", "alloy", "density"},
}


def stable_hash(*parts: str) -> int:
    """Seedable, process-independent hash for stub ordering decisions."""
    material = "\x1f".join(parts).encode("utf-8")
    return int(hashlib.sha256(material).hexdigest()[:16], 16)


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeededTopic:
    cycle: int
    agent: str
    topic: str


@dataclass(frozen=True)
class Intervention:
    cycle: int
    agent: str  # the post author whose newest post receives the comment
    comment_type: str
    body: str


@dataclass
class Scenario:
    seed: int
    cycles: int
    agents: list
    registry: str = "default"
    seeded_topics: list = field(default_factory=list)
    interventions: list = field(default_factory=list)
    mutation_policy: dict = field(default_factory=dict)
    mutation_enabled: bool = True
    concurrent: bool = False
    community: str = "main"

    def validate(self) -> None:
        if self.cycles < 1:
            raise InvalidScenario("cycles must be >= 1")
        if not isinstance(self.seed, int):
            raise InvalidScenario("seed must be an integer")
        if not self.agents:
            raise InvalidScenario("at least one agent profile is required")
        names = [a["name"] for a in self.agents]
        if len(names) != len(set(names)):
            raise InvalidScenario("agent names must be unique")
        for topic in self.seeded_topics:
            if topic.agent not in names:
                raise InvalidScenario(f"seeded topic names unknown agent {topic.agent!r}")
            if not 0 <= topic.cycle < self.cycles:
                raise InvalidScenario(f"seeded topic cycle {topic.cycle} out of range")
        for act in self.interventions:
            if act.agent not in names:
                raise InvalidScenario(f"intervention names unknown agent {act.agent!r}")
            if act.comment_type not in ("chat", "redirect"):
                raise InvalidScenario("interventions must be chat or redirect")
            if not 0 <= act.cycle < self.cycles:
                raise InvalidScenario(f"intervention cycle {act.cycle} out of range")
        try:
            MutationPolicy(**self.mutation_policy)
        except (TypeError, ValueError) as exc:
            raise InvalidScenario(f"mutation_policy: {exc}") from None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "cycles": self.cycles,
            "agents": [dict(a) for a in self.agents],
            "registry": self.registry,
            "seeded_topics": [
                {"cycle": t.cycle, "agent": t.agent, "topic": t.topic}
                for t in self.seeded_topics
            ],
            "interventions": [
                {"cycle": i.cycle, "agent": i.agent,
                 "comment_type": i.comment_type, "body": i.body}
                for i in self.interventions
            ],
            "mutation_policy": dict(self.mutation_policy),
            "mutation_enabled": self.mutation_enabled,
            "concurrent": self.concurrent,
            "community": self.community,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """A validated scenario from its scenario-file form. A field that is
        missing without a default, of the wrong JSON type or unknown raises
        InvalidScenario."""
        fields = _fields(data, "scenario", {"seed": int, "cycles": int, "agents": list}, {
            "registry": "default", "seeded_topics": [], "interventions": [],
            "mutation_policy": {}, "mutation_enabled": True, "concurrent": False,
            "community": "main"})
        for agent in fields["agents"]:
            profile = _fields(agent, "agent", {"name": str},
                              {"preferred_tools": [], "research_interests": []})
            if any(not isinstance(v, str)
                   for v in profile["preferred_tools"] + profile["research_interests"]):
                raise InvalidScenario(f"agent {profile['name']!r}: preferred_tools and "
                                      f"research_interests must be lists of strings")
        topic = {"cycle": int, "agent": str, "topic": str}
        act = {"cycle": int, "agent": str, "comment_type": str, "body": str}
        fields.update(
            agents=list(fields["agents"]),
            seeded_topics=[SeededTopic(**_fields(t, "seeded topic", topic, {}))
                           for t in fields["seeded_topics"]],
            interventions=[Intervention(**_fields(i, "intervention", act, {}))
                           for i in fields["interventions"]],
            mutation_policy=dict(fields["mutation_policy"]),
        )
        scenario = cls(**fields)
        scenario.validate()
        return scenario

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except ValueError as exc:  # not UTF-8, or not JSON
                raise InvalidScenario(f"{path} is not a JSON file: {exc}") from None
        return cls.from_dict(data)


_JSON_TYPES = {int: "integer", str: "string", bool: "boolean", list: "array", dict: "object"}


def _fields(data, where: str, required: dict[str, type], optional: dict) -> dict:
    """The required and optional fields of a scenario-file object, each of
    its JSON type (an optional field's default gives its type), a missing
    optional one as its default; InvalidScenario for a missing required
    field, a field of another type, a field of no other name (a misspelt
    optional field would go unnoticed), or ``data`` not an object."""
    if not isinstance(data, dict):
        raise InvalidScenario(f"{where} must be a JSON object, not {type(data).__name__}")
    kinds = {**required, **{name: type(default) for name, default in optional.items()}}
    unknown = sorted(set(data) - set(kinds))
    if unknown:
        raise InvalidScenario(f"{where} has unknown field(s) {unknown}")
    fields = {}
    for name, kind in kinds.items():
        if name not in data and name not in optional:
            raise InvalidScenario(f"{where} has no {name!r}")
        value = fields[name] = data.get(name, optional.get(name))
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise InvalidScenario(f"{where} {name!r} must be a JSON {_JSON_TYPES[kind]}, "
                                  f"not {type(value).__name__} {value!r}")
    return fields


def demo_scenario() -> Scenario:
    """The bundled three-agent, five-cycle demo."""
    from importlib import resources

    text = resources.files("artifact.data").joinpath("demo_scenario.json").read_text("utf-8")
    return Scenario.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# World
# ---------------------------------------------------------------------------

class GapQueue:
    """One agent's open questions on peers' visible posts, in the agent's
    seeded hash order: the queue ``choose_gap`` takes its head from.

    It follows the ledger's visible posts with a cursor. Each post that
    joined since the last look, unless the agent wrote it or it belongs to
    another community, pushes one entry per open question, and so a question
    asked twice has two entries. An entry is one int, packed from the high
    bits down: the question's hash rank; ``LAST_PLACE`` minus the post's
    place in the visible posts, so that newer posts sort first; the
    question's place in its post. Equal ranks therefore go to the question
    that comes first in feed order, newest post first. An entry
    whose investigation the agent has started is popped only when it
    reaches the top: trackers only grow, and a post is hidden only when it
    is created, so no entry below the top can come back. Should a post
    join the feed anywhere but at its end, which a run's clock never makes
    happen, the places shift and the queue is rebuilt from the start.
    """

    QUESTION_BITS = 16  # questions past the first 2**16 of one post are not queued
    PLACE_BITS = 32
    LAST_PLACE = (1 << PLACE_BITS) - 1

    def __init__(self, agent: str, seed: int, community: str):
        self.agent = agent
        self.seed = str(seed)
        self.community = community
        self._cursor = 0
        self._reorders = 0
        self._heap: list[int] = []

    def _admit(self, posts: list[Post]) -> None:
        for place in range(self._cursor, len(posts)):
            post = posts[place]
            if post.author == self.agent or post.community != self.community:
                continue
            for number, question in enumerate(post.open_questions[:1 << self.QUESTION_BITS]):
                rank = stable_hash(self.seed, "gap", self.agent, question)
                from_newest = self.LAST_PLACE - place
                heapq.heappush(self._heap, (((rank << self.PLACE_BITS) | from_newest)
                                            << self.QUESTION_BITS) | number)
        self._cursor = len(posts)

    def head(self, governance: GovernanceLedger, started: Callable[[str], bool]) -> str | None:
        """The first queued question that ``started`` says is not started."""
        if governance.feed_reorders != self._reorders:
            self._reorders, self._cursor, self._heap = governance.feed_reorders, 0, []
        posts = governance.visible_posts()
        self._admit(posts)
        while self._heap:
            packed = self._heap[0]
            place = self.LAST_PLACE - ((packed >> self.QUESTION_BITS) & self.LAST_PLACE)
            question = posts[place].open_questions[packed & ((1 << self.QUESTION_BITS) - 1)]
            if not started(question):
                return question
            heapq.heappop(self._heap)
        return None


class AgentRuntime:
    """Everything one agent owns: stores, memory, reactor, mutator.

    ``world`` is a weak proxy of the World that owns this runtime, and the
    callbacks below look the World up through it on every call, so nothing
    the World owns refers back to it: a World the caller drops is freed at
    once, not at the cyclic collector's next full pass.
    """

    def __init__(self, profile: AgentProfile, world: "World"):
        self.profile = profile
        self.dir = world.out_dir / "agents" / profile.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.rng = random.Random(stable_hash(str(world.scenario.seed), "agent", profile.name))
        self.store = ArtifactStore.open_dir(self.dir)
        self.journal = AgentJournal(self.dir / AgentJournal.FILENAME, clock=world.clock)
        self.tracker = InvestigationTracker(self.journal)
        self.gaps = GapQueue(profile.name, world.scenario.seed, world.scenario.community)
        self.reactor = ArtifactReactor(
            profile=profile,
            registry=world.registry,
            index=world.index,
            graph=world.graph,
            emit=lambda **kwargs: world.emit(profile.name, **kwargs),
            data_dir=self.dir,
            clock=world.clock,
            rng=self.rng,
            claims=world.claims,
            payload_keys=world.payload_keys,
        )
        self.mutator = Mutator(
            agent_name=profile.name,
            graph=world.graph,
            emit=lambda **kwargs: world.emit(profile.name, **kwargs),
            policy=MutationPolicy(**world.scenario.mutation_policy),
            rng=random.Random(stable_hash(str(world.scenario.seed), "mutator", profile.name)),
            birth_cycles=world.birth_cycles,
            data_dir=self.dir,
        )


class World:
    """Shared state of a simulation: clock, index, graph, ledgers, agents."""

    def __init__(self, scenario: Scenario, out_dir: str | Path):
        scenario.validate()
        self.scenario = scenario
        self.out_dir = Path(out_dir)
        self.clock = ManualClock(current=EPOCH, step=timedelta(seconds=1))
        if scenario.registry == "default":
            self.registry = default_registry()
        else:
            self.registry = load_registry(scenario.registry)
        self.artifact_types = self.registry.artifact_types()
        # Profiles are read before anything is written: a scenario naming an
        # unknown skill leaves no output behind.
        self.profiles: dict[str, AgentProfile] = {}
        for raw in scenario.agents:
            profile = load_profile(raw, self.registry)
            self.profiles[profile.name] = profile
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.artifacts: dict[str, Artifact] = {}
        self.index = GlobalIndex(self.out_dir / GlobalIndex.FILENAME, self.resolve_id)
        self.graph = LineageGraph()
        self.claims = ConsumptionClaims()
        self.payload_keys: dict[str, frozenset] = {}
        self.governance = GovernanceLedger(
            self.out_dir / "governance.jsonl",
            clock=self.clock,
            resolve_ref=self.index.__contains__,
        )
        self.birth_cycles: dict[str, int] = {}
        self.current_cycle = 0
        self._question_slugs: dict[str, str] = {}
        # The first seeded topic of each (cycle, agent), as scenario order gives it.
        self.seeded_topics: dict[tuple[int, str], str] = {}
        for seeded in scenario.seeded_topics:
            self.seeded_topics.setdefault((seeded.cycle, seeded.agent), seeded.topic)
        self._gov_lock = threading.Lock()
        self._emit_lock = threading.Lock()

        self.governance.register_agent(HUMAN_ACTOR)
        for name in self.profiles:
            self.governance.register_agent(name)
        self.agents: dict[str, AgentRuntime] = {}
        for name, profile in self.profiles.items():
            self.agents[name] = AgentRuntime(profile, weakref.proxy(self))
        if scenario.mutation_enabled:
            for name in self.agents:
                self.agents[name].mutator.record_policy()
        self.commit(self.agents)

    # -- shared services ---------------------------------------------------

    def commit(self, agent_names) -> None:
        """Make durable what the named agents appended since their last
        commit, one fsync per touched file: every reactions log, then every
        store, then the index. A synced store line therefore never comes
        before the reaction line that consumed its inputs, nor a synced index
        entry before its record."""
        runtimes = [self.agents[name] for name in agent_names]
        for log in ([r.reactor.reactions for r in runtimes]
                    + [r.store.log for r in runtimes]
                    + [self.index.log]):
            log.sync()

    def close(self) -> None:
        """Close every append log the world holds open; a later append
        opens its file again."""
        logs = [self.index.log, self.governance.file]
        for runtime in self.agents.values():
            logs += [runtime.store.log, runtime.journal.file,
                     runtime.reactor.reactions, runtime.mutator.file]
        for log in logs:
            log.close()

    def resolve_id(self, artifact_id: str) -> Artifact:
        try:
            return self.artifacts[artifact_id]
        except KeyError:
            raise UnknownArtifact(f"artifact {artifact_id} is not published") from None

    def question_slug(self, question: str) -> str:
        """slugify(question), computed once per distinct question."""
        slug = self._question_slugs.get(question)
        if slug is None:
            slug = self._question_slugs[question] = slugify(question)
        return slug

    def emit(
        self,
        agent_name: str,
        artifact_type: str,
        skill: str,
        payload: Payload,
        parents: Sequence[str] = (),
        investigation_id: str = "",
        needs: NeedsSignal | None = None,
        fulfills: NeedKey | None = None,
        before_store: Callable[[Artifact], None] | None = None,
    ) -> Artifact:
        """Create and publish one artifact on an agent's behalf; the one
        place an artifact is made.

        Publishing goes store line, then resolvable (with its birth cycle),
        then graph, then index, so whoever meets the id in the graph or the
        index can resolve it; both hold the artifact itself. ``before_store``
        gets the new artifact before anything is written: a reaction appends
        its line there, ahead of its product's store line. ``fulfills`` is
        published with the artifact in the index.
        """
        runtime = self.agents[agent_name]
        with self._emit_lock:
            artifact = create_artifact(
                artifact_type=artifact_type,
                producer_agent=agent_name,
                skill=skill,
                payload=payload,
                parents=parents,
                investigation_id=investigation_id,
                needs=needs,
                clock=self.clock,
                known_types=self.artifact_types,
                id_factory=lambda: new_uuid(runtime.rng),
            )
            if before_store is not None:
                before_store(artifact)
            runtime.store.append(artifact)
            self.artifacts[artifact.artifact_id] = artifact
            self.birth_cycles[artifact.artifact_id] = self.current_cycle
            self.graph.insert(artifact)
            self.index.publish(artifact, fulfills)
        return artifact


# ---------------------------------------------------------------------------
# Heartbeat stubs
# ---------------------------------------------------------------------------

def _matched_domains(registry: SkillRegistry, tokens: set[str]) -> list[str]:
    matched = []
    for domain in registry.domains():
        keywords = {domain} | DOMAIN_KEYWORDS.get(domain, set())
        if tokens & keywords:
            matched.append(domain)
    return matched


def _unmatched_tokens(registry: SkillRegistry, tokens: set[str]) -> list[str]:
    known = set()
    for domain in registry.domains():
        known.add(domain)
        known.update(DOMAIN_KEYWORDS.get(domain, set()))
    return sorted(tokens - known)


def _registry_types_ordered(registry: SkillRegistry) -> list[str]:
    ordered: dict[str, None] = {}
    for manifest in registry.skills():
        ordered.setdefault(manifest.output_artifact_type, None)
    return list(ordered)


def select_chain(world: World, profile: AgentProfile, topic: str) -> list:
    """Deterministic stand-in for reasoned skill selection.

    One skill per domain the topic's tokens touch, in registry domain order,
    choosing the agent's first runnable skill of that domain; at most five.
    An unmatched topic falls back to the agent's first literature skill, or
    failing that its first skill of any kind.
    """
    registry = world.registry
    runnable = registry.skills_for(profile)
    tokens = tokenize(topic)
    chain = []
    for domain in _matched_domains(registry, tokens):
        manifest = next((m for m in runnable if m.domain == domain), None)
        if manifest is not None and manifest not in chain:
            chain.append(manifest)
        if len(chain) >= MAX_CHAIN_LENGTH:
            break
    if not chain and runnable:
        fallback = next((m for m in runnable if m.domain == "literature"), runnable[0])
        chain = [fallback]
    return chain


def derive_needs(world: World, profile: AgentProfile, topic: str) -> NeedsSignal | None:
    """Turn unmatched topic tokens into needs for types the agent cannot produce.

    The i-th unmatched token asks for the i-th foreign type in registry
    order, so a profile fully determines where its needs point.
    """
    registry = world.registry
    producible = {m.output_artifact_type for m in registry.skills_for(profile)}
    foreign = [t for t in _registry_types_ordered(registry) if t not in producible]
    if not foreign:
        return None
    items = []
    for i, token in enumerate(_unmatched_tokens(registry, tokenize(topic))[:2]):
        artifact_type = foreign[i % len(foreign)]
        items.append(NeedItem(
            artifact_type=artifact_type,
            query=f"{token} {topic}"[:80],
            rationale=(
                f"Investigation '{topic}' leaves '{token}' unresolved; "
                f"{artifact_type} data would close the gap."
            ),
        ))
    return NeedsSignal(items=tuple(items)) if items else None


def run_pipeline(world: World, agent_name: str, topic: str) -> dict:
    """Deterministic investigation chain: select, execute, chain, synthesize."""
    runtime = world.agents[agent_name]
    profile = runtime.profile
    slug = slugify(topic)
    investigation = runtime.tracker.create(topic)
    hypothesis = f"Investigating '{topic}' will surface cross-domain structure."
    runtime.tracker.add_hypothesis(slug, hypothesis)

    chain = select_chain(world, profile, topic)
    artifacts: list[Artifact] = []
    prev_payload: Payload = {}
    prev_id: str | None = None
    for manifest in chain:
        params = build_params(manifest, prev_payload) if prev_payload else {}
        params.setdefault("query", topic)
        if manifest.input_params:
            params.setdefault(manifest.input_params[0], topic)
        try:
            payload = execute(manifest, params, runtime.rng.randrange(2**32))
        except ArtifactError as exc:
            runtime.journal.log(
                "experiment", f"skill {manifest.name} skipped: {exc}",
                {"investigation": slug},
            )
            continue
        artifact = world.emit(
            agent_name,
            artifact_type=manifest.output_artifact_type,
            skill=manifest.name,
            payload=payload,
            parents=(prev_id,) if prev_id else (),
            investigation_id=slug,
        )
        runtime.tracker.add_result(slug, artifact.artifact_id, manifest.name)
        artifacts.append(artifact)
        prev_payload = payload
        prev_id = artifact.artifact_id

    merged: Payload = {"topic": topic}
    for artifact in artifacts:
        merged.update(artifact.payload)
    needs = derive_needs(world, profile, topic)
    synthesis = world.emit(
        agent_name,
        artifact_type="synthesis",
        skill="synthesize",
        payload=merged,
        parents=(prev_id,) if prev_id else (),
        investigation_id=slug,
        needs=needs,
    )
    artifacts.append(synthesis)
    conclusion = f"Chain of {len(chain)} skill(s) synthesized for '{topic}'."
    runtime.journal.log("conclusion", conclusion, {"investigation": slug})
    if investigation.status == "active":  # re-runs resume a completed slug
        runtime.tracker.mark_complete(slug)

    unmatched = _unmatched_tokens(world.registry, tokenize(topic))[:2]
    return {
        "topic": topic,
        "investigation": slug,
        "chain": [m.name for m in chain],
        "artifacts": artifacts,
        "synthesis": synthesis,
        "open_questions": [f"What is the role of {tok} in {topic}?" for tok in unmatched],
    }


def choose_gap(world: World, agent_name: str) -> str | None:
    """The open question on a peer's visible post that the agent takes up next.

    Of the questions in the feed whose investigation the agent has not
    started, the one that comes first in the agent's seeded hash order; ties
    (equal hashes) go to the question seen first in feed order. The agent's
    ``GapQueue`` keeps that order across heartbeats, so a call hashes only
    the questions posted since the last. Call it under the world's
    governance lock.
    """
    runtime = world.agents[agent_name]
    tracker = runtime.tracker
    return runtime.gaps.head(world.governance,
                             lambda question: world.question_slug(question) in tracker)


def heartbeat(world: World, agent_name: str, cycle: int) -> dict:
    """One autonomous cycle: observe, drain interventions, pick a topic,
    investigate, publish, engage, react, mutate."""
    runtime = world.agents[agent_name]
    scenario = world.scenario
    report = {
        "agent": agent_name,
        "cycle": cycle,
        "topic": None,
        "post": None,
        "upvoted": None,
        "artifacts": [],
        "reactions": [],
        "mutations": [],
    }

    with world._gov_lock:
        feed = world.governance.feed(community=scenario.community)
    runtime.journal.log("observation", f"observed {len(feed)} posts on the feed")

    redirects: list[str] = []
    with world._gov_lock:
        pending = world.governance.pending_interventions(agent_name)
        for comment in pending:
            if comment.comment_type == "redirect" and comment.redirect_subquestion:
                redirects.append(comment.redirect_subquestion)
            runtime.journal.log(
                "observation",
                f"{comment.comment_type} from {comment.author}: {comment.body}",
                {"comment": comment.id},
            )
            world.governance.mark_intervention_read(comment.id)

    # The topic queue is redirects, then seeded topics, then gaps; only its
    # head is used, so gaps are looked at only when nothing comes before them.
    seeded = world.seeded_topics.get((cycle, agent_name))
    if redirects:
        topic = redirects[0]
    elif seeded is not None:
        topic = seeded
    else:
        with world._gov_lock:
            topic = choose_gap(world, agent_name)
    report["topic"] = topic

    if topic is not None:
        try:
            outcome = run_pipeline(world, agent_name, topic)
        except Exception as exc:  # a failed step never kills the cycle
            log.exception("pipeline failed for %s on %r", agent_name, topic)
            runtime.journal.log("observation", f"pipeline failed: {exc}")
            outcome = None
        if outcome is not None:
            report["artifacts"] = [a.artifact_id for a in outcome["artifacts"]]
            refs = [
                ArtifactRef(
                    artifact_id=a.artifact_id,
                    artifact_type=a.artifact_type,
                    skill=a.skill,
                    producer_agent=a.producer_agent,
                    parent_artifact_ids=a.parent_artifact_ids,
                )
                for a in outcome["artifacts"]
            ]
            try:
                with world._gov_lock:
                    post = world.governance.create_post(
                        author=agent_name,
                        title=f"Findings: {topic}"[:120],
                        content=f"Deterministic investigation of '{topic}'.",
                        community=scenario.community,
                        hypothesis=f"Investigating '{topic}' will surface "
                                   f"cross-domain structure.",
                        method=" -> ".join(outcome["chain"]) or "synthesize",
                        findings=f"synthesis artifact {outcome['synthesis'].artifact_id}",
                        data_sources=[a.artifact_id for a in outcome["artifacts"]],
                        open_questions=outcome["open_questions"],
                        tools_used=outcome["chain"],
                        artifact_refs=refs,
                    )
                report["post"] = post.id
            except (RateLimited, ArtifactError) as exc:
                runtime.journal.log("observation", f"post deferred: {exc}")

    with world._gov_lock:
        # The feed is newest-first: the target is the newest peer post.
        target = next((p for p in feed if p.author not in (agent_name, HUMAN_ACTOR)), None)
        if target is not None:
            try:
                world.governance.apply_vote(agent_name, target.id, 1)
                report["upvoted"] = target.id
            except (RateLimited, ArtifactError) as exc:
                runtime.journal.log("observation", f"vote deferred: {exc}")

    records = runtime.reactor.react(limit=3)
    report["reactions"] = [
        {"kind": r.kind, "produced": r.produced_id, "skill": r.skill}
        for r in records
    ]

    if scenario.mutation_enabled:
        try:
            events = runtime.mutator.mutate_cycle(cycle)
            runtime.mutator.drift_policy()
            report["mutations"] = [e.to_dict() for e in events]
        except Exception as exc:
            log.exception("mutation step failed for %s", agent_name)
            runtime.journal.log("observation", f"mutation step failed: {exc}")

    return report


# ---------------------------------------------------------------------------
# Running scenarios
# ---------------------------------------------------------------------------

@dataclass
class SimulationReport:
    scenario: dict
    cycles: list
    dag_metrics: dict
    per_agent_artifacts: dict
    need_latencies: dict
    mean_need_latency_seconds: float | None
    posts: int
    reactions: int
    mutations: int

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "cycles": self.cycles,
            "dag_metrics": self.dag_metrics,
            "per_agent_artifacts": self.per_agent_artifacts,
            "need_latencies": self.need_latencies,
            "mean_need_latency_seconds": self.mean_need_latency_seconds,
            "posts": self.posts,
            "reactions": self.reactions,
            "mutations": self.mutations,
        }


def _apply_interventions(world: World, cycle: int) -> list[dict]:
    applied = []
    for act in world.scenario.interventions:
        if act.cycle != cycle:
            continue
        candidates = [
            p for p in world.governance.posts.values() if p.author == act.agent
        ]
        candidates.sort(key=lambda p: (p.created, p.id))
        outcome = {"agent": act.agent, "comment_type": act.comment_type,
                   "body": act.body, "applied": False}
        if candidates:
            world.clock.advance(seconds=21)  # respect comment spacing
            target = candidates[-1]
            world.governance.create_comment(
                author=HUMAN_ACTOR,
                post_id=target.id,
                body=act.body,
                comment_type=act.comment_type,
                redirect_subquestion=act.body if act.comment_type == "redirect" else None,
            )
            outcome["applied"] = True
            outcome["post"] = target.id
        applied.append(outcome)
    return applied


def need_latencies(index: GlobalIndex) -> dict[str, float]:
    """Seconds from a need's broadcast to each recorded fulfillment."""
    artifacts = index.entries()
    created = {artifact.artifact_id: artifact.timestamp for artifact in artifacts}
    latencies: dict[str, float] = {}
    for artifact in artifacts:
        key = index.fulfilled_key(artifact.artifact_id)
        if key is None:
            continue
        born = created.get(key.artifact_id)
        if born is None:
            continue
        delta = parse_timestamp(artifact.timestamp) - parse_timestamp(born)
        latencies[key.text] = delta.total_seconds()
    return latencies


def run(scenario: Scenario, out_dir: str | Path) -> tuple[World, SimulationReport]:
    """Execute a scenario and write stores, index, ledgers, and report.json.

    ``out_dir`` must be missing or an empty directory: a run never writes
    over part of an earlier one.
    """
    out = Path(out_dir)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise ArtifactError(f"output directory {out} exists and is not empty")
    world = World(scenario, out_dir)
    try:
        return world, _run_cycles(world)
    finally:
        world.close()


def _run_cycles(world: World) -> SimulationReport:
    """Every cycle of the world's scenario, then report.json."""
    scenario = world.scenario
    cycle_reports = []
    for cycle in range(scenario.cycles):
        world.current_cycle = cycle
        world.clock.advance(seconds=TICK_SECONDS)
        interventions = _apply_interventions(world, cycle)
        agent_reports: dict[str, dict] = {}
        if scenario.concurrent:
            threads = []
            results: dict[str, dict] = {}

            def _run(name: str) -> None:
                results[name] = heartbeat(world, name, cycle)

            for name in world.agents:
                thread = threading.Thread(target=_run, args=(name,))
                threads.append(thread)
                thread.start()
            for thread in threads:
                thread.join()
            # The cycle's heartbeats end together, so they commit together.
            world.commit(world.agents)
            agent_reports = {name: results[name] for name in world.agents}
        else:
            for name in world.agents:
                agent_reports[name] = heartbeat(world, name, cycle)
                world.commit([name])
        cycle_reports.append({
            "cycle": cycle,
            "interventions": interventions,
            "agents": agent_reports,
        })

    metrics = world.graph.metrics()
    latencies = need_latencies(world.index)
    mean_latency = (
        sum(latencies.values()) / len(latencies) if latencies else None
    )
    report = SimulationReport(
        scenario=scenario.to_dict(),
        cycles=cycle_reports,
        dag_metrics=metrics.to_dict(),
        per_agent_artifacts=dict(metrics.per_agent),
        need_latencies=dict(sorted(latencies.items())),
        mean_need_latency_seconds=mean_latency,
        posts=len(world.governance.posts),
        reactions=sum(
            len(world.agents[name].reactor.reaction_log) for name in world.agents
        ),
        mutations=sum(
            len(world.agents[name].mutator.events) for name in world.agents
        ),
    )
    _atomic_write(world.out_dir / "report.json", canonicalize(report.to_dict()) + b"\n")
    return report


# ---------------------------------------------------------------------------
# Rebuilding and exporting
# ---------------------------------------------------------------------------

def _agent_dirs(out: Path) -> list[Path]:
    return sorted((out / "agents").iterdir()) if (out / "agents").exists() else []


def load_world_dag(out_dir: str | Path) -> tuple[LineageGraph, dict, list]:
    """Rebuild the lineage graph (with graft overlays) from an output dir.

    Returns the graph, the stored artifacts by id, and every agent's
    mutation events as (agent, line number, event); a damaged store or
    mutation line raises CorruptStore, and so does a store record that
    another agent produced or that an earlier store holds too. Grafts
    replay in ``seq`` order, the order the live graph applied them; a graft
    line without one replays after those, by cycle, agent and line.
    """
    out = Path(out_dir)
    artifacts: dict[str, Artifact] = {}
    for agent_dir in _agent_dirs(out):
        store = ArtifactStore.open_dir(agent_dir)
        # A store holds one record per line, so a record's place is its line.
        for number, artifact in enumerate(store.records(), start=1):
            held = artifacts.get(artifact.artifact_id)
            if held is not None:
                raise CorruptStore(str(store.path), number, f"artifact {artifact.artifact_id} "
                                   f"is in the store of {held.producer_agent} too")
            if artifact.producer_agent != agent_dir.name:
                raise CorruptStore(str(store.path), number, f"artifact {artifact.artifact_id} "
                                   f"was produced by {artifact.producer_agent}")
            artifacts[artifact.artifact_id] = artifact
    graph = LineageGraph()
    for artifact in sorted(artifacts.values(), key=lambda a: (a.timestamp, a.artifact_id)):
        graph.insert(artifact)
    events = [(agent_dir.name, number, event)
              for agent_dir in _agent_dirs(out)
              for number, event in read_log(agent_dir / MUTATIONS_FILE, MutationEvent.from_dict)]
    grafts = [(event.seq is None, event.seq or 0, event.cycle, agent, number, event)
              for agent, number, event in events if event.kind == "graft"]
    for *_, event in sorted(grafts, key=lambda g: g[:5]):
        graph.set_parents(event.inputs[0], (event.new_parent,))
    return graph, artifacts, events


def export_dag(graph: LineageGraph, fmt: str) -> str:
    if fmt == "graph-text":
        return graph.to_dot()
    if fmt == "structured-dump":
        return canonicalize(graph.to_dump()).decode("utf-8") + "\n"
    raise InvalidFormat(f"unknown export format {fmt!r}; "
                        f"use graph-text or structured-dump")


# ---------------------------------------------------------------------------
# Invariant verification
# ---------------------------------------------------------------------------

def _read_report(path: Path) -> tuple[float, int, dict[str, set[str]]]:
    """A report.json's avg_dag_depth and artifact_count, and the artifact
    types each agent of its scenario may consume."""
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    metrics = report["dag_metrics"]
    depth, count = metrics["avg_dag_depth"], metrics["artifact_count"]
    if not (isinstance(depth, (int, float)) and isinstance(count, int)):
        raise ValueError("dag_metrics needs a numeric avg_dag_depth and an integer artifact_count")
    scenario = Scenario.from_dict(report["scenario"])
    registry = default_registry() if scenario.registry == "default" \
        else load_registry(scenario.registry)
    allowed = {}
    for raw in scenario.agents:
        profile = load_profile(raw, registry)
        allowed[profile.name] = allowed_types(profile, registry)
    return depth, count, allowed


def verify_output(out_dir: str | Path) -> list[str]:
    """Re-check the core invariants from the files a run left behind.

    Returns a list of violation descriptions; empty means all checks passed.
    When the lineage cannot be rebuilt at all (a damaged store or mutation
    log line, a store line repeating an artifact id or holding another
    agent's artifact, or a graft that names a missing node or would close a
    cycle), that is the one violation returned, since every other check
    reads the rebuilt lineage. A missing or unreadable report.json (bad
    JSON, metrics missing or not numbers, a scenario missing or naming an
    unknown skill) and a damaged reactions.jsonl or index.jsonl line are
    one violation each, and the checks go on with what is left: every
    reaction's product stored by the reacting agent, no artifact consumed
    twice, no need key fulfilled twice, none of an agent's own artifacts
    consumed, every consumed type within the agent's domain, every merge
    and fork line's inputs stored and its outputs stored by the agent that
    logged it, no merge repeating the input set of another, no graft
    repeating the seq of another, and an index that lists each stored
    artifact once under its producer, with no need key fulfilled twice in
    it and none its carrier never broadcast.
    """
    out = Path(out_dir)
    violations: list[str] = []
    try:
        graph, artifacts, events = load_world_dag(out)
    except (CorruptStore, CycleRejected, DanglingParent, UnknownArtifact) as exc:
        return [f"lineage cannot be rebuilt: {type(exc).__name__}: {exc}"]

    if not graph.is_acyclic():
        violations.append("lineage graph contains a cycle")

    for artifact in artifacts.values():
        if not verify_integrity(artifact):
            violations.append(f"hash mismatch for artifact {artifact.artifact_id}")

    merged_by: dict[frozenset, str] = {}
    grafted_by: dict[int, str] = {}
    for agent, number, event in events:
        if event.kind == "graft":
            # The graph numbers each graft once, so a seq on two lines is a
            # line repeated or copied from another agent's log.
            if event.seq in grafted_by:
                violations.append(f"{agent} {MUTATIONS_FILE} line {number}: graft seq "
                                  f"{event.seq} repeats a graft of {grafted_by[event.seq]}")
            elif event.seq is not None:
                grafted_by[event.seq] = agent
            continue
        violations += _mutation_line_violations(agent, number, event, artifacts)
        if event.kind != "merge":
            continue
        inputs = frozenset(event.inputs)
        if inputs in merged_by:
            violations.append(
                f"merge repeats an input set {sorted(inputs)} "
                f"({merged_by[inputs]} and {agent})"
            )
        merged_by[inputs] = agent

    report_path = out / "report.json"
    allowed: dict[str, set[str]] = {}
    try:
        reported_depth, reported_count, allowed = _read_report(report_path)
    except (OSError, ValueError, KeyError, TypeError, ArtifactError) as exc:
        violations.append(f"{report_path}: unreadable report: {exc!r}")
    else:
        recomputed = graph.metrics()
        if abs(recomputed.avg_dag_depth - reported_depth) > 1e-9:
            violations.append(
                f"avg_dag_depth mismatch: reported {reported_depth}, "
                f"recomputed {recomputed.avg_dag_depth}"
            )
        if recomputed.artifact_count != reported_count:
            violations.append("artifact_count mismatch between report and stores")

    def damaged_reaction(error: CorruptStore) -> None:
        violations.append(f"{error.path} line {error.line_number}: "
                          f"unparseable reaction: {error.reason}")

    consumed_by: dict[str, str] = {}
    fulfilled_by: dict[str, str] = {}
    for agent_dir in _agent_dirs(out):
        agent = agent_dir.name
        for _, (consumed_ids, fulfilled, produced) in read_log(
                agent_dir / REACTIONS_FILE, reaction_fields, damaged_reaction):
            product = artifacts.get(produced)
            if product is None:
                violations.append(f"{agent} reaction product {produced} is in no store")
            elif product.producer_agent != agent:
                violations.append(
                    f"{agent} reaction product {produced} was produced by "
                    f"{product.producer_agent}"
                )
            if fulfilled is not None:
                if fulfilled in fulfilled_by:
                    violations.append(
                        f"need key {fulfilled} fulfilled twice "
                        f"({fulfilled_by[fulfilled]} and {agent})"
                    )
                fulfilled_by[fulfilled] = agent
            for consumed in consumed_ids:
                if consumed in consumed_by:
                    violations.append(
                        f"artifact {consumed} consumed twice "
                        f"({consumed_by[consumed]} and {agent})"
                    )
                consumed_by[consumed] = agent
                producer = artifacts.get(consumed)
                if producer is None:
                    continue
                if producer.producer_agent == agent:
                    violations.append(
                        f"{agent} consumed its own artifact {consumed}"
                    )
                if agent in allowed and producer.artifact_type not in allowed[agent]:
                    violations.append(
                        f"{agent} consumed out-of-domain type "
                        f"{producer.artifact_type} ({consumed})"
                    )
    violations += _index_violations(out / GlobalIndex.FILENAME, artifacts)
    return violations


def _mutation_line_violations(agent: str, number: int, event: MutationEvent,
                              artifacts: dict[str, Artifact]) -> list[str]:
    """What a merge or fork line of an agent's mutations.jsonl gets wrong
    against the stores: an input no store holds, or an output that is not a
    stored artifact of that agent."""
    where = f"{agent} {MUTATIONS_FILE} line {number}: {event.kind}"
    violations = [f"{where} input {input_id} is in no store"
                  for input_id in event.inputs if input_id not in artifacts]
    for output_id in event.outputs:
        output = artifacts.get(output_id)
        if output is None:
            violations.append(f"{where} output {output_id} is in no store")
        elif output.producer_agent != agent:
            violations.append(f"{where} output {output_id} was produced by "
                              f"{output.producer_agent}")
    return violations


def _broadcast(carrier: Artifact | None, key: NeedKey) -> bool:
    """True iff the carrier's needs hold the key's need index and variant."""
    if carrier is None or carrier.needs is None:
        return False
    items = carrier.needs.items
    return 0 <= key.need_index < len(items) and key.variant_id in variant_ids(items[key.need_index])


def _index_violations(path: Path, artifacts: dict[str, Artifact]) -> list[str]:
    """What ``index.jsonl`` gets wrong against the stores: a damaged line, an
    id no store holds or held by another producer, a stored artifact listed
    twice or never, a need key its carrier never broadcast or fulfilled
    twice."""
    violations: list[str] = []

    def damaged(error: CorruptStore) -> None:
        violations.append(f"{error.path} line {error.line_number}: "
                          f"unparseable index entry: {error.reason}")

    listed: set[str] = set()
    fulfilled: set[NeedKey] = set()
    for number, (artifact_id, producer, fulfills) in read_log(path, index_fields, damaged):
        where = f"{path} line {number}"
        artifact = artifacts.get(artifact_id)
        if artifact is None:
            violations.append(f"{where}: index entry {artifact_id} is in no store")
        elif artifact.producer_agent != producer:
            violations.append(f"{where}: index entry {artifact_id} names producer {producer}, "
                              f"its record {artifact.producer_agent}")
        if artifact_id in listed:
            violations.append(f"{where}: artifact {artifact_id} is in the index twice")
        listed.add(artifact_id)
        if fulfills is None:
            continue
        if fulfills in fulfilled:
            violations.append(f"{where}: need key {fulfills.text} fulfilled twice in the index")
        fulfilled.add(fulfills)
        if not _broadcast(artifacts.get(fulfills.artifact_id), fulfills):
            violations.append(f"{where}: need key {fulfills.text} was never broadcast")
    violations += [f"stored artifact {artifact_id} is not in the index"
                   for artifact_id in artifacts if artifact_id not in listed]
    return violations
