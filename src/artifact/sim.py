"""Heartbeat-cycle simulator over multiple agents with deterministic skills.

A scenario pins the seed, the agent profiles, seeded topics, and scripted
interventions; a run is then fully reproducible: identical seeds yield
byte-identical stores, index, and report. Everything the paper delegates to
an LLM (topic analysis, gap scoring, engagement choice) is replaced by a
seeded deterministic stub that preserves the control flow. The run
directory's layout, and every read of a finished run, are ``rundir``'s.
"""

from __future__ import annotations

import hashlib
import heapq
import logging
import random
import threading
import weakref
from dataclasses import asdict
from datetime import timedelta
from pathlib import Path
from typing import Callable, Container, Sequence

from .canonical import Payload, canonicalize
from .clock import EPOCH, ManualClock
from .errors import (ArtifactError, DuplicateArtifact, InvalidFormat, RateLimited,
                     UnknownArtifact)
from .governance import GovernanceLedger, Post
from .index import GlobalIndex, NeedKey
from .ledger import Artifact, ArtifactStore, create_artifact, new_uuid
from .lineage import LineageGraph
from .memory import AgentJournal, InvestigationTracker, _atomic_write, slugify
from .mutator import MutationPolicy, Mutator
from .needs import NeedItem, NeedsSignal, tokenize
from .reactor import ArtifactReactor, ConsumptionClaims, build_params
# The audit and the scenario are named here too, for callers that name them in sim.
from .rundir import (RunDir, SimulationReport, load_world_dag, mean_latency,  # noqa: F401
                     need_latencies, verify_output)
from .scenario import Scenario, demo_scenario  # noqa: F401
from .skills import AgentProfile, SkillRegistry, execute

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
    is created, so no entry below the top can come back. A post joins the
    feed only at its end, so a post's place never shifts.

    The queue is bounded by the heartbeats its agent has left. A heartbeat
    starts at most one investigation (a redirect, a seeded topic or this
    queue's head), so with R heartbeats left, this one included, at most
    R - 1 slugs are started before the agent's last ``head`` of the run.
    An entry behind the first entries of R distinct unstarted slugs
    therefore never reaches the top with its slug unstarted: every slug
    ahead of it must be started first, its own among them when it is one
    of the R, and entries of one slug go stale together, while later posts
    only push entries further down. Once the heap has doubled since its
    last trim, ``head`` drops those entries and the entries of started
    slugs; ranks and ties are unchanged.
    """

    QUESTION_BITS = 16  # questions past the first 2**16 of one post are not queued
    PLACE_BITS = 32
    LAST_PLACE = (1 << PLACE_BITS) - 1

    def __init__(self, agent: str, seed: int, community: str, cycles: int):
        self.agent = agent
        self.seed = str(seed)
        self.community = community
        self.cycles = cycles
        self._cursor = 0
        self._heap: list[int] = []
        self._trimmed = 0  # the heap's size after its last trim

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

    def _question(self, posts: list[Post], packed: int) -> str:
        place = self.LAST_PLACE - ((packed >> self.QUESTION_BITS) & self.LAST_PLACE)
        return posts[place].open_questions[packed & ((1 << self.QUESTION_BITS) - 1)]

    def _trim(self, posts: list[Post], slug: Callable[[str], str],
              started: Container[str], left: int) -> None:
        """Keep the entries of unstarted slugs, in queue order, up to the
        first entry of the ``left``-th distinct one."""
        kept: list[int] = []
        slugs: set[str] = set()
        for packed in sorted(self._heap):
            question_slug = slug(self._question(posts, packed))
            if question_slug in started:
                continue
            if question_slug not in slugs:
                if len(slugs) == left:
                    break
                slugs.add(question_slug)
            kept.append(packed)
        self._heap = kept  # a sorted list is a heap
        self._trimmed = len(kept)

    def head(self, governance: GovernanceLedger, slug: Callable[[str], str],
             started: Container[str], cycle: int) -> str | None:
        """The first queued question whose slug is not in ``started``, at
        ``cycle`` of the run's ``cycles``."""
        posts = governance.visible_posts()
        self._admit(posts)
        if len(self._heap) > 2 * self._trimmed:
            self._trim(posts, slug, started, self.cycles - cycle)
        while self._heap:
            question = self._question(posts, self._heap[0])
            if slug(question) not in started:
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
        files = world.run_dir.agent(profile.name)
        self.rng = random.Random(stable_hash(str(world.scenario.seed), "agent", profile.name))
        self.store = ArtifactStore(files.store)
        self.journal = AgentJournal(files.journal, clock=world.clock)
        self.tracker = InvestigationTracker(self.journal)
        self.gaps = GapQueue(profile.name, world.scenario.seed, world.scenario.community,
                             world.scenario.cycles)
        self.reactor = ArtifactReactor(
            profile=profile,
            registry=world.registry,
            index=world.index,
            graph=world.graph,
            emit=lambda **kwargs: world.emit(profile.name, **kwargs),
            reactions_path=files.reactions,
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
            path=files.mutations,
        )


class World:
    """Shared state of a simulation: clock, index, graph, ledgers, agents."""

    def __init__(self, scenario: Scenario, out_dir: str | Path):
        scenario.validate()
        self.scenario = scenario
        self.run_dir = RunDir(out_dir)
        self.clock = ManualClock(current=EPOCH, step=timedelta(seconds=1))
        # Profiles are read before anything is written: a scenario naming an
        # unknown skill leaves no output behind.
        self.registry, self.profiles = scenario.load_profiles()
        self.artifact_types = self.registry.artifact_types()
        # The graph holds each artifact, and resolves ids for the index.
        self.graph = LineageGraph()
        self.index = GlobalIndex(self.run_dir.index, self.resolve_id)
        self.claims = ConsumptionClaims()
        self.payload_keys: dict[str, frozenset] = {}
        self.governance = GovernanceLedger(
            self.run_dir.governance,
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

    def resolve_id(self, artifact_id: str) -> Artifact | None:
        """The published artifact of an id, as the lineage graph holds it,
        or None."""
        try:
            return self.graph.node(artifact_id)
        except UnknownArtifact:
            return None

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

        An id the graph holds already raises DuplicateArtifact before
        anything is written. Publishing then goes store line, birth cycle,
        graph, index: the graph's node is what ``resolve_id`` finds, so
        whoever meets the id in the index can resolve it, and the graph and
        the index hold the artifact itself. ``before_store`` gets the new
        artifact before anything is written: a reaction appends its line
        there, ahead of its product's store line. ``fulfills`` is published
        with the artifact in the index.
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
            if artifact.artifact_id in self.graph:
                raise DuplicateArtifact(f"artifact {artifact.artifact_id} already published")
            if before_store is not None:
                before_store(artifact)
            runtime.store.append(artifact)
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
        "chain": [m.name for m in chain],
        "artifacts": artifacts,
        "synthesis": synthesis,
        "open_questions": [f"What is the role of {tok} in {topic}?" for tok in unmatched],
    }


def choose_gap(world: World, agent_name: str, cycle: int) -> str | None:
    """The open question on a peer's visible post that the agent takes up next.

    Of the questions in the feed whose investigation the agent has not
    started, the one that comes first in the agent's seeded hash order; ties
    (equal hashes) go to the question seen first in feed order. The agent's
    ``GapQueue`` keeps that order across heartbeats, so a call hashes only
    the questions posted since the last, and keeps only the questions the
    heartbeats from ``cycle`` on can still reach. Call it once per
    heartbeat, under the world's governance lock.
    """
    runtime = world.agents[agent_name]
    return runtime.gaps.head(world.governance, world.question_slug, runtime.tracker, cycle)


def heartbeat(world: World, agent_name: str, cycle: int) -> None:
    """One autonomous cycle: observe, drain interventions, pick a topic,
    investigate, publish, engage, react, mutate."""
    runtime = world.agents[agent_name]
    scenario = world.scenario

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
            topic = choose_gap(world, agent_name, cycle)

    if topic is not None:
        try:
            outcome = run_pipeline(world, agent_name, topic)
        except Exception as exc:  # a failed step never kills the cycle
            log.exception("pipeline failed for %s on %r", agent_name, topic)
            runtime.journal.log("observation", f"pipeline failed: {exc}")
            outcome = None
        if outcome is not None:
            try:
                with world._gov_lock:
                    world.governance.create_post(
                        author=agent_name,
                        title=f"Findings: {topic}"[:120],
                        content=f"Deterministic investigation of '{topic}'.",
                        community=scenario.community,
                        hypothesis=f"Investigating '{topic}' will surface "
                                   f"cross-domain structure.",
                        method=" -> ".join(outcome["chain"]) or "synthesize",
                        findings=f"synthesis artifact {outcome['synthesis'].artifact_id}",
                        open_questions=outcome["open_questions"],
                        tools_used=outcome["chain"],
                        artifact_refs=[a.artifact_id for a in outcome["artifacts"]],
                    )
            except (RateLimited, ArtifactError) as exc:
                runtime.journal.log("observation", f"post deferred: {exc}")

    with world._gov_lock:
        # The feed is newest-first: the target is the newest peer post.
        target = next((p for p in feed if p.author not in (agent_name, HUMAN_ACTOR)), None)
        if target is not None:
            try:
                world.governance.apply_vote(agent_name, target.id, 1)
            except (RateLimited, ArtifactError) as exc:
                runtime.journal.log("observation", f"vote deferred: {exc}")

    runtime.reactor.react(limit=3)

    if scenario.mutation_enabled:
        try:
            runtime.mutator.mutate_cycle(cycle)
            runtime.mutator.drift_policy()
        except Exception as exc:
            log.exception("mutation step failed for %s", agent_name)
            runtime.journal.log("observation", f"mutation step failed: {exc}")


# ---------------------------------------------------------------------------
# Running scenarios
# ---------------------------------------------------------------------------

def _apply_interventions(world: World, cycle: int) -> None:
    """Post each of the cycle's interventions as the human's comment on its
    agent's newest post; one whose agent has no post yet is dropped."""
    for act in world.scenario.interventions:
        if act.cycle != cycle:
            continue
        candidates = [
            p for p in world.governance.posts.values() if p.author == act.agent
        ]
        if not candidates:
            continue
        world.clock.advance(seconds=21)  # respect comment spacing
        world.governance.create_comment(
            author=HUMAN_ACTOR,
            post=max(candidates, key=lambda p: (p.created, p.id)).id,
            body=act.body,
            comment_type=act.comment_type,
            redirect_subquestion=act.body if act.comment_type == "redirect" else None,
            parent_comment=None,
        )


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
    """Every cycle of the world's scenario, then report.json. A heartbeat
    that raises ends the run with its own exception, and what it appended
    is not committed."""
    scenario = world.scenario
    for cycle in range(scenario.cycles):
        world.current_cycle = cycle
        world.clock.advance(seconds=TICK_SECONDS)
        _apply_interventions(world, cycle)
        if scenario.concurrent:
            # Imported here, so that a sequential run's start-up never pays
            # for it. Leaving the pool waits for every heartbeat; a failed
            # one then raises its own exception, the first in agent order.
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=len(world.agents)) as pool:
                beats = [pool.submit(heartbeat, world, name, cycle) for name in world.agents]
            for beat in beats:
                beat.result()
            # The cycle's heartbeats end together, so they commit together.
            world.commit(world.agents)
        else:
            for name in world.agents:
                heartbeat(world, name, cycle)
                world.commit([name])

    index = world.index
    latencies = need_latencies(((artifact, index.fulfilled_key(artifact.artifact_id))
                                for artifact in index.entries()), world.resolve_id)
    report = SimulationReport(
        scenario=scenario.to_dict(),
        dag_metrics=world.graph.metrics().to_dict(),
        need_latencies=latencies,
        mean_need_latency_seconds=mean_latency(latencies),
        posts=len(world.governance.posts),
        reactions=sum(runtime.reactor.reaction_count for runtime in world.agents.values()),
        mutations=sum(runtime.mutator.event_count for runtime in world.agents.values()),
    )
    _atomic_write(world.run_dir.report, canonicalize(asdict(report)) + b"\n")
    return report


# ---------------------------------------------------------------------------
# Exporting
# ---------------------------------------------------------------------------

def export_dag(graph: LineageGraph, fmt: str) -> str:
    if fmt == "graph-text":
        return graph.to_dot()
    if fmt == "structured-dump":
        return canonicalize(graph.to_dump()).decode("utf-8") + "\n"
    raise InvalidFormat(f"unknown export format {fmt!r}; "
                        f"use graph-text or structured-dump")
