"""The run directory: its file layout, and every read of a finished run.

``RunDir`` names each file a run writes; the simulator opens every file at
the path it gives, and no other module spells a file name. The reader below
rebuilds a finished run from those files and audits it (``verify_output``,
whose docstring gives the damage rule). ``read_store`` is the one reader of
a store: it hands each record to its caller, refusing an id the caller
already holds. ``inspect`` keeps the whole ``Artifact``, and is the one
reader that returns payloads. ``load_world_dag`` keeps a payload-free
``LineageRecord`` per artifact, and hashes each payload as its record is
read, so a run's lineage is rebuilt without holding its payloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from .canonical import known_fields
from .clock import parse_timestamp
from .errors import ArtifactError, CorruptStore, CycleRejected, DanglingParent, UnknownArtifact
from .governance import event_op
from .index import NeedKey, read_index, variant_ids
from .ledger import Artifact, read_log, scan_order, verify_integrity
from .lineage import DagMetrics, LineageGraph
from .mutator import MutationEvent
from .needs import NeedsSignal
from .reactor import reaction_fields
from .scenario import Scenario
from .skills import allowed_types


@dataclass(frozen=True)
class AgentFiles:
    """The files of one agent's directory."""

    store: Path
    reactions: Path
    mutations: Path
    journal: Path


class RunDir:
    """The paths of one run directory: ``index.jsonl``, ``governance.jsonl``,
    ``report.json``, and ``agents/<name>/`` with each agent's files."""

    def __init__(self, root: str | Path):
        root = Path(root)
        self.index = root / "index.jsonl"
        self.governance = root / "governance.jsonl"
        self.report = root / "report.json"
        self._agents = root / "agents"
        self._agent_names: list[str] | None = None

    def agent(self, name: str) -> AgentFiles:
        folder = self._agents / name
        return AgentFiles(store=folder / "store.jsonl", reactions=folder / "reactions.jsonl",
                          mutations=folder / "mutations.jsonl", journal=folder / "journal.jsonl")

    def agent_names(self) -> list[str]:
        """The agents that have a directory, in name order, as listed at the
        first call: only the readers of a finished run ask."""
        if self._agent_names is None:
            self._agent_names = (sorted(p.name for p in self._agents.iterdir())
                                 if self._agents.is_dir() else [])
        return self._agent_names


@dataclass
class SimulationReport:
    """What ``report.json`` holds: the scenario and the run's totals. Every
    other fact of the run is in the file it belongs to."""

    scenario: dict
    dag_metrics: dict
    need_latencies: dict
    mean_need_latency_seconds: float | None
    posts: int
    reactions: int
    mutations: int


def need_latencies(fulfillments: Iterable[tuple[Artifact | LineageRecord, NeedKey | None]],
                   resolve: Callable[[str], Artifact | LineageRecord | None]
                   ) -> dict[str, float]:
    """Seconds from each need's broadcast to its fulfillment, in need key
    order: ``fulfillments`` pairs each artifact (or its lineage record) with
    the key it fulfilled, or None, and ``resolve`` gives the artifact or the
    record of an id, or None."""
    latencies: dict[str, float] = {}
    for artifact, key in fulfillments:
        carrier = resolve(key.artifact_id) if key is not None else None
        if carrier is not None:
            delta = parse_timestamp(artifact.timestamp) - parse_timestamp(carrier.timestamp)
            latencies[key.text] = delta.total_seconds()
    return dict(sorted(latencies.items()))


def mean_latency(latencies: dict[str, float]) -> float | None:
    """The mean of ``need_latencies``, or None when no need was fulfilled."""
    return sum(latencies.values()) / len(latencies) if latencies else None


def read_store(run_dir: RunDir, agent: str, held: Mapping[str, Any]) -> Iterator[Artifact]:
    """Each record of an agent's store, in line order: the one reader of a
    store. ``held`` maps each id the caller holds from other stores to a
    record with its ``producer_agent``. A damaged line, a record whose id is
    an earlier line's or one that ``held`` holds, and a record another agent
    produced raise CorruptStore."""
    path = run_dir.agent(agent).store
    earlier: set[str] = set()
    for number, artifact in read_log(path, Artifact.from_dict):
        artifact_id = artifact.artifact_id
        if artifact_id in earlier:
            raise CorruptStore(str(path), number,
                               f"artifact {artifact_id} is earlier in this store")
        if artifact_id in held:
            raise CorruptStore(str(path), number, f"artifact {artifact_id} is in the "
                               f"store of {held[artifact_id].producer_agent} too")
        if artifact.producer_agent != agent:
            raise CorruptStore(str(path), number, f"artifact {artifact_id} "
                               f"was produced by {artifact.producer_agent}")
        earlier.add(artifact_id)
        yield artifact


class LineageRecord(NamedTuple):
    """What a rebuilt lineage keeps of one stored artifact: every field the
    graph and the audit read, and whether its payload hashed to its
    ``content_hash``, but not the payload itself."""

    artifact_id: str
    artifact_type: str
    producer_agent: str
    timestamp: str
    parent_artifact_ids: tuple
    needs: NeedsSignal | None
    intact: bool


def load_world_dag(out_dir: str | Path | RunDir) -> tuple[LineageGraph, dict, list]:
    """Rebuild the lineage graph (with graft overlays) from an output dir.

    Returns the graph, a ``LineageRecord`` of each stored artifact by id,
    and every agent's mutation events as (agent, line number, event); a
    damaged store or mutation line raises CorruptStore, and so does a store
    record that ``read_store`` refuses. Each record's payload is hashed as
    it is read and then dropped. ``json`` decodes a new string for each
    use of an id, a type or an agent's name; the records share one string
    for each, so a parent id is the held record's own ``artifact_id``.
    Grafts replay in ``seq`` order, the order the live graph applied them.
    """
    run_dir = out_dir if isinstance(out_dir, RunDir) else RunDir(out_dir)
    records: dict[str, LineageRecord] = {}
    strings: dict[str, str] = {}

    def one(text: str) -> str:
        return strings.setdefault(text, text)

    for agent in run_dir.agent_names():
        for artifact in read_store(run_dir, agent, records):
            artifact_id = one(artifact.artifact_id)
            records[artifact_id] = LineageRecord(
                artifact_id, one(artifact.artifact_type), one(artifact.producer_agent),
                artifact.timestamp, tuple(map(one, artifact.parent_artifact_ids)),
                artifact.needs, verify_integrity(artifact))
    graph = LineageGraph()
    for record in sorted(records.values(), key=scan_order):
        graph.insert(record)
    events = [(agent, number, event)
              for agent in run_dir.agent_names()
              for number, event in read_log(run_dir.agent(agent).mutations,
                                            MutationEvent.from_dict)]
    grafts = [event for _, _, event in events if event.kind == "graft"]
    for event in sorted(grafts, key=lambda event: event.seq):
        graph.set_parents(event.inputs[0], (event.new_parent,))
    return graph, records, events


def _read_report(path: Path) -> tuple[dict, dict[str, set[str]]]:
    """A report.json, with exactly the keys of a ``SimulationReport`` and
    exactly the keys of a ``DagMetrics`` in its dag_metrics, and the artifact
    types each agent of its scenario may consume."""
    with open(path, "r", encoding="utf-8") as handle:
        report = known_fields(json.load(handle), SimulationReport.__dataclass_fields__.keys())
    report = {f.name: report[f.name] for f in fields(SimulationReport)}
    known_fields(report["dag_metrics"], DagMetrics.__dataclass_fields__.keys())
    metrics = {f.name: report["dag_metrics"][f.name] for f in fields(DagMetrics)}
    if not isinstance(metrics["avg_dag_depth"], (int, float)):
        raise ValueError("dag_metrics needs a numeric avg_dag_depth")
    registry, profiles = Scenario.from_dict(report["scenario"]).load_profiles()
    return report, {name: allowed_types(profile, registry) for name, profile in profiles.items()}


def verify_output(out_dir: str | Path) -> list[str]:
    """Re-check the core invariants from the files a run left behind.

    Returns a list of violation descriptions; empty means all checks passed.
    When the lineage cannot be rebuilt at all (a damaged store or mutation
    log line, a store line repeating an artifact id or holding another
    agent's artifact, or a graft that names a missing node or would close a
    cycle), that is the one violation returned, since every other check
    reads the rebuilt lineage. A payload whose hash is not its record's
    ``content_hash``, found as ``load_world_dag`` reads the record, is one
    violation per artifact, in store order. A missing or unreadable
    report.json (bad JSON, a key missing or not a ``SimulationReport``
    field, a dag_metrics key missing or not a ``DagMetrics`` field, a depth
    that is not a number, a scenario naming an unknown skill) and a damaged
    reactions.jsonl, index.jsonl or governance.jsonl line (one that
    ``governance.event_op`` refuses) are one violation each, and the checks
    go on with what is left: each key of the report's dag_metrics equal to
    the rebuilt lineage's own (the depth within 1e-9); its reactions,
    mutations, posts and need latencies equal to a recount of the reaction
    lines, the mutation lines, the ``post`` events and the index's fulfilled
    keys with the stored timestamps (the mean latency within 1e-9), where
    those lines gave no violation; every reaction's product stored by the
    reacting agent, every consumed artifact stored, no artifact consumed
    twice, no need key fulfilled twice, none of an agent's own artifacts
    consumed, every consumed type within the agent's domain, every merge and
    fork line's inputs stored and its outputs stored by the agent that
    logged it, no merge repeating the input set of another, no graft
    repeating the seq of another, an index that lists each stored artifact
    once under its producer, with no need key fulfilled twice in it and none
    its carrier never broadcast, and, where neither the reaction lines nor
    the index gave a violation, each product's need key the same in its
    reaction line and its index line.
    """
    violations: list[str] = []
    run_dir = RunDir(out_dir)
    try:
        graph, artifacts, events = load_world_dag(run_dir)
    except (CorruptStore, CycleRejected, DanglingParent, UnknownArtifact) as exc:
        return [f"lineage cannot be rebuilt: {type(exc).__name__}: {exc}"]
    files = {agent: run_dir.agent(agent) for agent in run_dir.agent_names()}

    if not graph.is_acyclic():
        violations.append("lineage graph contains a cycle")

    violations += [f"hash mismatch for artifact {record.artifact_id}"
                   for record in artifacts.values() if not record.intact]

    # A total is recounted only from a file whose lines gave no violation of
    # their own, so that one damaged line is one violation.
    recounted: dict = {}
    before = len(violations)
    merged_by: dict[frozenset, str] = {}
    grafted_by: dict[int, str] = {}
    for agent, number, event in events:
        where = f"{agent} {files[agent].mutations.name} line {number}"
        if event.kind == "graft":
            # The graph numbers each graft once, so a seq on two lines is a
            # line repeated or copied from another agent's log.
            if event.seq in grafted_by:
                violations.append(f"{where}: graft seq {event.seq} "
                                  f"repeats a graft of {grafted_by[event.seq]}")
            else:
                grafted_by[event.seq] = agent
            continue
        violations += _mutation_line_violations(f"{where}: {event.kind}", agent, event,
                                                artifacts)
        if event.kind != "merge":
            continue
        inputs = frozenset(event.inputs)
        if inputs in merged_by:
            violations.append(
                f"merge repeats an input set {sorted(inputs)} "
                f"({merged_by[inputs]} and {agent})"
            )
        merged_by[inputs] = agent
    if len(violations) == before:
        recounted["mutations"] = len(events)

    report, allowed = None, {}
    try:
        report, allowed = _read_report(run_dir.report)
    except (OSError, ValueError, KeyError, TypeError, AttributeError, ArtifactError) as exc:
        violations.append(f"{run_dir.report}: unreadable report: {exc!r}")

    def damaged_reaction(error: CorruptStore) -> None:
        violations.append(f"{error.path} line {error.line_number}: "
                          f"unparseable reaction: {error.reason}")

    consumed_by: dict[str, str] = {}
    fulfilled_by: dict[NeedKey, str] = {}
    need_of_product: dict[str, str] = {}  # each need-driven product's key
    before, reactions = len(violations), 0
    for agent, agent_files in files.items():
        for _, (consumed_ids, fulfilled, produced) in read_log(
                agent_files.reactions, reaction_fields, damaged_reaction):
            reactions += 1
            product = artifacts.get(produced)
            if product is None:
                violations.append(f"{agent} reaction product {produced} is in no store")
            elif product.producer_agent != agent:
                violations.append(
                    f"{agent} reaction product {produced} was produced by "
                    f"{product.producer_agent}"
                )
            if fulfilled is not None:
                need_of_product[produced] = fulfilled.text
                if fulfilled in fulfilled_by:
                    violations.append(
                        f"need key {fulfilled.text} fulfilled twice "
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
                    violations.append(f"{agent} consumed {consumed}, which is in no store")
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
    reactions_clean = len(violations) == before
    if reactions_clean:
        recounted["reactions"] = reactions

    def damaged_event(error: CorruptStore) -> None:
        violations.append(f"{error.path} line {error.line_number}: "
                          f"unparseable governance event: {error.reason}")

    before = len(violations)
    posts = sum(op == "post" for _, op in read_log(run_dir.governance, event_op, damaged_event))
    if len(violations) == before:
        recounted["posts"] = posts
    index_violations, fulfillments = _index_violations(run_dir.index, artifacts)
    if not index_violations and reactions_clean:
        # A disagreement stops the latency recount, as an index violation does.
        listed = {artifact.artifact_id: key.text for artifact, key in fulfillments}
        index_violations = [
            f"product {product} fulfilled need key {need_of_product.get(product)} by its "
            f"reaction line but {listed.get(product)} by the index"
            for product in sorted(need_of_product.keys() | listed.keys())
            if need_of_product.get(product) != listed.get(product)]
    violations += index_violations
    if not index_violations:
        recounted["need_latencies"] = need_latencies(fulfillments, artifacts.get)
        recounted["mean_need_latency_seconds"] = mean_latency(recounted["need_latencies"])
    if report is not None:
        violations += _mismatches("dag_metrics ", report["dag_metrics"],
                                  graph.metrics().to_dict())
        violations += _mismatches("", report, recounted)
    return violations


def _mismatches(prefix: str, reported: dict, recomputed: dict) -> list[str]:
    """A violation for each key of ``recomputed`` whose reported value is not
    equal to it, or, for a recomputed float, not within 1e-9 of it."""
    def same(reported, value) -> bool:
        if isinstance(value, float) and isinstance(reported, (int, float)):
            return abs(value - reported) <= 1e-9
        return reported == value

    return [f"{prefix}{key} mismatch: reported {reported[key]}, recomputed {value}"
            for key, value in recomputed.items() if not same(reported[key], value)]


def _mutation_line_violations(where: str, agent: str, event: MutationEvent,
                              artifacts: dict[str, LineageRecord]) -> list[str]:
    """What a merge or fork line of an agent's mutations log, at ``where``,
    gets wrong against the stores: an input no store holds, or an output
    that is not a stored artifact of that agent."""
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


def _broadcast(carrier: LineageRecord | None, key: NeedKey) -> bool:
    """True iff the carrier's needs hold the key's need index and variant."""
    if carrier is None or carrier.needs is None:
        return False
    items = carrier.needs.items
    return 0 <= key.need_index < len(items) and key.variant_id in variant_ids(items[key.need_index])


def _index_violations(path: Path,
                      artifacts: dict[str, LineageRecord]) -> tuple[list[str], list]:
    """What ``index.jsonl`` gets wrong against the stores: each line that
    ``read_index`` finds damaged, a stored artifact never listed, and a need
    key its carrier never broadcast or fulfilled twice. With it, each stored
    artifact the index lists as fulfilling a need, with that need's key."""
    violations: list[str] = []
    fulfillments: list[tuple[LineageRecord, NeedKey]] = []

    def damaged(error: CorruptStore) -> None:
        violations.append(f"{error.path} line {error.line_number}: {error.reason}")

    listed: set[str] = set()
    fulfilled: set[NeedKey] = set()
    for number, artifact_id, artifact, fulfills in read_index(path, artifacts.get, damaged):
        listed.add(artifact_id)
        if fulfills is None:
            continue
        where = f"{path} line {number}"
        if fulfills in fulfilled:
            violations.append(f"{where}: need key {fulfills.text} fulfilled twice in the index")
        fulfilled.add(fulfills)
        if not _broadcast(artifacts.get(fulfills.artifact_id), fulfills):
            violations.append(f"{where}: need key {fulfills.text} was never broadcast")
        if artifact is not None:
            fulfillments.append((artifact, fulfills))
    violations += [f"stored artifact {artifact_id} is not in the index"
                   for artifact_id in artifacts if artifact_id not in listed]
    return violations, fulfillments
