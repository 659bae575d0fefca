"""Reactive coordination: need fulfillment, synthesis, and loop prevention.

Each agent owns one reactor. A react() call runs three phases against a
shared budget (need-driven reactions first, then multi-parent synthesis,
then single-parent transforms). A reactor makes nothing itself: it hands
each product to the ``emit`` it was given, the world's one publish path.
Each reaction appends one line to the agent's ``reactions.jsonl`` naming
the artifact ids and the need key it consumed, after the claim and, from
``emit``'s ``before_store`` callback, before its product is stored: that
log is the one persisted record of consumption, and a reactor seeds the
index's claims from it when it starts.

Consumption is globally exclusive: reactors claim in their shared index, so
that no artifact's payload is ever reacted to twice, and no need key is
answered twice, even when agents run concurrently. Need fulfillment consumes
only the need key, not the carrying artifact, so a need-bearing artifact can
still feed a later synthesis.

Scans follow what changed, not everything ever published. A reactor's
candidates come from the index's board for its profile
(``GlobalIndex.candidates``): the unclaimed artifacts whose type the agent
may consume and whose payload keys meet a runnable skill, in
``(timestamp, id)`` order, each with those keys. ``_fits`` is that test,
the static half of ``can_react``, and the profile is everything it reads:
the allowed types and the runnable skills' input sets. Agents with the
same profile share a board, so each artifact is judged once per profile;
a reactor then drops its own products from what the board returns. Open
needs come from the index's own ordered needs board, read once per need
phase, with each row's centrality count; a claimed key has left it.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from types import NoneType
from typing import Callable, Iterable, Sequence

from .canonical import Payload, typed_fields
from .clock import Clock
from .errors import ArtifactError, InvalidParam
from .index import GlobalIndex, NeedKey, variant_params
from .ledger import AppendLog, Artifact, read_log, scan_order
from .lineage import LineageGraph
from .needs import NeedItem
from .pressure import PressureBreakdown, build_context, rank
from .skills import (
    AgentProfile,
    SkillManifest,
    SkillRegistry,
    allowed_types,
    execute,
    normalize_param,
)

log = logging.getLogger(__name__)

REACTION_KINDS = ("need_driven", "multi_parent", "single_parent")


def _check_shape(kind: str, consumed_ids: Sequence, fulfilled_need, pressure) -> None:
    """The rule every reaction keeps, written and read back."""
    if kind not in REACTION_KINDS:
        raise ArtifactError(f"unknown reaction kind {kind!r}")
    need_driven = kind == "need_driven"
    if (fulfilled_need is not None) != need_driven or (pressure is not None) != need_driven:
        raise ArtifactError("a reaction names a need and a pressure iff it is need_driven")
    if need_driven and consumed_ids:
        raise ArtifactError("need_driven reactions consume no artifact")
    if kind == "single_parent" and len(consumed_ids) != 1:
        raise ArtifactError("single_parent reactions consume one artifact")
    if kind == "multi_parent" and len(consumed_ids) < 2:
        raise ArtifactError("multi_parent reactions consume at least two artifacts")


@dataclass(frozen=True, slots=True)
class ReactionRecord:
    kind: str
    consumed_ids: tuple
    fulfilled_need: NeedKey | None
    produced_id: str
    skill: str
    pressure: PressureBreakdown | None

    def __post_init__(self):
        _check_shape(self.kind, self.consumed_ids, self.fulfilled_need, self.pressure)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "consumed_ids": list(self.consumed_ids),
            "fulfilled_need": self.fulfilled_need.text if self.fulfilled_need else None,
            "produced_id": self.produced_id,
            "skill": self.skill,
            "pressure": self.pressure.to_dict() if self.pressure else None,
        }


# The kind of each field of a reactions.jsonl line, and of each pressure
# term, as ``to_dict`` writes them.
REACTION_FIELDS = {"kind": str, "consumed_ids": [str], "fulfilled_need": (str, NoneType),
                   "produced_id": str, "skill": str, "pressure": (dict, NoneType)}
PRESSURE_FIELDS = dict.fromkeys(PressureBreakdown.__dataclass_fields__, (int, float))


def reaction_fields(record: dict) -> tuple[list[str], NeedKey | None, str]:
    """The consumed ids, fulfilled need key and product id of one
    reactions.jsonl record, once it keeps the rule of a ``ReactionRecord``
    (see ``_check_shape``), with numeric pressure terms.

    Raises ValueError or ArtifactError for a record that is not a reaction,
    or whose need key does not parse.
    """
    typed_fields(record, REACTION_FIELDS)
    consumed_ids, fulfilled = record["consumed_ids"], record["fulfilled_need"]
    pressure = record["pressure"]
    _check_shape(record["kind"], consumed_ids, fulfilled, pressure)
    if pressure is not None:
        typed_fields(pressure, PRESSURE_FIELDS)
    fulfilled = NeedKey.parse(fulfilled) if fulfilled is not None else None
    return consumed_ids, fulfilled, record["produced_id"]


def _read_consumption(path: Path) -> tuple[set[str], set[NeedKey]]:
    """The artifact ids and need keys a reactions.jsonl records as consumed.

    A damaged line raises CorruptStore with its path and line number.
    """
    ids: set[str] = set()
    need_keys: set[NeedKey] = set()
    for _, (consumed_ids, fulfilled, _) in read_log(path, reaction_fields):
        ids.update(consumed_ids)
        if fulfilled is not None:
            need_keys.add(fulfilled)
    return ids, need_keys


def merge_payloads(parents: Sequence[Artifact]) -> Payload:
    """Fold top-level maps oldest to newest; newest value wins each key.

    Timestamp ties break toward the lexicographically later artifact id.
    """
    if not parents:
        raise ArtifactError("merge requires at least one parent")
    ordered = sorted(parents, key=scan_order)
    merged: Payload = {}
    for artifact in ordered:
        merged.update(artifact.payload)
    return merged


def skill_inputs(manifest: SkillManifest) -> frozenset:
    """The payload keys a skill can take: its input params and json fields."""
    return frozenset(manifest.input_params) | frozenset(manifest.json_fields)


def schema_overlap(manifest: SkillManifest, keys: Iterable[str]) -> bool:
    """Compatibility test: input params (or declared json fields) meet keys."""
    return not skill_inputs(manifest).isdisjoint(keys)


def param_keys(payload: Payload) -> frozenset:
    """A payload's top-level keys in param form; keys with no such form drop."""
    return _param_keys(tuple(payload))


@lru_cache(maxsize=256)
def _param_keys(names: tuple) -> frozenset:
    # Payloads of a run have few distinct key lists: the cache holds one
    # set per list, however many artifacts keep it.
    keys = set()
    for key in names:
        try:
            keys.add(normalize_param(key))
        except InvalidParam:
            continue
    return frozenset(keys)


def build_params(manifest: SkillManifest, payload: Payload) -> dict:
    """Derive skill params from a payload's top-level entries.

    Skills that take structured input via an ``input_json`` param and
    matched through their declared json fields receive the whole payload
    under that param, mirroring how --input-json tools are fed.
    """
    params = {}
    for key, value in payload.items():
        try:
            params[normalize_param(key)] = value
        except InvalidParam:
            continue
    if (
        "input_json" in manifest.input_params
        and "input_json" not in params
        and manifest.json_fields
        and set(manifest.json_fields) & set(params)
    ):
        params["input_json"] = payload
    return params


class ArtifactReactor:
    """One agent's reactions, each logged to ``reactions_path``.

    ``emit`` creates and publishes an artifact on the agent's behalf and
    returns it, as ``World.emit`` does. ``rng`` seeds the skills a reaction runs.
    Claims are made in ``index``, which every reactor of a world shares.
    """

    def __init__(
        self,
        profile: AgentProfile,
        registry: SkillRegistry,
        index: GlobalIndex,
        graph: LineageGraph,
        emit: Callable[..., Artifact],
        reactions_path: str | Path,
        clock: Clock,
        rng: random.Random,
    ):
        self.profile = profile
        self.registry = registry
        self.index = index
        self.graph = graph
        self.emit = emit
        self.clock = clock
        self.rng = rng
        self.reactions_path = Path(reactions_path)
        self.reactions = AppendLog(self.reactions_path)
        self.index.seed_claims(*_read_consumption(self.reactions_path))
        self.reaction_count = 0  # reactions logged by this reactor
        # The registry is immutable and profiles are frozen: fixed for life.
        self._runnable = registry.skills_for(profile)
        self._skill_inputs = [(m, skill_inputs(m)) for m in self._runnable]
        self._producible = {m.output_artifact_type for m in self._runnable}
        self._allowed = allowed_types(profile, registry)
        # Everything _fits reads: the key of this profile's candidate board.
        self._fit_profile = (frozenset(self._allowed),
                             frozenset(inputs for _, inputs in self._skill_inputs))

    @property
    def agent_name(self) -> str:
        return self.profile.name

    # -- scanning -----------------------------------------------------------

    def _fits(self, artifact: Artifact) -> frozenset | None:
        """The static half of can_react, but for the producer: the
        artifact's payload keys, if its type is allowed and they meet a
        runnable skill, else None."""
        if artifact.artifact_type not in self._allowed:
            return None
        keys = param_keys(artifact.payload)
        if any(not inputs.isdisjoint(keys) for _, inputs in self._skill_inputs):
            return keys
        return None

    def can_react(self, artifact: Artifact) -> bool:
        """True iff this reactor could legitimately consume the artifact now."""
        return (not self.index.claimed(artifact.artifact_id)
                and artifact.producer_agent != self.agent_name
                and self._fits(artifact) is not None)

    def scan_available(self) -> list[tuple[Artifact, frozenset]]:
        """Unclaimed peer artifacts compatible with at least one of our
        skills, in (timestamp, id) order, each with its payload keys."""
        rows = self.index.candidates(self._fit_profile, self._fits)
        return [row for row in rows if row[0].producer_agent != self.agent_name]

    def scan_needs(
        self, open_rows: Sequence[tuple[NeedKey, NeedItem, Artifact]]
    ) -> list[tuple[NeedKey, NeedItem, Artifact]]:
        """Of ``index.open_needs(...)`` rows, the peer needs this agent could
        produce."""
        rows = []
        for key, item, carrier in open_rows:
            if carrier.producer_agent == self.agent_name:
                continue
            if item.artifact_type not in self._producible:
                continue
            rows.append((key, item, carrier))
        return rows

    # -- reactions ----------------------------------------------------------

    def _commit(
        self,
        kind: str,
        manifest: SkillManifest,
        artifact_type: str,
        payload: Payload,
        parents: tuple,
        investigation_id: str,
        need: NeedKey | None = None,
        pressure: PressureBreakdown | None = None,
    ) -> ReactionRecord:
        """Publish a reaction's product through ``emit``, which hands it to
        ``log_reaction`` first: what was consumed is on disk before the
        product is stored, and so before anyone can see it. A need-driven
        reaction consumes only its need key; the others consume the parents
        of their product."""
        record = None

        def log_reaction(artifact: Artifact) -> None:
            nonlocal record
            record = ReactionRecord(
                kind=kind,
                consumed_ids=() if need is not None else parents,
                fulfilled_need=need,
                produced_id=artifact.artifact_id,
                skill=manifest.name,
                pressure=pressure,
            )
            self.reactions.append(record.to_dict())

        self.emit(
            artifact_type=artifact_type,
            skill=manifest.name,
            payload=payload,
            parents=parents,
            investigation_id=investigation_id,
            fulfills=need,
            before_store=log_reaction,
        )
        self.reaction_count += 1
        return record

    def _skill_for_need(self, item: NeedItem) -> SkillManifest | None:
        """Producer choice: the need's preferred skills first, then registry order."""
        for name in item.preferred_skills:
            manifest = next((m for m in self._runnable if m.name == name), None)
            if manifest is not None and manifest.output_artifact_type == item.artifact_type:
                return manifest
        for manifest in self._runnable:
            if manifest.output_artifact_type == item.artifact_type:
                return manifest
        return None

    def react_to_needs(self, limit: int) -> list[ReactionRecord]:
        """Fulfill up to ``limit`` open needs in descending pressure order."""
        if limit <= 0:
            return []
        centrality: dict[NeedKey, int] = {}
        rows = self.scan_needs(self.index.open_needs(centrality))
        if not rows:
            return []
        now = self.clock.now()
        contexts = {}
        for key, item, carrier in rows:
            depth = (self.graph.depth(carrier.artifact_id)
                     if carrier.artifact_id in self.graph else 0)
            contexts[key.text] = build_context(
                carrier=carrier,
                coverage=self.index.coverage(key.artifact_id, key.need_index),
                centrality_count=centrality[key],
                parent_depth=depth,
                now=now,
            )
        records = []
        for ranked in rank(rows, contexts, self.agent_name):
            if len(records) >= limit:
                break
            record = self._fulfill(ranked.key, ranked.item, ranked.carrier, ranked.breakdown)
            if record is not None:
                records.append(record)
        return records

    def _fulfill(
        self,
        key: NeedKey,
        item: NeedItem,
        carrier: Artifact,
        breakdown: PressureBreakdown,
    ) -> ReactionRecord | None:
        manifest = self._skill_for_need(item)
        if manifest is None:
            return None
        params = {"query": item.query}
        if manifest.input_params:
            params.setdefault(manifest.input_params[0], item.query)
        params.update(variant_params(item, key.variant_id))
        try:
            payload = execute(manifest, params, self.rng.randrange(2**32))
        except ArtifactError as exc:
            log.warning("need %s left open: skill %s failed: %s", key.text, manifest.name, exc)
            return None
        if not self.index.claim_need(key):
            return None
        return self._commit(
            "need_driven", manifest, item.artifact_type, payload,
            parents=(carrier.artifact_id,),
            investigation_id=carrier.investigation_id,
            need=key,
            pressure=breakdown,
        )

    def react_multi(self) -> ReactionRecord | None:
        """Merge >=2 compatible peer artifacts through one shared skill."""
        candidates = self.scan_available()
        for manifest, inputs in self._skill_inputs:
            # Candidates come in (timestamp, id) order, oldest parent first.
            artifacts = [a for a, keys in candidates if not inputs.isdisjoint(keys)]
            if len(artifacts) < 2:
                continue
            merged = merge_payloads(artifacts)
            params = build_params(manifest, merged)
            try:
                payload = execute(manifest, params, self.rng.randrange(2**32))
            except ArtifactError as exc:
                log.warning("multi-parent via %s skipped: %s", manifest.name, exc)
                continue
            consumed = tuple(a.artifact_id for a in artifacts)
            if not self.index.claim_all(consumed):
                continue
            return self._commit(
                "multi_parent", manifest, "synthesis", payload,
                parents=consumed,
                investigation_id=self._common_investigation(artifacts),
            )
        return None

    @staticmethod
    def _common_investigation(artifacts: Sequence[Artifact]) -> str:
        ids = {a.investigation_id for a in artifacts}
        return ids.pop() if len(ids) == 1 else ""

    def react_single(self) -> ReactionRecord | None:
        """Transform one available compatible peer artifact through one skill."""
        for artifact, keys in self.scan_available():
            manifest = next(m for m, inputs in self._skill_inputs if not inputs.isdisjoint(keys))
            params = build_params(manifest, artifact.payload)
            try:
                payload = execute(manifest, params, self.rng.randrange(2**32))
            except ArtifactError as exc:
                log.warning("single-parent on %s skipped: %s", artifact.artifact_id, exc)
                continue
            if not self.index.claim_all((artifact.artifact_id,)):
                continue
            return self._commit(
                "single_parent", manifest, manifest.output_artifact_type, payload,
                parents=(artifact.artifact_id,),
                investigation_id=artifact.investigation_id,
            )
        return None

    def react(self, limit: int = 3) -> list[ReactionRecord]:
        """Run the phased reaction cycle under a shared budget.

        Need-driven reactions come first, then multi-parent synthesis, then
        single-parent transforms. Per-reaction failures are isolated.
        """
        records: list[ReactionRecord] = []
        if limit <= 0:
            return records
        try:
            records.extend(self.react_to_needs(limit))
        except Exception:
            log.exception("need-driven phase failed for %s", self.agent_name)
        while len(records) < limit:
            try:
                record = self.react_multi()
            except Exception:
                log.exception("multi-parent phase failed for %s", self.agent_name)
                break
            if record is None:
                break
            records.append(record)
        while len(records) < limit:
            try:
                record = self.react_single()
            except Exception:
                log.exception("single-parent phase failed for %s", self.agent_name)
                break
            if record is None:
                break
            records.append(record)
        return records
