"""Topology self-modification: fork stagnant leaves, merge redundancy,
resolve conflicts, all under a drifting policy.

Artifact records stay immutable throughout. Forks and merges add new
artifacts; grafts re-parent through the lineage graph's overlay and are
persisted as mutation events so a rebuilt graph reaches the same shape.
Policy snapshots live in the ordinary store as mutation_policy artifacts,
each parented to its predecessor.

Sibling pairs come from the lineage graph's ``SiblingPairs`` index, which
the graph updates on every insert and graft and never rebuilds. The mutator
judges each new pair once (payload-key Jaccard value, and whether a shared
key disagrees) and the index caches that verdict for good, since artifacts
are immutable. A cycle therefore reads its conflict and redundancy rates
from counts and walks the sorted candidates only until its budget is spent.

A pair is merged at most once, by any agent: the cycle claims it in the
index before merging, and skips a pair that is claimed already. A graft is
not a claim. It takes its pair out of the index, so a later graft of the
same node onto another parent answers a new conflict, not the old one. Each
graft event carries the graph's sequence number for it as ``seq``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path
from types import NoneType
from typing import Callable

from .canonical import Payload, typed_fields
from .errors import CycleRejected, NotForkable, NotSiblings
from .ledger import AppendLog, Artifact, scan_order
from .lineage import POLICY_TYPE, LineageGraph, PairVerdict, SiblingPairs
from .reactor import merge_payloads

STAGNATION_BOUNDS = (1, 10)
REDUNDANCY_BOUNDS = (0.3, 0.95)

MUTATION_KINDS = ("fork", "merge", "graft")


@dataclass(frozen=True)
class MutationPolicy:
    stagnation_cycles: int = 3
    redundancy_threshold: float = 0.7
    max_mutations_per_cycle: int = 2
    drift_step: float = 0.05

    def __post_init__(self):
        for name in ("stagnation_cycles", "max_mutations_per_cycle"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, not {getattr(self, name)!r}")
        for name in ("redundancy_threshold", "drift_step"):
            if type(getattr(self, name)) not in (int, float):
                raise ValueError(f"{name} must be a number, not {getattr(self, name)!r}")
        lo, hi = STAGNATION_BOUNDS
        if not lo <= self.stagnation_cycles <= hi:
            raise ValueError(f"stagnation_cycles out of bounds {STAGNATION_BOUNDS}")
        lo, hi = REDUNDANCY_BOUNDS
        if not lo <= self.redundancy_threshold <= hi:
            raise ValueError(f"redundancy_threshold out of bounds {REDUNDANCY_BOUNDS}")

    def to_payload(self) -> Payload:
        return {
            "stagnation_cycles": self.stagnation_cycles,
            "redundancy_threshold": self.redundancy_threshold,
            "max_mutations_per_cycle": self.max_mutations_per_cycle,
            "drift_step": self.drift_step,
        }


# The kind of each field of a mutations.jsonl line, as ``to_dict`` writes it.
MUTATION_FIELDS = {"kind": str, "inputs": [str], "outputs": [str], "cycle": int,
                   "new_parent": (str, NoneType), "seq": (int, NoneType)}


@dataclass(frozen=True, slots=True)
class MutationEvent:
    kind: str
    inputs: tuple
    outputs: tuple
    cycle: int
    new_parent: str | None
    seq: int | None  # a graft's place in the graph's graft order; null otherwise

    def __post_init__(self):
        if self.kind not in MUTATION_KINDS:
            raise ValueError(f"unknown mutation kind {self.kind!r}")
        if self.kind == "fork" and (len(self.inputs) != 1 or len(self.outputs) != 2):
            raise ValueError("fork takes one input and yields two outputs")
        if self.kind == "merge" and (len(self.inputs) < 2 or len(self.outputs) != 1):
            raise ValueError("merge takes >=2 inputs and yields one output")
        if self.kind == "graft":
            if len(self.inputs) != 1 or self.new_parent is None:
                raise ValueError("graft takes one input and records its new parent")
            if type(self.seq) is not int:
                raise ValueError("a graft carries an integer seq")
        elif self.seq is not None:
            raise ValueError(f"a {self.kind} carries no seq")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "cycle": self.cycle,
            "new_parent": self.new_parent,
            "seq": self.seq,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MutationEvent":
        typed_fields(data, MUTATION_FIELDS)
        return cls(
            kind=data["kind"],
            inputs=tuple(data["inputs"]),
            outputs=tuple(data["outputs"]),
            cycle=data["cycle"],
            new_parent=data["new_parent"],
            seq=data["seq"],
        )


def _clamp(value: float, bounds: tuple) -> float:
    lo, hi = bounds
    return min(hi, max(lo, value))


def _sign(value: float) -> int:
    return (value > 0) - (value < 0)


def drift(
    policy: MutationPolicy,
    conflict_rate: float,
    redundancy_rate: float,
    rng: random.Random,
) -> MutationPolicy:
    """One stochastic threshold step in response to observed rates.

    Rates above the 0.2 working point tighten the corresponding threshold,
    rates below loosen it; uniform noise of half a step keeps the walk from
    locking onto a boundary. Deterministic for a seeded rng.
    """
    noise = rng.uniform(-policy.drift_step / 2, policy.drift_step / 2)
    threshold = _clamp(
        policy.redundancy_threshold
        - policy.drift_step * _sign(redundancy_rate - 0.2)
        + noise,
        REDUNDANCY_BOUNDS,
    )
    cycles = int(_clamp(
        round(policy.stagnation_cycles - _sign(conflict_rate - 0.2)),
        STAGNATION_BOUNDS,
    ))
    return replace(policy, redundancy_threshold=threshold, stagnation_cycles=cycles)


def fork_payloads(payload: Payload) -> tuple[Payload, Payload]:
    """Split a payload into two disjoint, jointly exhaustive key subsets."""
    keys = sorted(payload)
    if len(keys) < 2:
        raise NotForkable(f"payload has {len(keys)} top-level key(s), need >= 2")
    child_a = {k: payload[k] for k in keys[0::2]}
    child_b = {k: payload[k] for k in keys[1::2]}
    return child_a, child_b


def jaccard(a: frozenset, b: frozenset) -> float:
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


class Mutator:
    """Per-agent mutation layer run inside the owning agent's cycle.

    ``emit`` creates and publishes an artifact on the agent's behalf and
    returns it, recording its birth cycle in ``birth_cycles``. Payloads are
    read from the records the lineage graph holds. ``rng`` drives the policy
    drift, and every event is appended to the mutations log at ``path``.
    """

    def __init__(
        self,
        agent_name: str,
        graph: LineageGraph,
        emit: Callable[..., Artifact],
        policy: MutationPolicy,
        rng: random.Random,
        birth_cycles: dict[str, int],
        path: str | Path,
    ):
        self.agent_name = agent_name
        self.graph = graph
        self.emit = emit
        self.policy = policy
        self.rng = rng
        self.birth_cycles = birth_cycles
        self.file = AppendLog(path)
        self.event_count = 0  # events logged by this mutator
        self.last_event: MutationEvent | None = None
        self.policy_artifact_id: str | None = None
        self.last_rates: tuple[float, float] = (0.0, 0.0)

    # -- bookkeeping ----------------------------------------------------

    def _log_event(self, event: MutationEvent) -> MutationEvent:
        self.file.append(event.to_dict())
        self.event_count += 1
        self.last_event = event
        return event

    def _judge(self, a_id: str, b_id: str) -> PairVerdict:
        payload_a, payload_b = self.graph.node(a_id).payload, self.graph.node(b_id).payload
        return PairVerdict(
            jaccard=jaccard(frozenset(payload_a), frozenset(payload_b)),
            conflict=any(payload_a[key] != payload_b[key]
                         for key in payload_a.keys() & payload_b.keys()),
        )

    def _sibling_pairs(self) -> SiblingPairs:
        """The graph's sibling-pair index with every pair judged."""
        pairs = self.graph.sibling_pairs()
        pairs.refresh(self._judge)
        return pairs

    def _share_parent(self, a_id: str, b_id: str) -> bool:
        return bool(set(self.graph.parents(a_id)) & set(self.graph.parents(b_id)))

    # -- detection ------------------------------------------------------

    def detect_stagnation(self, current_cycle: int) -> list[str]:
        """Leaves older than stagnation_cycles (strictly more) with no children."""
        flagged = []
        for leaf in self.graph.leaves():
            if self.graph.node(leaf).artifact_type == POLICY_TYPE:
                continue
            born = self.birth_cycles.get(leaf, 0)
            if current_cycle - born > self.policy.stagnation_cycles:
                flagged.append(leaf)
        return sorted(flagged)

    def detect_redundancy(self) -> list[tuple[str, str]]:
        """Sibling pairs whose payload key sets exceed the Jaccard threshold."""
        return list(self._sibling_pairs().redundant(self.policy.redundancy_threshold))

    def detect_conflict(self) -> list[tuple[str, str, str]]:
        """(pair, key) rows where siblings disagree on a shared top-level key."""
        flagged = []
        for a_id, b_id in self._sibling_pairs().conflicts():
            payload_a = self.graph.node(a_id).payload
            payload_b = self.graph.node(b_id).payload
            for key in sorted(payload_a.keys() & payload_b.keys()):
                if payload_a[key] != payload_b[key]:
                    flagged.append((a_id, b_id, key))
        return flagged

    # -- operations -----------------------------------------------------

    def fork(self, artifact: Artifact, cycle: int) -> tuple[Artifact, Artifact]:
        payload_a, payload_b = fork_payloads(artifact.payload)
        child_a = self.emit(
            artifact_type=artifact.artifact_type,
            skill="mutator",
            payload=payload_a,
            parents=(artifact.artifact_id,),
            investigation_id=artifact.investigation_id,
        )
        child_b = self.emit(
            artifact_type=artifact.artifact_type,
            skill="mutator",
            payload=payload_b,
            parents=(artifact.artifact_id,),
            investigation_id=artifact.investigation_id,
        )
        self._log_event(MutationEvent(
            kind="fork",
            inputs=(artifact.artifact_id,),
            outputs=(child_a.artifact_id, child_b.artifact_id),
            cycle=cycle,
            new_parent=None,
            seq=None,
        ))
        return child_a, child_b

    def merge_siblings(self, a: Artifact, b: Artifact, cycle: int) -> Artifact:
        """Merge two siblings into a synthesis; ``mutate_cycle`` claims the
        pair first, so no pair is merged twice."""
        if not self._share_parent(a.artifact_id, b.artifact_id):
            raise NotSiblings(f"{a.artifact_id} and {b.artifact_id} share no parent")
        ordered = sorted((a, b), key=scan_order)
        merged_payload = merge_payloads(ordered)
        merged = self.emit(
            artifact_type="synthesis",
            skill="mutator",
            payload=merged_payload,
            parents=tuple(x.artifact_id for x in ordered),
            investigation_id=a.investigation_id if a.investigation_id == b.investigation_id else "",
        )
        self._log_event(MutationEvent(
            kind="merge",
            inputs=tuple(x.artifact_id for x in ordered),
            outputs=(merged.artifact_id,),
            cycle=cycle,
            new_parent=None,
            seq=None,
        ))
        return merged

    def graft(self, sibling_id: str, new_parent_id: str, cycle: int) -> MutationEvent:
        """Re-parent the sibling onto the new parent, and return the logged
        event; CycleRejected if that would close a loop."""
        seq = self.graph.set_parents(sibling_id, (new_parent_id,))
        return self._log_event(MutationEvent(
            kind="graft",
            inputs=(sibling_id,),
            outputs=(),
            cycle=cycle,
            new_parent=new_parent_id,
            seq=seq,
        ))

    # -- the cycle --------------------------------------------------------

    def mutate_cycle(self, cycle: int) -> list[MutationEvent]:
        """Apply at most max_mutations_per_cycle events: conflicts first,
        then redundancy, then stagnation; smallest ids win within each class.

        Candidates are the pairs judged when the cycle starts, less those
        already merged. Its own grafts and merges only change pairs that hold
        a touched node (skipped) or a new, still unjudged one, so walking the
        live index meets the same candidates as walking a copy taken up front.

        A conflict is grafted, or, when the graft would close a cycle, claimed
        for a merge, in one step under the graph's lock, so no other agent can
        graft or merge the pair in between. The merge itself runs after that
        step, since publishing its product takes other locks.
        """
        budget = self.policy.max_mutations_per_cycle
        threshold = self.policy.redundancy_threshold
        applied: list[MutationEvent] = []
        touched: set[str] = set()
        pairs = self._sibling_pairs()
        denominator = max(1, len(pairs))
        self.last_rates = (
            pairs.conflict_count() / denominator,
            pairs.redundant_count(threshold) / denominator,
        )

        for pair in pairs.conflicts():
            if len(applied) >= budget:
                return applied
            a_id, b_id = pair
            if a_id in touched or b_id in touched:
                continue
            with self.graph.lock:
                if not pairs.is_open(pair):  # merged, or grafted apart by a peer
                    continue
                try:
                    self.graft(b_id, a_id, cycle=cycle)
                    merge = None
                except CycleRejected:
                    if not pairs.claim(pair):
                        continue
                    merge = self.graph.node(a_id), self.graph.node(b_id)
            if merge is not None:
                self.merge_siblings(*merge, cycle=cycle)
            applied.append(self.last_event)
            touched.update(pair)

        for pair in pairs.redundant(threshold):
            if len(applied) >= budget:
                return applied
            a_id, b_id = pair
            if a_id in touched or b_id in touched or not pairs.is_open(pair):
                continue
            if not pairs.claim(pair):
                continue
            self.merge_siblings(self.graph.node(a_id), self.graph.node(b_id), cycle=cycle)
            applied.append(self.last_event)
            touched.update(pair)

        for leaf in self.detect_stagnation(cycle):
            if len(applied) >= budget:
                return applied
            if leaf in touched:
                continue
            artifact = self.graph.node(leaf)
            if len(artifact.payload) < 2:
                continue
            child_a, child_b = self.fork(artifact, cycle=cycle)
            applied.append(self.last_event)
            touched.update((leaf, child_a.artifact_id, child_b.artifact_id))

        return applied

    def record_policy(self) -> Artifact:
        """Persist the current policy as a mutation_policy artifact."""
        parents = (self.policy_artifact_id,) if self.policy_artifact_id else ()
        artifact = self.emit(
            artifact_type=POLICY_TYPE,
            skill="mutator",
            payload=self.policy.to_payload(),
            parents=parents,
            investigation_id="",
        )
        self.policy_artifact_id = artifact.artifact_id
        return artifact

    def drift_policy(self) -> Artifact:
        """Drift thresholds from the last observed rates and persist the result."""
        conflict_rate, redundancy_rate = self.last_rates
        self.policy = drift(self.policy, conflict_rate, redundancy_rate, self.rng)
        return self.record_policy()
