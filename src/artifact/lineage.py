"""Cross-agent DAG of parent references.

Depth is the length of the longest path from a node to any root (a node with
no parents); roots sit at depth 0. Graft operations never touch the immutable
artifact records: they live in an overlay of replacement parent lists that
every query consults.

Once asked for them, the graph keeps an effective children map and a
sibling-pair index (``SiblingPairs``) built from it current on every insert
and graft, so neither needs a rescan of the whole graph after that. A graph
that is never asked (a run without mutation, the verify reload) pays for
neither.

Each graft gets the next number of one sequence, assigned under the graph's
lock, so grafts made by concurrent agents can be replayed in the order they
were applied.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

from .errors import CycleRejected, DanglingParent, UnknownArtifact
from .ledger import scan_order

# Policy snapshots chain one to the next; they are never anyone's sibling.
POLICY_TYPE = "mutation_policy"


@dataclass
class DagMetrics:
    artifact_count: int
    synthesis_count: int
    avg_dag_depth: float
    per_agent: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "artifact_count": self.artifact_count,
            "synthesis_count": self.synthesis_count,
            "avg_dag_depth": self.avg_dag_depth,
            "per_agent": dict(self.per_agent),
        }


class PairVerdict(NamedTuple):
    """What the mutator needs to know about one sibling pair's payloads."""
    jaccard: float   # of the two top-level key sets
    conflict: bool   # some shared top-level key holds different values


def _pair(a: str, b: str) -> tuple:
    return (a, b) if a < b else (b, a)


class SiblingPairs:
    """Every pair of distinct non-policy nodes that share at least one
    effective parent, as ``(smaller id, larger id)``.

    The owning graph adds and drops pairs as its children map changes, under
    its lock, and counts the parents each pair shares, so a graft that takes
    away one common parent keeps a pair that still has another. A pair's
    verdict is computed once, by the caller's ``judge``, and cached for good,
    since the artifacts behind it never change; a present pair waits in
    ``_pending`` until the next ``refresh`` judges it, and counts only
    towards ``len()`` until then. Present pairs with a verdict are kept
    sorted, so the rates are read from counts and a walk in pair order can
    stop whenever it likes.

    A pair that has been merged is resolved for good, for every agent at
    once: ``claim`` checks and marks that under the graph's lock. Resolved
    pairs still count towards the rates, since both nodes stay siblings.
    """

    def __init__(self, lock):
        self._lock = lock
        self._shared: dict[tuple, int] = {}
        self._verdicts: dict[tuple, PairVerdict] = {}
        self._pending: set[tuple] = set()  # present pairs not judged yet
        self._judged: list[tuple] = []     # present pairs with a verdict, sorted
        self._conflicts: list[tuple] = []  # those whose verdict is a conflict, sorted
        self._jaccards: dict[float, int] = {}  # Jaccard value -> judged pairs with it
        self._resolved: set[tuple] = set()

    # -- maintenance, called by the graph under its lock --------------------

    def _add(self, pair: tuple) -> None:
        shared = self._shared.get(pair, 0)
        self._shared[pair] = shared + 1
        if shared:
            return
        verdict = self._verdicts.get(pair)
        if verdict is None:
            self._pending.add(pair)
        else:
            self._count(pair, verdict)

    def _discard(self, pair: tuple) -> None:
        shared = self._shared[pair] - 1
        if shared:
            self._shared[pair] = shared
            return
        del self._shared[pair]
        if pair in self._pending:
            self._pending.discard(pair)
            return
        verdict = self._verdicts[pair]
        del self._judged[bisect_left(self._judged, pair)]
        if verdict.conflict:
            del self._conflicts[bisect_left(self._conflicts, pair)]
        left = self._jaccards[verdict.jaccard] - 1
        if left:
            self._jaccards[verdict.jaccard] = left
        else:
            del self._jaccards[verdict.jaccard]

    def _count(self, pair: tuple, verdict: PairVerdict) -> None:
        insort(self._judged, pair)
        if verdict.conflict:
            insort(self._conflicts, pair)
        self._jaccards[verdict.jaccard] = self._jaccards.get(verdict.jaccard, 0) + 1

    # -- queries ------------------------------------------------------------

    def refresh(self, judge: Callable[[str, str], PairVerdict]) -> None:
        """Judge every present pair not judged yet."""
        with self._lock:
            for pair in list(self._pending):
                verdict = self._verdicts[pair] = judge(*pair)
                self._pending.discard(pair)
                self._count(pair, verdict)

    def is_open(self, pair: tuple) -> bool:
        """Still a sibling pair, and not yet merged."""
        with self._lock:
            return pair in self._shared and pair not in self._resolved

    def claim(self, pair: tuple) -> bool:
        """Mark an open pair resolved, for a merge; False if it is not open."""
        with self._lock:
            if not self.is_open(pair):
                return False
            self._resolved.add(pair)
            return True

    def __len__(self) -> int:
        return len(self._shared)

    def pairs(self) -> list[tuple]:
        """Every present pair, judged or not, sorted."""
        with self._lock:
            return sorted(self._shared)

    def conflict_count(self) -> int:
        return len(self._conflicts)

    def redundant_count(self, threshold: float) -> int:
        with self._lock:
            return sum(n for value, n in self._jaccards.items() if value > threshold)

    def conflicts(self) -> Iterator[tuple]:
        """Judged pairs whose verdict is a conflict, in pair order."""
        return self._walk(self._conflicts, lambda pair: True)

    def redundant(self, threshold: float) -> Iterator[tuple]:
        """Judged pairs whose Jaccard value exceeds the threshold, in pair order."""
        return self._walk(
            self._judged, lambda pair: self._verdicts[pair].jaccard > threshold
        )

    def _walk(self, ordered: list, keep: Callable[[tuple], bool]) -> Iterator[tuple]:
        """Each step resumes after the last pair yielded in the list as it
        stands then, so the graph may change between steps."""
        last = ("", "")
        while True:
            with self._lock:
                i = bisect_right(ordered, last)
                while i < len(ordered) and not keep(ordered[i]):
                    i += 1
                if i == len(ordered):
                    return
                last = ordered[i]
            yield last


class LineageGraph:
    def __init__(self):
        self._nodes: dict = {}  # id -> the inserted record itself
        self._overlay: dict[str, tuple] = {}
        self._children: dict[str, list[str]] | None = None  # see _children_map
        self._pairs: SiblingPairs | None = None
        self._depth_memo: dict[str, int] = {}
        self._graft_seq = 0
        # Serializes structural writes and depth memoization; queries on a
        # quiescent graph stay lock-cheap.
        self._lock = threading.RLock()

    @property
    def lock(self) -> threading.RLock:
        """The graph's own (re-entrant) lock, for callers whose check and
        graft must be one step."""
        return self._lock

    def __contains__(self, artifact_id: str) -> bool:
        return artifact_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, artifact_id: str):
        """The record inserted under the id."""
        try:
            return self._nodes[artifact_id]
        except KeyError:
            raise UnknownArtifact(f"artifact {artifact_id} not in lineage graph")

    def parents(self, artifact_id: str) -> tuple:
        """Effective parent list: overlay replacement when one exists."""
        return self._overlay.get(artifact_id, self.node(artifact_id).parent_artifact_ids)

    def insert(self, artifact) -> None:
        """Add a node; every parent must already be present.

        The graph keeps the record itself, and ``node`` returns it: an
        ``Artifact``, or anything else with artifact_id / artifact_type /
        producer_agent / timestamp / parent_artifact_ids attributes, whose
        parents are a tuple.
        """
        parent_ids = artifact.parent_artifact_ids
        with self._lock:
            for parent in parent_ids:
                if parent not in self._nodes:
                    raise DanglingParent(
                        f"artifact {artifact.artifact_id} references missing parent {parent}"
                    )
            self._nodes[artifact.artifact_id] = artifact
            if self._children is not None:
                self._link(artifact.artifact_id, dict.fromkeys(parent_ids))
            # A fresh node cannot be anyone's parent yet, so existing depths stand.

    def _pairable(self, node_id: str) -> bool:
        return self._nodes[node_id].artifact_type != POLICY_TYPE

    def _link(self, node_id: str, parents) -> None:
        """Make the node an effective child of each (distinct) parent."""
        pairs = self._pairs if self._pairable(node_id) else None
        for parent in parents:
            siblings = self._children.setdefault(parent, [])
            if pairs is not None:
                for sibling in siblings:
                    if self._pairable(sibling):
                        pairs._add(_pair(sibling, node_id))
            siblings.append(node_id)

    def _unlink(self, node_id: str, parents) -> None:
        """Undo ``_link`` for each (distinct) parent."""
        pairs = self._pairs if self._pairable(node_id) else None
        for parent in parents:
            siblings = self._children[parent]
            siblings.remove(node_id)
            if pairs is not None:
                for sibling in siblings:
                    if self._pairable(sibling):
                        pairs._discard(_pair(sibling, node_id))

    def _children_map(self) -> dict[str, list[str]]:
        """Effective children per parent, built on first use and kept
        current by every insert and graft after that."""
        with self._lock:
            if self._children is None:
                children: dict[str, list[str]] = {}
                for nid in self._nodes:
                    for parent in dict.fromkeys(self.parents(nid)):
                        children.setdefault(parent, []).append(nid)
                self._children = children
            return self._children

    def sibling_pairs(self) -> SiblingPairs:
        """The sibling-pair index, built from the children map on first use
        and kept current by every insert and graft after that."""
        with self._lock:
            if self._pairs is None:
                pairs = SiblingPairs(self._lock)
                for siblings in self._children_map().values():
                    pairable = [s for s in siblings if self._pairable(s)]
                    for i, first in enumerate(pairable):
                        for second in pairable[i + 1:]:
                            pairs._add(_pair(first, second))
                self._pairs = pairs
            return self._pairs

    def depth(self, artifact_id: str) -> int:
        """Longest path from the node to any root; roots are depth 0."""
        with self._lock:
            if artifact_id not in self._nodes:
                raise UnknownArtifact(f"artifact {artifact_id} not in lineage graph")
            memo = self._depth_memo
            stack = [artifact_id]
            while stack:
                current = stack[-1]
                if current in memo:
                    stack.pop()
                    continue
                pending = [p for p in self.parents(current) if p not in memo]
                if pending:
                    stack.extend(pending)
                    continue
                parents = self.parents(current)
                memo[current] = (1 + max(memo[p] for p in parents)) if parents else 0
                stack.pop()
            return memo[artifact_id]

    def would_create_cycle(self, node_id: str, proposed_parent: str) -> bool:
        """True iff re-parenting node onto proposed_parent closes a loop.

        That happens exactly when the proposed parent is the node itself or
        one of its descendants, i.e. the node is reachable by walking parent
        edges upward from the proposed parent.
        """
        self.node(node_id)
        self.node(proposed_parent)
        if proposed_parent == node_id:
            return True
        seen = set()
        stack = [proposed_parent]
        while stack:
            current = stack.pop()
            if current == node_id:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.parents(current))
        return False

    def set_parents(self, node_id: str, new_parents: tuple) -> int:
        """Install an overlay parent list, refusing cycles; return the
        graft's sequence number (1, 2, ... over the graph's life).

        Check and install happen under one lock so concurrent grafts cannot
        jointly close a loop that each check alone would miss.
        """
        with self._lock:
            self.node(node_id)
            for parent in new_parents:
                if parent not in self._nodes:
                    raise DanglingParent(f"overlay parent {parent} not in graph")
                if self.would_create_cycle(node_id, parent):
                    raise CycleRejected(
                        f"re-parenting {node_id} onto {parent} would create a cycle"
                    )
            if self._children is not None:
                old = dict.fromkeys(self.parents(node_id))
                new = dict.fromkeys(new_parents)
                self._unlink(node_id, [p for p in old if p not in new])
                self._link(node_id, [p for p in new if p not in old])
            self._overlay[node_id] = tuple(new_parents)
            self._depth_memo.clear()
            self._graft_seq += 1
            return self._graft_seq

    def children(self, artifact_id: str) -> list[str]:
        """Ids of the node's effective children, in the order they became so."""
        return list(self._children_map().get(artifact_id, ()))

    def leaves(self) -> list[str]:
        """Ids of nodes with no children, in insertion order; under the lock,
        since another agent's insert may add a node meanwhile."""
        with self._lock:
            children = self._children_map()
            return [nid for nid in self._nodes if not children.get(nid)]

    def is_acyclic(self) -> bool:
        """Brute-force three-color DFS over effective parent edges."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {nid: WHITE for nid in self._nodes}
        for start in self._nodes:
            if color[start] != WHITE:
                continue
            stack = [(start, iter(self.parents(start)))]
            color[start] = GRAY
            while stack:
                node_id, edges = stack[-1]
                advanced = False
                for parent in edges:
                    if color[parent] == GRAY:
                        return False
                    if color[parent] == WHITE:
                        color[parent] = GRAY
                        stack.append((parent, iter(self.parents(parent))))
                        advanced = True
                        break
                if not advanced:
                    color[node_id] = BLACK
                    stack.pop()
        return True

    def metrics(self) -> DagMetrics:
        """Structural Table-style metrics over the current graph."""
        per_agent: dict[str, int] = {}
        synthesis = 0
        depths = []
        for node_id, record in self._nodes.items():
            per_agent[record.producer_agent] = per_agent.get(record.producer_agent, 0) + 1
            parents = self.parents(node_id)
            if len(parents) >= 2 or record.artifact_type == "synthesis":
                synthesis += 1
            if parents:
                depths.append(self.depth(node_id))
        avg = sum(depths) / len(depths) if depths else 0.0
        return DagMetrics(
            artifact_count=len(self._nodes),
            synthesis_count=synthesis,
            avg_dag_depth=avg,
            per_agent=dict(sorted(per_agent.items())),
        )

    def _ordered_ids(self) -> list[str]:
        return [node.artifact_id for node in sorted(self._nodes.values(), key=scan_order)]

    def to_dot(self) -> str:
        """Graphviz rendering with deterministic node order."""
        lines = ["digraph lineage {"]
        for nid in self._ordered_ids():
            record = self._nodes[nid]
            lines.append(f'  "{nid}" [label="{record.artifact_type}\\n{record.producer_agent}"];')
        for nid in self._ordered_ids():
            for parent in self.parents(nid):
                lines.append(f'  "{nid}" -> "{parent}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_dump(self) -> dict:
        """Structured nodes-plus-edges dump with deterministic ordering."""
        nodes = []
        edges = []
        for nid in self._ordered_ids():
            record = self._nodes[nid]
            nodes.append({
                "artifact_id": nid,
                "artifact_type": record.artifact_type,
                "producer_agent": record.producer_agent,
                "timestamp": record.timestamp,
                "parent_artifact_ids": list(self.parents(nid)),
            })
            for parent in self.parents(nid):
                edges.append({"child": nid, "parent": parent})
        return {"nodes": nodes, "edges": edges}
