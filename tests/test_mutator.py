from __future__ import annotations

import random
import sys
import tempfile
import threading
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.clock import EPOCH, ManualClock
from artifact.errors import CycleRejected, NotForkable, NotSiblings
from artifact.ledger import create_artifact, new_uuid
from artifact.lineage import LineageGraph
from artifact.mutator import (
    MutationEvent,
    MutationPolicy,
    Mutator,
    drift,
    fork_payloads,
    jaccard,
)


class ZeroNoise:
    def uniform(self, a, b):
        return 0.0


class MutatorHarness:
    """Graph + artifact pool + a mutator whose emissions land in the pool
    and whose events land in ``data_dir``'s mutations.jsonl.

    ``emit`` publishes in the order ``World.emit`` does: with its birth
    cycle ``cycle`` before it is in the graph.
    """

    def __init__(self, data_dir, policy=None, mutator_cls=Mutator):
        self.clock = ManualClock(current=EPOCH, step=timedelta(seconds=1))
        self.rng = random.Random(42)
        self.graph = LineageGraph()
        self.artifacts = {}
        self.birth_cycles = {}
        self.cycle = 0
        self.mutator = mutator_cls(
            agent_name="mora",
            graph=self.graph,
            emit=self.emit,
            policy=policy or MutationPolicy(),
            rng=random.Random(7),
            birth_cycles=self.birth_cycles,
            path=data_dir / "mutations.jsonl",
        )

    def emit(self, artifact_type, skill, payload, parents=(), investigation_id=""):
        artifact = create_artifact(
            artifact_type=artifact_type,
            producer_agent="mora",
            skill=skill,
            payload=payload,
            parents=parents,
            investigation_id=investigation_id,
            needs=None,
            clock=self.clock,
            id_factory=lambda: new_uuid(self.rng),
        )
        self.artifacts[artifact.artifact_id] = artifact
        self.birth_cycles[artifact.artifact_id] = self.cycle
        self.graph.insert(artifact)
        return artifact

    def add(self, payload, parents=(), artifact_type="protein_data", born=0):
        artifact = self.emit(artifact_type, "seed", payload, parents)
        self.birth_cycles[artifact.artifact_id] = born
        return artifact


@pytest.fixture
def harness(tmp_path):
    return MutatorHarness(tmp_path)


# -- policy -------------------------------------------------------------------

def test_policy_defaults():
    policy = MutationPolicy()
    assert policy.stagnation_cycles == 3
    assert policy.redundancy_threshold == 0.7
    assert policy.max_mutations_per_cycle == 2
    assert policy.drift_step == 0.05


def test_policy_bounds_enforced():
    with pytest.raises(ValueError):
        MutationPolicy(stagnation_cycles=0)
    with pytest.raises(ValueError):
        MutationPolicy(redundancy_threshold=0.96)


def test_policy_payload_round_trip():
    policy = MutationPolicy(stagnation_cycles=5, redundancy_threshold=0.8)
    assert MutationPolicy(**policy.to_payload()) == policy


# -- detection ------------------------------------------------------------------

def test_stagnation_strictly_greater_than_k(harness):
    aged = harness.add({"a": 1, "b": 2}, born=0)
    fresh = harness.add({"c": 1, "d": 2}, born=1)
    flagged = harness.mutator.detect_stagnation(current_cycle=4)
    assert aged.artifact_id in flagged       # 4 - 0 > 3
    assert fresh.artifact_id not in flagged  # 4 - 1 == 3, not strict


def test_non_leaf_never_stagnant(harness):
    parent = harness.add({"a": 1, "b": 2}, born=0)
    harness.add({"c": 1, "d": 2}, parents=(parent.artifact_id,), born=0)
    flagged = harness.mutator.detect_stagnation(current_cycle=10)
    assert parent.artifact_id not in flagged


def test_redundancy_identical_keys(harness):
    root = harness.add({"r": 0, "r2": 1})
    a = harness.add({"x": 1, "y": 2}, parents=(root.artifact_id,))
    b = harness.add({"x": 9, "y": 8}, parents=(root.artifact_id,))
    assert (min(a.artifact_id, b.artifact_id), max(a.artifact_id, b.artifact_id)) \
        in harness.mutator.detect_redundancy()


def test_redundancy_disjoint_keys_not_flagged(harness):
    root = harness.add({"r": 0, "r2": 1})
    harness.add({"x": 1}, parents=(root.artifact_id,))
    harness.add({"y": 2}, parents=(root.artifact_id,))
    assert harness.mutator.detect_redundancy() == []


def test_redundancy_jaccard_point_six_not_flagged(harness):
    root = harness.add({"r": 0, "r2": 1})
    harness.add({"a": 1, "b": 1, "c": 1, "d": 1}, parents=(root.artifact_id,))
    harness.add({"a": 2, "b": 2, "c": 2, "e": 2}, parents=(root.artifact_id,))
    # |{a,b,c}| / |{a,b,c,d,e}| = 0.6, not > 0.7
    assert harness.mutator.detect_redundancy() == []
    assert jaccard(frozenset("abcd"), frozenset("abce")) == pytest.approx(0.6)


def test_conflict_same_key_different_values(harness):
    root = harness.add({"r": 0, "r2": 1})
    a = harness.add({"x": 1}, parents=(root.artifact_id,))
    b = harness.add({"x": 2}, parents=(root.artifact_id,))
    conflicts = harness.mutator.detect_conflict()
    pair = tuple(sorted((a.artifact_id, b.artifact_id)))
    assert (pair[0], pair[1], "x") in conflicts


def test_no_conflict_when_values_agree(harness):
    root = harness.add({"r": 0, "r2": 1})
    harness.add({"x": 1}, parents=(root.artifact_id,))
    harness.add({"x": 1}, parents=(root.artifact_id,))
    assert harness.mutator.detect_conflict() == []


def test_no_conflict_on_disjoint_keys(harness):
    root = harness.add({"r": 0, "r2": 1})
    harness.add({"x": 1}, parents=(root.artifact_id,))
    harness.add({"y": 1}, parents=(root.artifact_id,))
    assert harness.mutator.detect_conflict() == []


# -- operations -------------------------------------------------------------------

def test_fork_alternates_sorted_keys():
    child_a, child_b = fork_payloads({"a": 1, "b": 2, "c": 3})
    assert child_a == {"a": 1, "c": 3}
    assert child_b == {"b": 2}


def test_fork_single_key_rejected():
    with pytest.raises(NotForkable):
        fork_payloads({"only": 1})


def test_fork_partitions_parent_keys(harness):
    artifact = harness.add({"a": 1, "b": 2, "c": 3, "d": 4})
    child_a, child_b = harness.mutator.fork(artifact, cycle=0)
    keys_a, keys_b = set(child_a.payload), set(child_b.payload)
    assert keys_a | keys_b == set(artifact.payload)
    assert keys_a & keys_b == set()
    assert child_a.parent_artifact_ids == (artifact.artifact_id,)
    assert child_b.parent_artifact_ids == (artifact.artifact_id,)


def test_merge_duplicate_payload_is_identity(harness):
    root = harness.add({"r": 0, "r2": 1})
    a = harness.add({"x": 1}, parents=(root.artifact_id,))
    b = harness.add({"x": 1}, parents=(root.artifact_id,))
    merged = harness.mutator.merge_siblings(a, b, cycle=0)
    assert merged.payload == {"x": 1}
    assert merged.artifact_type == "synthesis"
    assert len(merged.parent_artifact_ids) == 2


def test_merge_newest_value_survives(harness):
    root = harness.add({"r": 0, "r2": 1})
    older = harness.add({"x": "old"}, parents=(root.artifact_id,))
    newer = harness.add({"x": "new"}, parents=(root.artifact_id,))
    merged = harness.mutator.merge_siblings(older, newer, cycle=0)
    assert merged.payload["x"] == "new"


def test_merge_requires_shared_parent(harness):
    a = harness.add({"x": 1})
    b = harness.add({"x": 2})
    with pytest.raises(NotSiblings):
        harness.mutator.merge_siblings(a, b, cycle=0)


def test_graft_onto_unrelated_root(harness):
    root_a = harness.add({"a": 1, "a2": 2})
    root_b = harness.add({"b": 1, "b2": 2})
    leaf = harness.add({"c": 1}, parents=(root_a.artifact_id,))
    harness.mutator.graft(leaf.artifact_id, root_b.artifact_id, cycle=0)
    assert harness.graph.parents(leaf.artifact_id) == (root_b.artifact_id,)
    assert harness.graph.is_acyclic()


def test_graft_onto_descendant_rejected(harness):
    root = harness.add({"a": 1, "a2": 2})
    child = harness.add({"b": 1}, parents=(root.artifact_id,))
    with pytest.raises(CycleRejected):
        harness.mutator.graft(root.artifact_id, child.artifact_id, cycle=0)


def test_graft_updates_depth(harness):
    deep_root = harness.add({"a": 1, "a2": 2})
    deep_mid = harness.add({"b": 1}, parents=(deep_root.artifact_id,))
    other_root = harness.add({"c": 1, "c2": 2})
    leaf = harness.add({"d": 1}, parents=(other_root.artifact_id,))
    assert harness.graph.depth(leaf.artifact_id) == 1
    harness.mutator.graft(leaf.artifact_id, deep_mid.artifact_id, cycle=0)
    assert harness.graph.depth(leaf.artifact_id) == 2


# -- mutate_cycle -------------------------------------------------------------------

def test_cycle_cap_respected(harness):
    # three stagnant forkable leaves, cap two
    for i in range(3):
        harness.add({f"k{i}": 1, f"m{i}": 2}, born=0)
    events = harness.mutator.mutate_cycle(cycle=10)
    assert len(events) == 2
    assert all(e.kind == "fork" for e in events)


def test_cycle_with_nothing_eligible(harness):
    harness.add({"a": 1, "b": 2}, born=5)
    assert harness.mutator.mutate_cycle(cycle=5) == []


def test_conflict_handled_before_stagnation(harness):
    stale = harness.add({"s1": 1, "s2": 2}, born=0)
    root = harness.add({"r": 0, "r2": 1}, born=8)
    a = harness.add({"x": 1}, parents=(root.artifact_id,), born=8)
    b = harness.add({"x": 2}, parents=(root.artifact_id,), born=8)
    events = harness.mutator.mutate_cycle(cycle=8)
    assert events[0].kind in ("graft", "merge")
    assert set(events[0].inputs) <= {a.artifact_id, b.artifact_id}
    assert stale.artifact_id not in events[0].inputs


def test_cycle_events_keep_dag_acyclic(harness):
    root = harness.add({"r": 0, "r2": 1})
    for i in range(4):
        harness.add({"x": i, f"y{i % 2}": i}, parents=(root.artifact_id,), born=0)
    for cycle in range(1, 8):
        harness.mutator.mutate_cycle(cycle=cycle)
        assert harness.graph.is_acyclic()


def test_grafts_carry_the_graph_sequence(harness):
    roots = [harness.add({"r": i, "r2": i}) for i in range(3)]
    leaf = harness.add({"c": 1}, parents=(roots[0].artifact_id,))
    first = harness.mutator.graft(leaf.artifact_id, roots[1].artifact_id, cycle=0)
    assert harness.graph.set_parents(leaf.artifact_id, (roots[0].artifact_id,)) == 2
    second = harness.mutator.graft(leaf.artifact_id, roots[2].artifact_id, cycle=0)
    assert [e.seq for e in (first, second)] == [1, 3]


def test_cycle_never_merges_a_pair_twice(harness):
    root = harness.add({"r": 0, "r2": 1})
    a = harness.add({"x": 1, "y": 2}, parents=(root.artifact_id,), born=9)
    b = harness.add({"x": 1, "y": 2}, parents=(root.artifact_id,), born=9)
    merges = [[e.kind for e in harness.mutator.mutate_cycle(cycle=c)].count("merge")
              for c in (9, 10, 11)]
    assert merges == [1, 0, 0]
    pair = tuple(sorted((a.artifact_id, b.artifact_id)))
    pairs = harness.graph.sibling_pairs()
    assert pair in pairs.pairs() and not pairs.is_open(pair)


def test_concurrent_agents_merge_each_pair_once(tmp_path):
    """Eight agents' mutators share one graph and mutate it at once."""
    harness = MutatorHarness(tmp_path, policy=MutationPolicy(max_mutations_per_cycle=3))
    root = harness.add({"r": 0, "r2": 1})
    for _ in range(12):
        harness.add({"x": 1, "y": 2}, parents=(root.artifact_id,), born=9)
    mutators = [
        Mutator(agent_name=f"m{i}", graph=harness.graph, emit=harness.emit,
                policy=harness.mutator.policy, rng=random.Random(i),
                birth_cycles=harness.birth_cycles, path=tmp_path / f"m{i}" / "mutations.jsonl")
        for i in range(8)
    ]

    applied = {mutator: [] for mutator in mutators}

    def work(mutator):
        for cycle in range(9, 14):
            applied[mutator] += mutator.mutate_cycle(cycle)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(m,)) for m in mutators]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    merged = [frozenset(e.inputs) for m in mutators for e in applied[m] if e.kind == "merge"]
    assert len(merged) >= 6
    assert len(merged) == len(set(merged))


def test_fork_events_record_io(harness):
    artifact = harness.add({"a": 1, "b": 2}, born=0)
    events = harness.mutator.mutate_cycle(cycle=9)
    fork_events = [e for e in events if e.kind == "fork"]
    assert fork_events[0].inputs == (artifact.artifact_id,)
    assert len(fork_events[0].outputs) == 2


# -- drift ---------------------------------------------------------------------------

def test_drift_zero_rates_loosen_thresholds():
    policy = MutationPolicy()
    updated = drift(policy, conflict_rate=0.0, redundancy_rate=0.0, rng=ZeroNoise())
    assert updated.redundancy_threshold == pytest.approx(0.75)
    assert updated.stagnation_cycles == 4


def test_drift_high_rates_tighten_thresholds():
    policy = MutationPolicy()
    updated = drift(policy, conflict_rate=0.9, redundancy_rate=0.9, rng=ZeroNoise())
    assert updated.redundancy_threshold == pytest.approx(0.65)
    assert updated.stagnation_cycles == 2


def test_drift_deterministic_for_seed():
    policy = MutationPolicy()
    one = drift(policy, 0.5, 0.5, random.Random(99))
    two = drift(policy, 0.5, 0.5, random.Random(99))
    assert one == two


def test_drift_clamps_to_bounds():
    policy = MutationPolicy(redundancy_threshold=0.31, stagnation_cycles=1)
    updated = drift(policy, conflict_rate=1.0, redundancy_rate=1.0, rng=ZeroNoise())
    assert updated.redundancy_threshold >= 0.3
    assert updated.stagnation_cycles >= 1
    gen = random.Random(3)
    for _ in range(200):
        policy = drift(policy, gen.random(), gen.random(), gen)
        assert 0.3 <= policy.redundancy_threshold <= 0.95
        assert 1 <= policy.stagnation_cycles <= 10


def test_policy_artifacts_chain_as_a_path(harness):
    first = harness.mutator.record_policy()
    assert first.parent_artifact_ids == ()
    assert first.artifact_type == "mutation_policy"
    second = harness.mutator.drift_policy()
    assert second.parent_artifact_ids == (first.artifact_id,)
    third = harness.mutator.drift_policy()
    assert third.parent_artifact_ids == (second.artifact_id,)


def test_policy_artifacts_excluded_from_mutation(harness):
    harness.mutator.record_policy()
    events = harness.mutator.mutate_cycle(cycle=50)
    assert events == []


def test_event_invariants():
    with pytest.raises(ValueError):
        MutationEvent(kind="fork", inputs=("a",), outputs=("b",), cycle=0,
                      new_parent=None, seq=None)
    with pytest.raises(ValueError):
        MutationEvent(kind="merge", inputs=("a",), outputs=("b",), cycle=0,
                      new_parent=None, seq=None)
    with pytest.raises(ValueError):
        MutationEvent(kind="graft", inputs=("a",), outputs=(), cycle=0, new_parent=None, seq=1)
    for seq in ("1", None, True):  # a graft carries an integer seq
        with pytest.raises(ValueError):
            MutationEvent(kind="graft", inputs=("a",), outputs=(), cycle=0, new_parent="p",
                          seq=seq)
    with pytest.raises(ValueError):  # and nothing else does
        MutationEvent(kind="fork", inputs=("a",), outputs=("b", "c"), cycle=0,
                      new_parent=None, seq=1)
    MutationEvent(kind="graft", inputs=("a",), outputs=(), cycle=0, new_parent="p", seq=1)
    MutationEvent(kind="fork", inputs=("a",), outputs=("b", "c"), cycle=0,
                  new_parent=None, seq=None)


# -- the sibling-pair index against the full rescan it replaced ----------------------

def rescanned_pairs(graph, ids):
    """Distinct pairs of the ids sharing at least one effective parent, from
    scratch.

    Siblings are gathered in a set: a node that names one parent twice is
    still not its own sibling.
    """
    children = {}
    for node_id in ids:
        if graph.node(node_id).artifact_type == "mutation_policy":
            continue
        for parent in graph.parents(node_id):
            children.setdefault(parent, set()).add(node_id)
    pairs = set()
    for sibling_ids in children.values():
        ordered = sorted(sibling_ids)
        for i, first in enumerate(ordered):
            for second in ordered[i + 1:]:
                pairs.add((first, second))
    return sorted(pairs)


class RescanningMutator(Mutator):
    """The detection and cycle algorithm that rescans every pair on every call.

    It keeps the index's resolved-pair rule in a set of its own: a merged
    pair is never grafted or merged again. Its nodes are the ids in
    ``birth_cycles``, which the harness's ``emit`` fills with every id it
    publishes.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.merged = set()

    def _payload_keys(self, artifact_id):
        return frozenset(self.graph.node(artifact_id).payload)

    def _rescanned_pairs(self):
        return rescanned_pairs(self.graph, list(self.birth_cycles))

    def detect_redundancy(self):
        flagged = []
        for a_id, b_id in self._rescanned_pairs():
            keys_a = self._payload_keys(a_id)
            keys_b = self._payload_keys(b_id)
            if jaccard(keys_a, keys_b) > self.policy.redundancy_threshold:
                flagged.append((a_id, b_id))
        return flagged

    def detect_conflict(self):
        flagged = []
        for a_id, b_id in self._rescanned_pairs():
            art_a = self.graph.node(a_id)
            art_b = self.graph.node(b_id)
            for key in sorted(set(art_a.payload) & set(art_b.payload)):
                if art_a.payload[key] != art_b.payload[key]:
                    flagged.append((a_id, b_id, key))
        return flagged

    def mutate_cycle(self, cycle):
        budget = self.policy.max_mutations_per_cycle
        applied = []
        touched = set()
        sibling_pairs = self._rescanned_pairs()
        conflicts = self.detect_conflict()
        redundant = self.detect_redundancy()
        denominator = max(1, len(sibling_pairs))
        conflict_pairs = sorted({(a, b) for a, b, _ in conflicts})
        self.last_rates = (
            len(conflict_pairs) / denominator,
            len(redundant) / denominator,
        )
        for a_id, b_id in conflict_pairs:
            if len(applied) >= budget:
                return applied
            if a_id in touched or b_id in touched or (a_id, b_id) in self.merged:
                continue
            try:
                applied.append(self.graft(b_id, a_id, cycle=cycle))
            except CycleRejected:
                self.merge_siblings(self.graph.node(a_id), self.graph.node(b_id), cycle=cycle)
                self.merged.add((a_id, b_id))
                applied.append(self.last_event)
            touched.update((a_id, b_id))
        for a_id, b_id in redundant:
            if len(applied) >= budget:
                return applied
            if a_id in touched or b_id in touched or (a_id, b_id) in self.merged:
                continue
            if not self._share_parent(a_id, b_id):
                continue
            self.merge_siblings(self.graph.node(a_id), self.graph.node(b_id), cycle=cycle)
            self.merged.add((a_id, b_id))
            applied.append(self.last_event)
            touched.update((a_id, b_id))
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


small_payloads = st.dictionaries(st.sampled_from("abcd"), st.integers(0, 1), min_size=1)
inserts = st.tuples(
    st.just("insert"),
    st.lists(st.integers(0, 7), max_size=3),  # parent picks; an id may repeat
    small_payloads,
    st.booleans(),  # a mutation_policy node
    st.integers(0, 3),  # birth cycle
)
grafts = st.tuples(st.just("graft"), st.integers(0, 30), st.integers(0, 30))
cycles = st.tuples(st.just("cycle"))


@settings(max_examples=150)
@given(
    ops=st.lists(st.one_of(inserts, inserts, inserts, grafts, cycles), min_size=10, max_size=40),
    threshold=st.sampled_from([0.3, 0.5, 0.7]),
    budget=st.integers(0, 3),
)
def test_pair_index_matches_full_rescan(ops, threshold, budget):
    policy = MutationPolicy(redundancy_threshold=threshold, max_mutations_per_cycle=budget)
    with tempfile.TemporaryDirectory() as tmp:
        live = MutatorHarness(Path(tmp) / "live", policy=policy)
        rescan = MutatorHarness(Path(tmp) / "rescan", policy=policy,
                                mutator_cls=RescanningMutator)
        try:
            replay_against_rescan(ops, live, rescan)
        finally:
            live.mutator.file.close()
            rescan.mutator.file.close()


def replay_against_rescan(ops, live, rescan):
    """Apply ``ops`` to both harnesses, checking after each mutation cycle
    that the live mutator detects and applies what the rescanning one does."""
    cycle = 0
    for op in ops:
        ids = list(live.artifacts)
        if op[0] == "insert":
            _, picks, payload, policy_node, born = op
            parents = tuple(ids[i % len(ids)] for i in picks) if ids else ()
            kind = "mutation_policy" if policy_node else "protein_data"
            for harness in (live, rescan):
                harness.add(payload, parents, artifact_type=kind, born=born)
        elif op[0] == "graft" and ids:
            node, parent = ids[op[1] % len(ids)], ids[op[2] % len(ids)]
            outcomes = []
            for harness in (live, rescan):
                try:
                    harness.graph.set_parents(node, (parent,))
                    outcomes.append("accepted")
                except CycleRejected:
                    outcomes.append("rejected")
            assert outcomes[0] == outcomes[1]
        elif op[0] == "cycle":
            cycle += 1
            live.cycle = rescan.cycle = cycle
            assert live.graph.sibling_pairs().pairs() == rescanned_pairs(live.graph, ids)
            assert live.mutator.detect_conflict() == rescan.mutator.detect_conflict()
            assert live.mutator.detect_redundancy() == rescan.mutator.detect_redundancy()
            events = [e.to_dict() for e in live.mutator.mutate_cycle(cycle)]
            expected = [e.to_dict() for e in rescan.mutator.mutate_cycle(cycle)]
            assert events == expected
            assert live.mutator.last_rates == rescan.mutator.last_rates
            live.mutator.drift_policy()
            rescan.mutator.drift_policy()
    graph = live.graph
    ids = list(live.artifacts)
    assert graph.sibling_pairs().pairs() == rescanned_pairs(graph, ids)
    for node_id in ids:
        assert sorted(graph.children(node_id)) == \
            sorted(n for n in ids if node_id in graph.parents(n))
    assert graph.leaves() == [n for n in ids if not any(n in graph.parents(m) for m in ids)]
