from __future__ import annotations

import json
import random
import threading
from datetime import timedelta

import pytest

from artifact import reactor as reactor_module
from artifact.clock import EPOCH, ManualClock
from artifact.errors import CorruptStore
from artifact.index import GlobalIndex, NeedKey
from artifact.ledger import ArtifactStore, create_artifact, new_uuid
from artifact.lineage import LineageGraph
from artifact.needs import NeedItem, NeedsSignal
from artifact.reactor import (
    ArtifactReactor,
    build_params,
    merge_payloads,
    param_keys,
    schema_overlap,
)
from artifact.skills import SkillManifest, load_profile, registry_from_dict

from .conftest import nothing_stored, stored_records

RATIONALE = "downstream synthesis is blocked on this data"


def manifest(name="s", params=("query",), json_fields=(), output="protein_data"):
    return SkillManifest(
        name=name, input_params=tuple(params), json_fields=tuple(json_fields),
        output_artifact_type=output, domain="protein", behavior="protein_record",
        salt=name,
    )


# -- schema overlap ------------------------------------------------------------

def test_overlap_on_shared_param():
    assert schema_overlap(manifest(params=("smiles", "model")), {"smiles", "name"})


def test_no_overlap():
    assert not schema_overlap(manifest(params=("query",)), {"hits", "count"})


def test_overlap_via_json_fields():
    m = manifest(params=("input_json",), json_fields=("papers",))
    assert schema_overlap(m, {"papers", "count"})


def test_build_params_wraps_json_payload():
    m = manifest(params=("input_json",), json_fields=("papers",))
    payload = {"papers": ["p1"], "count": 1}
    params = build_params(m, payload)
    assert params["input_json"] == payload


# -- merge ----------------------------------------------------------------------

class FakeParent:
    def __init__(self, artifact_id, timestamp, payload):
        self.artifact_id = artifact_id
        self.timestamp = timestamp
        self.payload = payload


def test_merge_newest_value_wins():
    a = FakeParent("a", "2024-01-01T00:00:01.000000+00:00", {"x": 1, "y": 2})
    b = FakeParent("b", "2024-01-01T00:00:02.000000+00:00", {"y": 3, "z": 4})
    assert merge_payloads([b, a]) == {"x": 1, "y": 3, "z": 4}


def test_merge_single_parent_is_identity():
    a = FakeParent("a", "2024-01-01T00:00:01.000000+00:00", {"x": 1})
    assert merge_payloads([a]) == {"x": 1}


def test_merge_timestamp_tie_breaks_by_id():
    ts = "2024-01-01T00:00:01.000000+00:00"
    a = FakeParent("a", ts, {"k": "from-a"})
    b = FakeParent("b", ts, {"k": "from-b"})
    assert merge_payloads([a, b])["k"] == "from-b"
    assert merge_payloads([b, a])["k"] == "from-b"


def test_merge_matches_brute_force_fold():
    gen = random.Random(17)
    for _ in range(1000):
        parents = []
        for i in range(gen.randint(1, 5)):
            payload = {f"k{gen.randint(0, 6)}": gen.randint(0, 99)
                       for _ in range(gen.randint(1, 5))}
            parents.append(FakeParent(
                f"id{i}",
                f"2024-01-01T00:00:{gen.randint(0, 2):02d}.000000+00:00",
                payload,
            ))
        expected = {}
        for parent in sorted(parents, key=lambda p: (p.timestamp, p.artifact_id)):
            for key, value in parent.payload.items():
                expected[key] = value
        assert merge_payloads(parents) == expected


# -- harness ----------------------------------------------------------------------

class Harness:
    """A shared index (which holds the claims) and graph, and one store and
    reactor per agent; ``emit`` reads the clock and publishes under one lock,
    in the order ``World.emit`` does, and the reactors publish through it."""

    def __init__(self, tmp_path, registry, agents: dict):
        self.registry = registry
        self.clock = ManualClock(current=EPOCH, step=timedelta(seconds=1))
        self.index = GlobalIndex(tmp_path / "index.jsonl", nothing_stored)
        self.graph = LineageGraph()
        self._emit_lock = threading.Lock()
        self.reactors = {}
        self.stores = {}
        self.rngs = {}
        for name, tools in agents.items():
            profile = load_profile({"name": name, "preferred_tools": tools}, registry)
            agent_dir = tmp_path / "agents" / name
            store = ArtifactStore(agent_dir / "store.jsonl")
            self.stores[name] = store
            self.rngs[name] = random.Random(name)  # str seeding is stable
            self.reactors[name] = self.reactor(name, profile, self.index)

    def reactor(self, name, profile, index):
        """A reactor for the agent on ``index`` that shares the harness's graph."""
        return ArtifactReactor(
            profile=profile,
            registry=self.registry,
            index=index,
            graph=self.graph,
            emit=lambda **kwargs: self.emit(name, **kwargs),
            reactions_path=self.stores[name].log.path.parent / "reactions.jsonl",
            clock=self.clock,
            rng=self.rngs[name],
        )

    def emit(self, agent, artifact_type, payload, parents=(), needs=None, skill="synthesize",
             investigation_id="", fulfills=None, before_store=None):
        with self._emit_lock:
            artifact = create_artifact(
                artifact_type=artifact_type,
                producer_agent=agent,
                skill=skill,
                payload=payload,
                parents=parents,
                investigation_id=investigation_id,
                needs=needs,
                clock=self.clock,
                known_types=self.registry.artifact_types(),
                id_factory=lambda: new_uuid(self.rngs[agent]),
            )
            if before_store is not None:
                before_store(artifact)
            self.stores[agent].append(artifact)
            self.graph.insert(artifact)
            self.index.publish(artifact, fulfills)
        return artifact


@pytest.fixture
def harness(tmp_path, registry):
    return Harness(tmp_path, registry, {
        "alice": ["paper_search", "protein_lookup"],
        "bob": ["protein_lookup", "sequence_align", "motif_scan"],
        "carol": ["protein_lookup"],
    })


def need(artifact_type, query="seed query", variants=(), preferred=()):
    return NeedItem(
        artifact_type=artifact_type, query=query, rationale=RATIONALE,
        parallel_variants=tuple(variants), preferred_skills=tuple(preferred),
    )


# -- scanning -----------------------------------------------------------------

def test_scan_available_excludes_own(harness):
    harness.emit("bob", "protein_data", {"sequence": "MKT"})
    assert harness.reactors["bob"].scan_available() == []


def test_scan_available_finds_compatible_peer(harness):
    artifact = harness.emit("alice", "protein_data", {"sequence": "MKT"})
    found = harness.reactors["bob"].scan_available()
    assert found == [(artifact, param_keys(artifact.payload))]
    assert harness.reactors["bob"].can_react(artifact)


def test_scan_available_excludes_consumed(harness):
    artifact = harness.emit("alice", "protein_data", {"sequence": "MKT"})
    harness.index.claim_all((artifact.artifact_id,))
    assert harness.reactors["bob"].scan_available() == []


def test_scan_available_enforces_domain_gate(harness):
    # materials_data is outside bob's preferred domains.
    harness.emit("alice", "materials_data", {"sequence": "MKT"})
    assert harness.reactors["bob"].scan_available() == []


def test_synthesis_passes_domain_gate(harness):
    artifact = harness.emit("alice", "synthesis", {"sequence": "MKT"})
    validation = harness.emit("alice", "peer_validation", {"sequence": "QQT"})
    found = harness.reactors["bob"].scan_available()
    assert {a.artifact_id for a, _ in found} == {artifact.artifact_id,
                                                 validation.artifact_id}


def test_incompatible_payload_not_available(harness):
    harness.emit("alice", "protein_data", {"nothing_shared": 1})
    assert harness.reactors["bob"].scan_available() == []


def test_scan_needs_basic(harness):
    signal = NeedsSignal(items=(need("sequence_alignment"),))
    carrier = harness.emit("alice", "synthesis", {"topic": "t"}, needs=signal)
    board = harness.index.open_needs({})
    rows = harness.reactors["bob"].scan_needs(board)
    assert [(k.artifact_id, k.need_index) for k, _, _ in rows] == [(carrier.artifact_id, 0)]
    # alice cannot answer her own need; carol cannot produce the type
    assert harness.reactors["alice"].scan_needs(board) == []
    assert harness.reactors["carol"].scan_needs(board) == []


def test_scan_needs_excludes_consumed_key(harness):
    """A claimed key leaves the needs board at the claim, also while its
    answer is not (or never gets) published, so no reactor runs a skill
    for it."""
    signal = NeedsSignal(items=(need("sequence_alignment"),))
    carrier = harness.emit("alice", "synthesis", {"topic": "t"}, needs=signal)
    key = NeedKey(carrier.artifact_id, 0, "default")
    assert harness.index.claim_need(key)
    assert harness.index.open_needs({}) == []
    state = harness.rngs["bob"].getstate()
    assert harness.reactors["bob"].react_to_needs(limit=1) == []
    assert harness.rngs["bob"].getstate() == state  # no skill was run for it


# -- need-driven reactions ------------------------------------------------------

def test_single_need_limit_three(harness):
    signal = NeedsSignal(items=(need("sequence_alignment"),))
    carrier = harness.emit("alice", "synthesis", {"topic": "t"}, needs=signal)
    records = harness.reactors["bob"].react_to_needs(limit=3)
    assert len(records) == 1
    record = records[0]
    assert record.kind == "need_driven"
    assert record.consumed_ids == ()
    assert record.fulfilled_need == NeedKey(carrier.artifact_id, 0, "default")
    assert record.pressure is not None and record.pressure.score >= 3.0
    produced = harness.graph.node(record.produced_id)
    assert produced.artifact_type == "sequence_alignment"
    assert produced.parent_artifact_ids == (carrier.artifact_id,)
    # fulfillment is visible in the index
    assert [key for _, key in harness.index.fulfillments()] == [record.fulfilled_need]


def test_higher_pressure_need_wins_budget(harness):
    # A deeper carrying artifact boosts the depth term by 0.5 per level.
    root = harness.emit("alice", "protein_data", {"nothing_shared": 0})
    mid = harness.emit("alice", "protein_data", {"nothing_shared": 1},
                       parents=(root.artifact_id,))
    deep = harness.emit(
        "alice", "synthesis", {"topic": "deep"},
        parents=(mid.artifact_id,),
        needs=NeedsSignal(items=(need("sequence_alignment", query="deep need query"),)),
    )
    shallow = harness.emit(
        "alice", "synthesis", {"topic": "shallow"},
        needs=NeedsSignal(items=(need("sequence_alignment", query="shallow need query"),)),
    )
    records = harness.reactors["bob"].react_to_needs(limit=1)
    assert len(records) == 1
    assert records[0].fulfilled_need.artifact_id == deep.artifact_id
    # the shallow need stays open
    still_open = {k.artifact_id for k, _, _ in harness.index.open_needs({})}
    assert shallow.artifact_id in still_open


def test_variant_need_records_variant_key(harness):
    signal = NeedsSignal(items=(
        need("sequence_alignment",
             variants=({"sequence": "AAAA"}, {"sequence": "CCCC"})),
    ))
    carrier = harness.emit("alice", "synthesis", {"topic": "t"}, needs=signal)
    records = harness.reactors["bob"].react_to_needs(limit=1)
    assert records[0].fulfilled_need == NeedKey(carrier.artifact_id, 0, "v0")
    produced = harness.graph.node(records[0].produced_id)
    assert produced.payload["echo"]["sequence"] == "AAAA"  # variant overrides query
    # the sibling variant remains open
    open_keys = {k.text for k, _, _ in harness.index.open_needs({})}
    assert f"{carrier.artifact_id}:0:v1" in open_keys


def test_need_preferred_skill_honored(tmp_path):
    registry = registry_from_dict({"skills": [
        {"name": "alt_protein", "input_params": ["--query"],
         "output_artifact_type": "protein_data", "domain": "protein",
         "behavior": "protein_record"},
        {"name": "main_protein", "input_params": ["--query"],
         "output_artifact_type": "protein_data", "domain": "protein",
         "behavior": "protein_record"},
    ]})
    harness = Harness(tmp_path, registry, {"alice": [], "bob": []})
    signal = NeedsSignal(items=(need("protein_data", preferred=("main_protein",)),))
    harness.emit("alice", "synthesis", {"topic": "t"}, needs=signal, skill="synthesize")
    records = harness.reactors["bob"].react_to_needs(limit=1)
    assert records[0].skill == "main_protein"


def test_failed_fulfillment_leaves_need_open(tmp_path):
    registry = registry_from_dict({"skills": [
        {"name": "wide", "input_params": ["--alpha", "--beta"],
         "output_artifact_type": "wide_data", "domain": "protein",
         "behavior": "protein_record"},
    ]})
    harness = Harness(tmp_path, registry, {"alice": [], "bob": ["wide"]})
    signal = NeedsSignal(items=(
        need("wide_data", query="needs beta"),
        need("wide_data", query="has beta", variants=({"beta": 1},)),
    ))
    carrier = harness.emit("alice", "synthesis", {"topic": "t"}, needs=signal)
    records = harness.reactors["bob"].react_to_needs(limit=3)
    # only the variant-bearing need can execute; the other stays open
    assert [r.fulfilled_need.need_index for r in records] == [1]
    open_rows = harness.index.open_needs({})
    assert [(k.artifact_id, k.need_index) for k, _, _ in open_rows] == \
        [(carrier.artifact_id, 0)]


# -- multi-parent synthesis --------------------------------------------------------

def test_multi_parent_synthesis(harness):
    a1 = harness.emit("alice", "protein_data", {"sequence": "AAA", "organism": "human"})
    c1 = harness.emit("carol", "protein_data", {"sequence": "CCC"})
    record = harness.reactors["bob"].react_multi()
    assert record is not None
    assert record.kind == "multi_parent"
    assert set(record.consumed_ids) == {a1.artifact_id, c1.artifact_id}
    produced = harness.graph.node(record.produced_id)
    assert produced.artifact_type == "synthesis"
    assert produced.producer_agent == "bob"
    # parents ordered oldest -> newest and recorded in the index entry
    assert produced.parent_artifact_ids == (a1.artifact_id, c1.artifact_id)
    entry = [e for e in harness.index.entries()
             if e.artifact_id == produced.artifact_id][0]
    assert entry.parent_artifact_ids == (a1.artifact_id, c1.artifact_id)
    # merged payload respected newest-wins
    assert produced.payload["echo"]["sequence"] == "CCC"


def test_multi_parent_needs_two(harness):
    harness.emit("alice", "protein_data", {"sequence": "AAA"})
    assert harness.reactors["bob"].react_multi() is None


def test_multi_parent_excludes_own_artifacts(harness):
    harness.emit("bob", "protein_data", {"sequence": "AAA"})
    harness.emit("bob", "protein_data", {"sequence": "BBB"})
    assert harness.reactors["bob"].react_multi() is None


# -- the phased react() ------------------------------------------------------------

def test_react_phase_order_and_budget(harness):
    signal = NeedsSignal(items=(
        need("sequence_alignment", query="alignment needed"),
        need("motif_report", query="motif needed"),
    ))
    harness.emit("alice", "synthesis", {"topic": "t"}, needs=signal)
    harness.emit("alice", "protein_data", {"sequence": "AAA"})
    harness.emit("carol", "protein_data", {"sequence": "CCC"})
    records = harness.reactors["bob"].react(limit=3)
    assert [r.kind for r in records] == ["need_driven", "need_driven", "multi_parent"]


def test_react_limit_zero(harness):
    harness.emit("alice", "protein_data", {"sequence": "AAA"})
    assert harness.reactors["bob"].react(limit=0) == []


def test_react_single_parent_phase(harness):
    artifact = harness.emit("alice", "protein_data", {"sequence": "AAA"})
    records = harness.reactors["bob"].react(limit=3)
    assert [r.kind for r in records] == ["single_parent"]
    assert records[0].consumed_ids == (artifact.artifact_id,)
    produced = harness.graph.node(records[0].produced_id)
    assert produced.parent_artifact_ids == (artifact.artifact_id,)
    assert produced.artifact_type == "sequence_alignment"


def test_no_re_reaction_across_agents(harness):
    harness.emit("alice", "protein_data", {"sequence": "AAA"})
    first = harness.reactors["bob"].react(limit=3)
    consumed_by_bob = {i for r in first for i in r.consumed_ids}
    assert consumed_by_bob
    second = harness.reactors["carol"].react(limit=3)
    consumed_by_carol = {i for r in second for i in r.consumed_ids}
    assert consumed_by_bob.isdisjoint(consumed_by_carol)


def test_ledger_files_on_disk(harness, tmp_path):
    """reactions.jsonl is the one persisted record of what was consumed."""
    artifact = harness.emit("alice", "protein_data", {"sequence": "AAA"})
    signal = NeedsSignal(items=(need("sequence_alignment"),))
    carrier = harness.emit("alice", "synthesis", {"topic": "t"}, needs=signal)
    harness.reactors["bob"].react(limit=3)
    bob_dir = tmp_path / "agents" / "bob"
    lines = [json.loads(raw) for raw in
             (bob_dir / "reactions.jsonl").read_text(encoding="utf-8").splitlines()]
    assert artifact.artifact_id in {i for line in lines for i in line["consumed_ids"]}
    assert f"{carrier.artifact_id}:0:default" in {line["fulfilled_need"] for line in lines}
    assert list(bob_dir.glob("consumed*.txt")) == []


def test_reaction_line_is_on_disk_before_its_product_is_published(harness, tmp_path):
    """For every reaction kind, the line naming the product is written
    before the product's store line, and so before anyone can see it."""
    log_path = tmp_path / "agents" / "bob" / "reactions.jsonl"
    store = harness.stores["bob"]
    store_append = store.append
    seen = []

    def check_log(artifact):
        last = json.loads(log_path.read_text(encoding="utf-8").splitlines()[-1])
        seen.append((last["kind"], last["produced_id"] == artifact.artifact_id,
                     artifact.artifact_id in harness.graph))
        store_append(artifact)

    store.append = check_log
    bob = harness.reactors["bob"]
    signal = NeedsSignal(items=(need("sequence_alignment"),))
    harness.emit("alice", "synthesis", {"topic": "t"}, needs=signal)
    harness.emit("alice", "protein_data", {"sequence": "AAA"})
    harness.emit("carol", "protein_data", {"sequence": "CCC"})
    assert [r.kind for r in bob.react_to_needs(limit=1)] == ["need_driven"]
    assert bob.react_multi().kind == "multi_parent"
    harness.emit("alice", "protein_data", {"sequence": "GGG"})
    assert bob.react_single().kind == "single_parent"
    assert seen == [("need_driven", True, False), ("multi_parent", True, False),
                    ("single_parent", True, False)]
    logged = [json.loads(line)["produced_id"] for line in log_path.read_text().splitlines()]
    assert logged == [a.artifact_id for a in stored_records(store.log.path)]


def test_a_candidate_row_holds_its_payload_keys(harness):
    """A board row holds the artifact and the keys a fresh read gives, a
    claimed entry is never admitted, and a row claimed since goes."""
    artifact = harness.emit("alice", "protein_data", {"sequence": "AAA"})
    taken = harness.emit("carol", "protein_data", {"sequence": "CCC"})
    harness.index.claim_all((taken.artifact_id,))
    reactor = harness.reactors["bob"]
    (found, keys), = reactor.scan_available()
    assert found is artifact
    assert keys == param_keys(artifact.payload) and "sequence" in keys
    harness.index.claim_all((artifact.artifact_id,))
    assert reactor.scan_available() == []


def counting_param_keys(monkeypatch) -> list:
    """The payloads ``param_keys`` reads from now on, one per call."""
    reads = []
    monkeypatch.setattr(reactor_module, "param_keys",
                        lambda payload: reads.append(payload) or param_keys(payload))
    return reads


def test_reactors_of_one_profile_read_each_payload_once(tmp_path, registry, monkeypatch):
    """Reactors with the same tools read one board: each payload's keys are
    read once between them, however often they scan, and a reactor never
    sees its own product, while its twin does."""
    harness = Harness(tmp_path, registry, {
        "alice": ["paper_search", "protein_lookup"],
        "carol": ["protein_lookup", "sequence_align"],
        "dave": ["protein_lookup", "sequence_align"],
    })
    reads = counting_param_keys(monkeypatch)
    first = harness.emit("alice", "protein_data", {"sequence": "AAA"})
    second = harness.emit("carol", "protein_data", {"sequence": "CCC", "query": "q"})
    carol, dave = harness.reactors["carol"], harness.reactors["dave"]
    assert [a for a, _ in carol.scan_available()] == [first]
    assert [a for a, _ in dave.scan_available()] == [first, second]
    assert [a for a, _ in carol.scan_available()] == [first]
    assert sorted(reads, key=len) == [first.payload, second.payload]
    # alice's profile is another, so its board reads the payloads again.
    assert [a for a, _ in harness.reactors["alice"].scan_available()] == [second]
    assert sorted(reads, key=len) == [first.payload, first.payload,
                                      second.payload, second.payload]


# -- exclusive need keys ------------------------------------------------------------

def test_need_key_has_exactly_one_winner(tmp_path, registry):
    """Two reactors that both see a need as open answer it once between them."""
    harness = Harness(tmp_path, registry, {
        "alice": ["paper_search"],
        "bob": ["sequence_align"],
        "dave": ["sequence_align"],
    })
    signal = NeedsSignal(items=(need("sequence_alignment"),))
    carrier = harness.emit("alice", "synthesis", {"topic": "t"}, needs=signal)
    # Both take their rows from the same view of the board, as two agents
    # running at once do before either has published its answer.
    stale_counts: dict = {}
    stale = harness.index.open_needs(stale_counts)

    def stale_view(centrality):
        centrality.update(stale_counts)
        return list(stale)

    harness.index.open_needs = stale_view
    records = [r for name in ("bob", "dave")
               for r in harness.reactors[name].react_to_needs(limit=1)]
    key = NeedKey(carrier.artifact_id, 0, "default")
    assert [r.fulfilled_need for r in records] == [key]
    assert [k for _, k in harness.index.fulfillments()].count(key) == 1


def test_need_claim_lost_after_the_skill_ran(tmp_path, registry, monkeypatch):
    """A reactor whose skill ran while a peer answered the same key loses the
    claim and writes nothing."""
    import artifact.reactor as reactor_module

    harness = Harness(tmp_path, registry, {
        "alice": ["paper_search"],
        "bob": ["sequence_align"],
        "dave": ["sequence_align"],
    })
    signal = NeedsSignal(items=(need("sequence_alignment"),))
    carrier = harness.emit("alice", "synthesis", {"topic": "t"}, needs=signal)
    real_execute = reactor_module.execute
    calls = []

    def execute_while_bob_answers(manifest, params, seed):
        calls.append(seed)
        if len(calls) == 1:  # dave's run: bob answers the key meanwhile
            assert [r.fulfilled_need for r in harness.reactors["bob"].react_to_needs(limit=1)]
        return real_execute(manifest, params, seed)

    monkeypatch.setattr(reactor_module, "execute", execute_while_bob_answers)
    assert harness.reactors["dave"].react_to_needs(limit=1) == []
    key = NeedKey(carrier.artifact_id, 0, "default")
    assert len(calls) == 2
    assert [(a.producer_agent, k) for a, k in harness.index.fulfillments()] == [("bob", key)]
    assert not (tmp_path / "agents" / "dave" / "reactions.jsonl").exists()


def restart(harness, name, index):
    """A new reactor on ``index`` for an agent whose earlier reactor has run."""
    return harness.reactor(name, harness.reactors[name].profile, index)


def fresh_index(tmp_path):
    return GlobalIndex(tmp_path / "restarted" / "index.jsonl", nothing_stored)


def test_claims_are_seeded_from_both_ledger_files(harness, tmp_path):
    """Both kinds of consumption, artifact ids and need keys, are seeded
    from the agent's reactions.jsonl into the index a restart runs on."""
    artifact = harness.emit("alice", "protein_data", {"sequence": "AAA"})
    signal = NeedsSignal(items=(need("sequence_alignment"),))
    carrier = harness.emit("alice", "synthesis", {"topic": "t"}, needs=signal)
    harness.reactors["bob"].react(limit=3)
    restarted = fresh_index(tmp_path)
    restart(harness, "bob", restarted)
    assert restarted.claimed(artifact.artifact_id)
    assert not restarted.claim_need(NeedKey(carrier.artifact_id, 0, "default"))
    assert not restarted.claim_all((artifact.artifact_id,))


def test_damaged_reaction_line_stops_a_restart(harness, tmp_path):
    harness.emit("alice", "protein_data", {"sequence": "AAA"})
    assert len(harness.reactors["bob"].react(limit=1)) == 1
    path = harness.reactors["bob"].reactions_path
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"consumed_ids": "abc", "fulfilled_need": null}\n')
    with pytest.raises(CorruptStore) as info:
        restart(harness, "bob", fresh_index(tmp_path))
    assert (info.value.path, info.value.line_number) == (str(path), 2)


def test_need_keys_stay_exclusive_under_thread_contention(tmp_path, registry):
    """Many reactors race on threads for the same needs; none is answered twice."""
    import sys

    names = [f"r{i}" for i in range(12)]
    harness = Harness(tmp_path, registry,
                      {"alice": ["paper_search"], **{n: ["sequence_align"] for n in names}})
    for i in range(6):
        signal = NeedsSignal(items=(
            need("sequence_alignment", query=f"alignment {i} query",
                 variants=({"sequence": "AAAA"}, {"sequence": "CCCC"})),
        ))
        harness.emit("alice", "synthesis", {"topic": f"t{i}"}, needs=signal)
    start = threading.Barrier(len(names))
    errors = []
    records = {}

    def work(name):
        try:
            start.wait(timeout=10)
            records[name] = harness.reactors[name].react_to_needs(limit=3)
        except Exception as exc:  # reported below: a thread must not die silently
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    answered = [key.text for _, key in harness.index.fulfillments()]
    logged = [r.fulfilled_need.text for n in names for r in records[n]]
    assert len(answered) == len(set(answered)) == 12
    assert sorted(logged) == sorted(answered)


def test_reactors_of_one_profile_share_a_board_under_threads(tmp_path, registry):
    """Reactors of one profile publish, scan and react on threads at once,
    reading one board; afterwards no artifact was consumed twice, and each
    reactor's scan equals a filter of the whole index through its
    ``can_react``, which reads no board."""
    import sys

    names = [f"r{i}" for i in range(6)]
    harness = Harness(tmp_path, registry,
                      {n: ["protein_lookup", "sequence_align"] for n in names})
    start = threading.Barrier(len(names))
    errors = []
    records = {}

    def work(name):
        try:
            start.wait(timeout=10)
            records[name] = []
            for i in range(8):
                harness.emit(name, "protein_data", {"sequence": f"{name}-{i}"})
                record = harness.reactors[name].react_single()
                records[name] += [record] if record is not None else []
        except Exception as exc:  # reported below: a thread must not die silently
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    consumed = [i for n in names for r in records[n] for i in r.consumed_ids]
    assert consumed and len(consumed) == len(set(consumed))
    for name in names:
        reactor = harness.reactors[name]
        expected = [(a, param_keys(a.payload)) for a in harness.index.scan(exclude_producer=name)
                    if reactor.can_react(a)]
        assert reactor.scan_available() == expected
