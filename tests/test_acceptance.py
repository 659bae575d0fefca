"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Stated runtime budgets are asserted with a monotonic timer.
"""

from __future__ import annotations

import json
import math
import random
import time
from datetime import timedelta

import pytest

from artifact.canonical import content_hash
from artifact.clock import EPOCH, ManualClock
from artifact.errors import CorruptStore, RateLimited
from artifact.governance import GovernanceLedger, Tier, tier_of
from artifact.ledger import ArtifactStore, read_log
from artifact.mutator import MutationPolicy
from artifact.needs import NeedItem
from artifact.pressure import PressureContext, centrality, novelty, pressure
from artifact.reactor import merge_payloads, reaction_fields
from artifact.rundir import RunDir, read_store
from artifact.sim import Scenario, demo_scenario, load_world_dag, run

from .conftest import random_payload, shuffle_keys
from .test_governance import call, make_post
from .test_mutator import MutatorHarness
from .test_reactor import FakeParent
from .test_sim import fig2_scenario, tree_digest

RATIONALE = "this data is needed to unblock a downstream synthesis"


def _pass(number: int, title: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {title}")


def _need(query="TP53 Y220C", artifact_type="protein_data"):
    return NeedItem(artifact_type=artifact_type, query=query, rationale=RATIONALE)


def _context(coverage=0, count=1, parent_depth=0, age_minutes=0.0):
    return PressureContext(
        coverage=coverage,
        centrality=count,
        parent_depth=parent_depth,
        created=EPOCH,
        now=EPOCH + timedelta(minutes=age_minutes),
    )


def test_criterion_01_pressure_formula_fidelity():
    started = time.monotonic()
    assert abs(novelty(0) - 1.0) <= 1e-9
    assert abs(novelty(2) - 1 / 3) <= 1e-9

    ours = _need()
    baseline = pressure(_context(count=centrality(ours, [ours])))
    assert baseline.score == 3.0  # 2*1.0 + 1*1.0 + 0 + 0, exactly

    gen = random.Random(1001)
    for _ in range(1000):
        coverage = gen.randint(0, 25)
        depth = gen.randint(0, 12)
        minutes = gen.uniform(0, 50_000)
        peers = gen.randint(0, 7)
        pool = [ours] + [_need(query=f"TP53 Y220C peer {i}") for i in range(peers)]
        ctx = _context(coverage=coverage, count=centrality(ours, pool),
                       parent_depth=depth, age_minutes=minutes)
        got = pressure(ctx).score
        elapsed = (ctx.now - ctx.created).total_seconds() / 60
        expected = 2.0 * (1 / (1 + coverage)) + 1.0 * (1 + peers) + 0.5 * depth + 0.2 * math.log(1 + elapsed)
        assert abs(got - expected) <= 1e-12
    runtime = time.monotonic() - started
    assert runtime < 1.0, f"criterion 1 took {runtime:.2f}s"
    _pass(1, "pressure formula fidelity (novelty, exact weights, 1000-context oracle)")


def test_criterion_02_centrality_worked_example():
    started = time.monotonic()
    ours = _need(query="somatostatin receptor SSTR2")
    pool = [ours] + [
        _need(query=f"SSTR2 binding study {i}") for i in range(4)
    ]
    assert centrality(ours, pool) == 5.0
    runtime = time.monotonic() - started
    assert runtime < 1.0
    _pass(2, "five-agent same-entity centrality equals 5.0")


def test_criterion_03_merge_semantics():
    started = time.monotonic()
    a = FakeParent("a", "2024-01-01T00:00:01.000000+00:00", {"x": 1, "y": 2})
    b = FakeParent("b", "2024-01-01T00:00:02.000000+00:00", {"y": 3, "z": 4})
    assert merge_payloads([a, b]) == {"x": 1, "y": 3, "z": 4}
    single = FakeParent("s", "2024-01-01T00:00:01.000000+00:00", {"k": [1, 2]})
    assert merge_payloads([single]) == {"k": [1, 2]}

    gen = random.Random(2002)
    for _ in range(1000):
        parents = []
        for i in range(gen.randint(1, 6)):
            payload = {f"k{gen.randint(0, 8)}": gen.randint(0, 999)
                       for _ in range(gen.randint(1, 6))}
            parents.append(FakeParent(
                f"p{i}", f"2024-01-01T00:00:{gen.randint(0, 3):02d}.000000+00:00",
                payload,
            ))
        expected = {}
        for parent in sorted(parents, key=lambda p: (p.timestamp, p.artifact_id)):
            for key, value in parent.payload.items():
                expected[key] = value
        assert merge_payloads(parents) == expected
    runtime = time.monotonic() - started
    assert runtime < 2.0, f"criterion 3 took {runtime:.2f}s"
    _pass(3, "merge equals brute-force fold oracle on 1000 random parent sets")


def _loop_prevention_scenario() -> Scenario:
    gen = random.Random(2024)
    agents = [
        {"name": "ada", "preferred_tools": [
            "paper_search", "citation_graph", "topic_summary", "protein_lookup"]},
        {"name": "ben", "preferred_tools": [
            "protein_lookup", "sequence_align", "motif_scan"]},
        {"name": "cal", "preferred_tools": [
            "compound_lookup", "admet_predict", "retro_synthesis", "protein_lookup"]},
        {"name": "dia", "preferred_tools": [
            "materials_search", "stability_check", "candidate_rank", "compound_lookup"]},
    ]
    stems = [
        "protein receptor binding", "peptide sequence motif",
        "ceramic materials density", "compound admet screen",
        "literature survey papers", "crystal alloy stiffness",
    ]
    seeded = []
    for cycle in range(50):
        for agent in agents:
            if gen.random() < 0.35:
                stem = gen.choice(stems)
                seeded.append({
                    "cycle": cycle,
                    "agent": agent["name"],
                    "topic": f"{stem} x{gen.randint(100, 999)}",
                })
    return Scenario.from_dict({
        "seed": 777, "cycles": 50, "agents": agents, "seeded_topics": seeded,
    })


def test_criterion_04_loop_prevention_over_50_cycles(tmp_path):
    started = time.monotonic()
    scenario = _loop_prevention_scenario()
    world = None
    acyclic_checks = []

    from artifact import sim as sim_module

    original_run = sim_module.run  # run() builds the world; check via World.emit
    world = sim_module.World(scenario, tmp_path / "out")
    emit = world.emit

    def emit_then_check(agent_name, **kwargs):
        artifact = emit(agent_name, **kwargs)
        if kwargs.get("before_store") is not None:  # the product of a reaction
            acyclic_checks.append(world.graph.is_acyclic())
        return artifact

    world.emit = emit_then_check
    for cycle in range(scenario.cycles):
        world.current_cycle = cycle
        world.clock.advance(seconds=21600)
        for name in world.agents:
            sim_module.heartbeat(world, name, cycle)

    consumed_counts: dict[str, int] = {}
    for name in world.agents:
        for _, (consumed_ids, _, _) in read_log(world.run_dir.agent(name).reactions,
                                                reaction_fields):
            for consumed in consumed_ids:
                consumed_counts[consumed] = consumed_counts.get(consumed, 0) + 1
                assert world.resolve_id(consumed).producer_agent != name, \
                    f"{name} consumed its own artifact"
    assert consumed_counts, "the run produced no consuming reactions"
    assert all(count == 1 for count in consumed_counts.values()), \
        "an artifact was consumed twice"
    assert acyclic_checks and all(acyclic_checks)
    assert original_run is sim_module.run
    runtime_s = time.monotonic() - started
    assert runtime_s < 30.0, f"criterion 4 took {runtime_s:.2f}s"
    _pass(4, f"50-cycle/4-agent run: {len(consumed_counts)} consumptions unique, "
             f"{len(acyclic_checks)} post-reaction cycle checks clean")


def test_criterion_05_emergent_synthesis(tmp_path):
    started = time.monotonic()
    world, _ = run(fig2_scenario(), tmp_path / "out")
    spanning = []
    for entry in world.index.entries():
        if entry.artifact_type != "synthesis" or len(entry.parent_artifact_ids) < 2:
            continue
        producers = {world.resolve_id(p).producer_agent
                     for p in entry.parent_artifact_ids}
        if len(producers) >= 2:
            spanning.append(entry)
    assert spanning, "no multi-producer synthesis emerged"
    for entry in spanning:
        assert entry.parent_artifact_ids == \
            world.resolve_id(entry.artifact_id).parent_artifact_ids
    runtime = time.monotonic() - started
    assert runtime < 5.0, f"criterion 5 took {runtime:.2f}s"
    _pass(5, f"{len(spanning)} synthesis artifact(s) span >=2 producers, "
             f"index records all parents")


def test_criterion_06_mutation_thresholds(tmp_path):
    policy = MutationPolicy()  # paper defaults: 3 / 0.7 / 2

    # fork strictly after 3 stagnant cycles, not at 3
    h = MutatorHarness(tmp_path / "m1", policy=policy)
    leaf = h.add({"a": 1, "b": 2}, born=0)
    assert h.mutator.mutate_cycle(cycle=3) == []
    events = h.mutator.mutate_cycle(cycle=4)
    assert [e.kind for e in events] == ["fork"]
    assert events[0].inputs == (leaf.artifact_id,)

    # merge at jaccard > 0.7; the 0.6 pair stays untouched
    h2 = MutatorHarness(tmp_path / "m2", policy=policy)
    root = h2.add({"r1": 0, "r2": 0}, born=0)
    h2.add({"a": 1, "b": 1, "c": 1, "d": 1}, parents=(root.artifact_id,), born=0)
    h2.add({"a": 2, "b": 2, "c": 2, "e": 2}, parents=(root.artifact_id,), born=0)
    assert h2.mutator.detect_redundancy() == []  # 3/5 = 0.6
    twin_a = h2.add({"k1": 1, "k2": 1}, parents=(root.artifact_id,), born=0)
    twin_b = h2.add({"k1": 9, "k2": 9}, parents=(root.artifact_id,), born=0)
    assert tuple(sorted((twin_a.artifact_id, twin_b.artifact_id))) \
        in h2.mutator.detect_redundancy()

    # conflict handled before stagnation, and never more than 2 events/cycle
    h3 = MutatorHarness(tmp_path / "m3", policy=policy)
    for i in range(3):
        h3.add({f"s{i}": 1, f"t{i}": 2}, born=0)  # three stagnant leaves
    root3 = h3.add({"r": 0, "r2": 0}, born=9)
    h3.add({"x": 1}, parents=(root3.artifact_id,), born=9)
    h3.add({"x": 2}, parents=(root3.artifact_id,), born=9)
    events = h3.mutator.mutate_cycle(cycle=9)
    assert len(events) == 2  # capped at max_mutations_per_cycle
    assert events[0].kind in ("graft", "merge")  # the conflict goes first
    assert events[1].kind == "fork"
    _pass(6, "fork after 3 stagnant cycles, merge above 0.7 Jaccard, "
             "conflict first, 2-per-cycle cap")


def test_criterion_07_governance_boundary_sweep():
    expected = {
        -101: Tier.BANNED, -100: Tier.BANNED, -99: Tier.SHADOWBAN,
        -21: Tier.SHADOWBAN, -20: Tier.SHADOWBAN, -19: Tier.PROBATION,
        0: Tier.PROBATION, 49: Tier.PROBATION, 50: Tier.ACTIVE,
        199: Tier.ACTIVE, 200: Tier.ACTIVE,
    }
    for karma, tier in expected.items():
        assert tier_of(karma, 0) == tier, f"kappa={karma}"
    assert tier_of(250, 999) == Tier.ACTIVE
    assert tier_of(250, 1000) == Tier.TRUSTED
    _pass(7, "tier table matches at all 11 boundary karmas plus the "
             "reputation floor")


def test_criterion_08_rate_limits(tmp_path):
    clock = ManualClock(current=EPOCH, step=timedelta(0))
    ledger = GovernanceLedger(tmp_path / "gov.jsonl", clock=clock)
    for name in ("poster", "voter", "trusty"):
        ledger.register_agent(name)

    post = make_post(ledger, author="poster", title="first")
    clock.advance(minutes=10)
    with pytest.raises(RateLimited) as err:
        make_post(ledger, author="poster", title="too soon")
    assert abs(err.value.retry_after - 20 * 60) < 1e-6
    clock.advance(minutes=20)
    make_post(ledger, author="poster", title="exactly on time")

    call(ledger.create_comment, "voter", post.id, "first comment")
    clock.advance(seconds=5)
    with pytest.raises(RateLimited) as err:
        call(ledger.create_comment, "voter", post.id, "too soon")
    assert abs(err.value.retry_after - 15) < 1e-6
    clock.advance(seconds=15)
    for i in range(49):
        call(ledger.create_comment, "voter", post.id, f"comment {i}")
        clock.advance(seconds=20)
    with pytest.raises(RateLimited) as err:
        call(ledger.create_comment, "voter", post.id, "the 51st today")
    next_midnight = (clock.current + timedelta(days=1)).replace(
        hour=0, minute=0, second=0, microsecond=0)
    assert abs(err.value.retry_after -
               (next_midnight - clock.current).total_seconds()) < 1e-6

    for _ in range(200):
        ledger.apply_vote("voter", post.id, +1)
    with pytest.raises(RateLimited):
        ledger.apply_vote("voter", post.id, +1)

    trusty = ledger.account("trusty")
    trusty.karma, trusty.citations_received = 250, 100
    trusty.refresh()
    assert trusty.tier == Tier.TRUSTED
    for _ in range(400):
        ledger.apply_vote("trusty", post.id, +1)
    with pytest.raises(RateLimited):
        ledger.apply_vote("trusty", post.id, +1)
    _pass(8, "30-min post, 20-s comment, 50/day comment, 200/400 vote quotas "
             "with exact retry-after")


def test_criterion_09_hash_and_store_integrity(tmp_path, make_artifact):
    gen = random.Random(3003)
    for _ in range(1000):
        payload = random_payload(gen)
        assert content_hash(payload) == content_hash(shuffle_keys(gen, payload))

    run_dir = RunDir(tmp_path)
    store = ArtifactStore(run_dir.agent("alice").store)
    originals = [make_artifact(payload=random_payload(gen)) for _ in range(20)]
    for artifact in originals:
        store.append(artifact)
    assert list(read_store(run_dir, "alice", {})) == originals

    raw = store.log.path.read_bytes()
    store.log.path.write_bytes(raw[:-7])
    with pytest.raises(CorruptStore) as err:
        list(read_store(run_dir, "alice", {}))
    assert err.value.line_number == len(originals)
    _pass(9, "1000-payload hash stability, lossless store round-trip, "
             "truncation detected")


def _brute_force_avg_depth(out_dir) -> float:
    """Independent recomputation straight off the raw files."""
    graph, artifacts, _ = load_world_dag(out_dir)
    memo: dict[str, int] = {}

    def depth_of(node_id: str) -> int:
        if node_id in memo:
            return memo[node_id]
        parents = graph.parents(node_id)
        value = 0 if not parents else 1 + max(depth_of(p) for p in parents)
        memo[node_id] = value
        return value

    depths = [
        depth_of(a) for a in artifacts
        if graph.parents(a)
    ]
    return sum(depths) / len(depths) if depths else 0.0


def test_criterion_10_demo_determinism(tmp_path):
    started = time.monotonic()
    scenario = demo_scenario()
    assert len(scenario.agents) == 3 and scenario.cycles == 5
    run(scenario, tmp_path / "one")
    run(scenario, tmp_path / "two")
    assert tree_digest(tmp_path / "one") == tree_digest(tmp_path / "two")

    report = json.loads((tmp_path / "one" / "report.json").read_text())
    recomputed = _brute_force_avg_depth(tmp_path / "one")
    assert abs(report["dag_metrics"]["avg_dag_depth"] - recomputed) <= 1e-12
    runtime = time.monotonic() - started
    _pass(10, f"demo byte-identical across runs; avg depth "
              f"{recomputed:.4f} matches brute force ({runtime:.1f}s)")
