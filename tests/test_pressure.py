from __future__ import annotations

import math
import random
from datetime import timedelta

import pytest

from artifact.clock import EPOCH
from artifact.errors import ClockSkew, InvalidCoverage
from artifact.index import NeedKey
from artifact.ledger import Artifact
from artifact.needs import NeedItem
from artifact.pressure import (
    PressureContext,
    age_term,
    centrality,
    novelty,
    pressure,
    rank,
)

RATIONALE = "this entity is blocking downstream synthesis"


def need(artifact_type="protein_data", query="TP53 Y220C"):
    return NeedItem(artifact_type=artifact_type, query=query, rationale=RATIONALE)


def entry(artifact_id, producer="alice", timestamp=None):
    """A need carrier; ranking reads only its producer and timestamp."""
    return Artifact(
        artifact_id=artifact_id,
        artifact_type="synthesis",
        producer_agent=producer,
        skill="topic_summary",
        schema_version=1,
        payload={},
        investigation_id="",
        timestamp=timestamp or "2024-01-01T00:00:00.000000+00:00",
        content_hash="",
        parent_artifact_ids=(),
        needs=None,
    )


def context(coverage=0, count=1, parent_depth=0, age_minutes=0.0):
    return PressureContext(
        coverage=coverage,
        centrality=count,
        parent_depth=parent_depth,
        created=EPOCH,
        now=EPOCH + timedelta(minutes=age_minutes),
    )


# -- novelty ------------------------------------------------------------------

def test_novelty_fresh_need():
    assert novelty(0) == 1.0


def test_novelty_after_two_fulfillments():
    assert novelty(2) == pytest.approx(1 / 3, abs=1e-9)


def test_novelty_at_nine():
    assert novelty(9) == pytest.approx(0.1)


def test_novelty_rejects_negative():
    with pytest.raises(InvalidCoverage):
        novelty(-1)


# -- centrality ----------------------------------------------------------------

def test_centrality_five_agents_same_entity():
    ours = need()
    others = [need(query=f"TP53 Y220C from agent {i}") for i in range(4)]
    assert centrality(ours, [ours] + others) == 5.0


def test_centrality_lone_need():
    ours = need()
    assert centrality(ours, [ours]) == 1.0


def test_centrality_disjoint_tokens():
    ours = need(query="TP53 Y220C")
    other = need(query="BRCA1 V600E")
    assert centrality(ours, [ours, other]) == 1.0


def test_centrality_requires_same_type():
    ours = need(artifact_type="protein_data")
    other = need(artifact_type="pubmed_results")
    assert centrality(ours, [ours, other]) == 1.0


# -- age ------------------------------------------------------------------------

def test_age_zero():
    assert age_term(EPOCH, EPOCH) == 0.0


def test_age_log_identity():
    # ln(1 + (e - 1)) == 1 in the reals; timedelta quantizes to whole
    # microseconds, which bounds the error around 2e-9.
    now = EPOCH + timedelta(minutes=math.e - 1)
    assert age_term(EPOCH, now) == pytest.approx(1.0, abs=1e-6)


def test_age_monotone():
    early = age_term(EPOCH, EPOCH + timedelta(minutes=5))
    late = age_term(EPOCH, EPOCH + timedelta(minutes=6))
    assert late > early


def test_age_clock_skew():
    with pytest.raises(ClockSkew):
        age_term(EPOCH + timedelta(minutes=1), EPOCH)


# -- full score -------------------------------------------------------------------

def test_score_baseline_is_three():
    ours = need()
    breakdown = pressure(context(count=centrality(ours, [ours])))
    assert breakdown.score == 3.0
    assert breakdown.novelty == 1.0
    assert breakdown.centrality == 1.0
    assert breakdown.depth_term == 0
    assert breakdown.age_term == 0.0


def test_score_worked_example():
    ours = need()
    others = [need(query=f"TP53 Y220C agent {i}") for i in range(4)]
    breakdown = pressure(context(coverage=2, count=centrality(ours, [ours] + others),
                                 parent_depth=2))
    assert breakdown.score == pytest.approx(2 * (1 / 3) + 5 + 1 + 0, abs=1e-9)


def test_score_decreases_with_coverage():
    ours = need()
    scores = [
        pressure(context(coverage=c, count=centrality(ours, [ours]))).score
        for c in range(6)
    ]
    assert all(a > b for a, b in zip(scores, scores[1:]))


def test_score_matches_independent_reevaluation():
    gen = random.Random(21)
    ours = need()
    for _ in range(1000):
        coverage = gen.randint(0, 20)
        depth = gen.randint(0, 15)
        minutes = gen.uniform(0, 10_000)
        pool_size = gen.randint(0, 6)
        pool = [ours] + [need(query=f"TP53 Y220C peer {i}") for i in range(pool_size)]
        ctx = context(coverage=coverage, count=centrality(ours, pool),
                      parent_depth=depth, age_minutes=minutes)
        breakdown = pressure(ctx)
        elapsed = (ctx.now - ctx.created).total_seconds() / 60
        expected = 2.0 * (1 / (1 + coverage)) + 1.0 * (1 + pool_size) \
            + 0.5 * depth + 0.2 * math.log(1 + elapsed)
        assert breakdown.score == pytest.approx(expected, abs=1e-12)


def test_starvation_age_overtakes_fixed_score():
    ours = need()
    early = pressure(context(age_minutes=0)).score
    # Hold everything else fixed; enough elapsed time must beat a fixed
    # competitor score, here one with maximal novelty and depth 2.
    competitor = 2.0 + 1.0 + 0.5 * 2
    minutes = math.exp((competitor - early) / 0.2)
    late = pressure(context(age_minutes=minutes)).score
    assert early < competitor < late


# -- rank ---------------------------------------------------------------------

def make_row(key_id, query, producer="alice", timestamp=None, need_index=0):
    item = need(query=query)
    key = NeedKey(key_id, need_index, "default")
    return (key, item, entry(key_id, producer=producer, timestamp=timestamp))


def contexts_for(rows, **overrides):
    return {
        key.text: context(**overrides.get(key.text, {}))
        for key, _, _ in rows
    }


def test_rank_higher_score_first():
    busy = make_row("a1", "TP53 Y220C")
    quiet = make_row("b1", "unrelated thing")
    rows = [quiet, busy]
    ctxs = {
        busy[0].text: context(parent_depth=6, count=centrality(busy[1], [busy[1]])),
        quiet[0].text: context(parent_depth=0, count=centrality(quiet[1], [quiet[1]])),
    }
    ranked = rank(rows, ctxs, ranking_agent="zara")
    assert [r.key.artifact_id for r in ranked] == ["a1", "b1"]
    assert ranked[0].breakdown.score > ranked[1].breakdown.score


def test_rank_tie_breaks_by_age_then_key():
    older = make_row("b1", "same query", timestamp="2024-01-01T00:00:01.000000+00:00")
    newer = make_row("a1", "same query", timestamp="2024-01-01T00:00:02.000000+00:00")
    rows = [newer, older]
    ctxs = contexts_for(rows)
    ranked = rank(rows, ctxs, ranking_agent="zara")
    assert [r.key.artifact_id for r in ranked] == ["b1", "a1"]


def test_rank_excludes_own_needs():
    own = make_row("a1", "mine query", producer="zara")
    peer = make_row("b1", "peer query", producer="alice")
    rows = [own, peer]
    ranked = rank(rows, contexts_for(rows), ranking_agent="zara")
    assert [r.key.artifact_id for r in ranked] == ["b1"]


def test_rank_is_permutation_and_shuffle_stable():
    gen = random.Random(3)
    rows = [make_row(f"n{i}", f"query number {i}") for i in range(8)]
    ctxs = {key.text: context(parent_depth=gen.randint(0, 4)) for key, _, _ in rows}
    baseline = [r.key.text for r in rank(rows, ctxs, "zara")]
    assert sorted(baseline) == sorted(key.text for key, _, _ in rows)
    for _ in range(5):
        shuffled = rows[:]
        gen.shuffle(shuffled)
        assert [r.key.text for r in rank(shuffled, ctxs, "zara")] == baseline
