"""Deterministic pressure scoring and ranking of open needs.

score = 2.0 * novelty + 1.0 * centrality + 0.5 * depth + 0.2 * age

Novelty is 1/(1 + coverage), so unanswered needs outrank well-served ones.
Centrality counts convergent demand: open needs of the same type whose query
tokens overlap. ``centrality`` is its specification; in a simulation the
index keeps each open need's count as needs open and close, and the reactor
hands that count in through the context. Depth is the DAG depth of the
artifact carrying the need.
The age term grows as log(1 + minutes), so a need left open long enough
eventually outranks any fixed competitor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from typing import Mapping, Sequence

from .clock import parse_timestamp
from .errors import ClockSkew, InvalidCoverage
from .index import NeedKey
from .ledger import Artifact
from .needs import NeedItem, tokenize

W_NOVELTY = 2.0
W_CENTRALITY = 1.0
W_DEPTH = 0.5
W_AGE = 0.2


@dataclass(frozen=True, slots=True)
class PressureBreakdown:
    novelty: float
    centrality: float
    depth_term: int
    age_term: float
    score: float

    def to_dict(self) -> dict:
        return {
            "novelty": self.novelty,
            "centrality": self.centrality,
            "depth_term": self.depth_term,
            "age_term": self.age_term,
            "score": self.score,
        }


@dataclass(frozen=True, slots=True)
class PressureContext:
    """What a need's score depends on. ``centrality`` is the need's count,
    which the function ``centrality`` specifies and the index keeps."""

    coverage: int
    centrality: int
    parent_depth: int
    created: datetime
    now: datetime


def novelty(coverage: int) -> float:
    if coverage < 0:
        raise InvalidCoverage(f"coverage must be non-negative, got {coverage}")
    return 1.0 / (1.0 + coverage)


def centrality(need: NeedItem, open_needs: Sequence[NeedItem]) -> float:
    """Count of open same-type needs with overlapping query tokens.

    The need itself always counts once, so a lone need scores 1.0.
    """
    tokens = tokenize(need.query)
    count = 1
    for other in open_needs:
        if other is need:
            continue
        if other.artifact_type == need.artifact_type and tokens & tokenize(other.query):
            count += 1
    return float(count)


def age_term(created: datetime, now: datetime) -> float:
    if now < created:
        raise ClockSkew(f"now {now} precedes created {created}")
    minutes = (now - created).total_seconds() / 60.0
    return math.log(1.0 + minutes)


def pressure(context: PressureContext) -> PressureBreakdown:
    nov = novelty(context.coverage)
    cen = float(context.centrality)
    age = age_term(context.created, context.now)
    score = W_NOVELTY * nov + W_CENTRALITY * cen + W_DEPTH * context.parent_depth + W_AGE * age
    return PressureBreakdown(
        novelty=nov,
        centrality=cen,
        depth_term=context.parent_depth,
        age_term=age,
        score=score,
    )


@dataclass(frozen=True, slots=True)
class RankedNeed:
    key: NeedKey
    item: NeedItem
    carrier: Artifact
    breakdown: PressureBreakdown


def rank(
    rows: Sequence[tuple[NeedKey, NeedItem, Artifact]],
    contexts: Mapping[str, PressureContext],
    ranking_agent: str,
) -> list[RankedNeed]:
    """Open needs in descending pressure order for one agent.

    Needs broadcast by the ranking agent itself are excluded. Ties break
    toward the older need, then by key text, which keeps the order total and
    shuffle-independent.
    """
    scored = []
    for key, item, carrier in rows:
        if carrier.producer_agent == ranking_agent:
            continue
        context = contexts[key.text]
        scored.append(RankedNeed(key, item, carrier, pressure(context)))
    scored.sort(key=lambda r: (-r.breakdown.score, r.carrier.timestamp, r.key.text))
    return scored


def build_context(
    carrier: Artifact,
    coverage: int,
    centrality_count: int,
    parent_depth: int,
    now: datetime,
) -> PressureContext:
    """The pressure context of one need row, as the reactor ranks it, with
    the centrality count the index keeps for the row."""
    return PressureContext(
        coverage=coverage,
        centrality=centrality_count,
        parent_depth=parent_depth,
        created=parse_timestamp(carrier.timestamp),
        now=now,
    )
