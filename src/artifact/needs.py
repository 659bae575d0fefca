"""Need signals: validated demand broadcasts attached to artifacts.

A need names an artifact type, a query targeting the gap, and a rationale;
it may carry up to six parameter variants for parallel exploration and an
ordered hint of preferred fulfilling skills.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from .canonical import canonicalize, known_fields
from .errors import (
    InvalidNeedsSignal,
    QueryTooShort,
    RationaleTooShort,
    TooManyVariants,
    UnknownArtifactType,
)

MIN_QUERY_CHARS = 5
MIN_RATIONALE_CHARS = 20
MAX_VARIANTS = 6
MAX_NEED_ITEMS = 2

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class NeedItem:
    artifact_type: str
    query: str
    rationale: str
    parallel_variants: tuple = ()
    preferred_skills: tuple = ()

    def __post_init__(self):
        if len(self.query) < MIN_QUERY_CHARS:
            raise QueryTooShort(f"query must be at least {MIN_QUERY_CHARS} chars: {self.query!r}")
        if len(self.rationale) < MIN_RATIONALE_CHARS:
            raise RationaleTooShort(
                f"rationale must be at least {MIN_RATIONALE_CHARS} chars: {self.rationale!r}"
            )
        if len(self.parallel_variants) > MAX_VARIANTS:
            raise TooManyVariants(
                f"at most {MAX_VARIANTS} variants allowed, got {len(self.parallel_variants)}"
            )
        for variant in self.parallel_variants:
            # Variants are outside data, written as they are: check them here.
            canonicalize(dict(variant))

    def to_dict(self) -> dict:
        return {
            "artifact_type": self.artifact_type,
            "query": self.query,
            "rationale": self.rationale,
            "parallel_variants": [dict(v) for v in self.parallel_variants],
            "preferred_skills": list(self.preferred_skills),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NeedItem":
        known_fields(data, cls.__dataclass_fields__.keys())
        return cls(
            artifact_type=data["artifact_type"],
            query=data["query"],
            rationale=data["rationale"],
            parallel_variants=tuple(data["parallel_variants"]),
            preferred_skills=tuple(data["preferred_skills"]),
        )


@dataclass(frozen=True)
class NeedsSignal:
    items: tuple = field(default=())

    def __post_init__(self):
        if not 1 <= len(self.items) <= MAX_NEED_ITEMS:
            raise InvalidNeedsSignal(
                f"a needs signal carries 1 to {MAX_NEED_ITEMS} items, got {len(self.items)}"
            )

    def to_dict(self) -> dict:
        return {"items": [item.to_dict() for item in self.items]}

    @classmethod
    def from_dict(cls, data: dict) -> "NeedsSignal":
        known_fields(data, cls.__dataclass_fields__.keys())
        return cls(items=tuple(NeedItem.from_dict(d) for d in data["items"]))


def make_need(
    artifact_type: str,
    query: str,
    rationale: str,
    variants: Iterable[dict] = (),
    preferred_skills: Iterable[str] = (),
    known_types: Iterable[str] | None = None,
) -> NeedItem:
    """Build a validated NeedItem, optionally checking the type vocabulary."""
    if known_types is not None and artifact_type not in set(known_types):
        raise UnknownArtifactType(f"need declares unregistered artifact type {artifact_type!r}")
    return NeedItem(
        artifact_type=artifact_type,
        query=query,
        rationale=rationale,
        parallel_variants=tuple(dict(v) for v in variants),
        preferred_skills=tuple(preferred_skills),
    )


def tokenize(query: str) -> set[str]:
    """Lowercase alphanumeric tokens, split on non-alphanumeric runs.

    Length-1 tokens are dropped so stray initials and punctuation debris do
    not create spurious overlap.
    """
    return {tok for tok in _TOKEN_RE.findall(query.lower()) if len(tok) > 1}
