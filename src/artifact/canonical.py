"""Canonical payload serialization and content hashing.

A payload is a JSON-style tree whose top level is a map. The canonical byte
form sorts keys lexicographically at every nesting level, uses minimal
separators and UTF-8, writes integers without exponent form and floats in
shortest round-trip decimal form. Two payloads that differ only in map-key
order canonicalize to identical bytes, so the content hash is order-blind.

json's C encoder does the checking: it refuses a value it cannot write, a
non-finite float and a tree that contains itself. It would write an int,
float, bool or None map key as a string, so ``canonicalize`` and
``content_hash`` walk the containers and refuse every key that is not a
string, after the encoder, which has already refused a cyclic tree. They
are where data from outside the simulator enters a record: skill params,
payloads and need variants. ``canonical_line`` writes records the simulator
built from those, and does not walk them again.

A record read back has exactly the fields its writer writes, and every
writer writes every field: ``known_fields`` is that rule, for each record of
a run's files and each record nested in one. Free-form maps (payloads,
journal metadata, need variants, per-agent counts) are not records, and
hold any keys.
"""

from __future__ import annotations

import hashlib
import json
from typing import AbstractSet

from .errors import InvalidPayload

Payload = dict


def _refuse(value):
    raise InvalidPayload(f"unserializable value of type {type(value).__name__}")


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                            allow_nan=False, default=_refuse)


def _check_keys(tree) -> None:
    """Refuse a map key that is not a string, anywhere in an acyclic tree."""
    pending = [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, dict):
            for key in node:
                if not isinstance(key, str):
                    raise InvalidPayload(f"non-string key {key!r}")
            node = node.values()
        pending.extend([item for item in node if isinstance(item, (dict, list, tuple))])


def _encode(record: dict) -> str:
    if not isinstance(record, dict):
        raise InvalidPayload(f"payload top level must be a map, got {type(record).__name__}")
    try:
        return _ENCODER.encode(record)
    except (TypeError, ValueError) as exc:  # a key of no JSON form, a cycle, a NaN
        raise InvalidPayload(str(exc)) from None


def canonicalize(payload: Payload) -> bytes:
    """Deterministic byte form of a payload; raises InvalidPayload on bad input."""
    text = _encode(payload)
    _check_keys(payload)
    return text.encode("utf-8")


def content_hash(payload: Payload) -> str:
    """SHA-256 of the canonical byte form, as 64 lowercase hex chars."""
    return hashlib.sha256(canonicalize(payload)).hexdigest()


def canonical_line(record: dict) -> bytes:
    """One newline-terminated canonical record in UTF-8, as used by every
    JSONL store. Its map keys are not checked: the record's outside data
    was checked where it entered."""
    return (_encode(record) + "\n").encode("utf-8")


def known_fields(record: dict, names: AbstractSet[str]) -> dict:
    """``record`` itself, once its keys are exactly ``names``: a field that
    no writer writes, or one missing, raises ValueError."""
    if record.keys() != names:
        raise ValueError(f"unknown field(s) {sorted(record.keys() - names)}, "
                         f"missing field(s) {sorted(names - record.keys())}")
    return record
