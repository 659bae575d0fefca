"""Canonical payload serialization and content hashing.

A payload is a JSON-style tree whose top level is a map. The canonical byte
form sorts keys lexicographically at every nesting level, uses minimal
separators and UTF-8, writes integers without exponent form and floats in
shortest round-trip decimal form. Two payloads that differ only in map-key
order canonicalize to identical bytes, so the content hash is order-blind.

json's C encoder does the checking: it refuses a value it cannot write, a
non-finite float and a tree that contains itself. It would write an int,
float, bool or None map key as a string, so a walk over the containers
refuses every key that is not a string, after the encoder, which has
already refused a cyclic tree.
"""

from __future__ import annotations

import hashlib
import json

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
        text = _ENCODER.encode(record)
    except (TypeError, ValueError) as exc:  # a key of no JSON form, a cycle, a NaN
        raise InvalidPayload(str(exc)) from None
    _check_keys(record)
    return text


def canonicalize(payload: Payload) -> bytes:
    """Deterministic byte form of a payload; raises InvalidPayload on bad input."""
    return _encode(payload).encode("utf-8")


def content_hash(payload: Payload) -> str:
    """SHA-256 of the canonical byte form, as 64 lowercase hex chars."""
    return hashlib.sha256(canonicalize(payload)).hexdigest()


def canonical_line(record: dict) -> bytes:
    """One newline-terminated canonical record in UTF-8, as used by every
    JSONL store."""
    return (_encode(record) + "\n").encode("utf-8")
