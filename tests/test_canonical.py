from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, strategies as st

from artifact.canonical import canonical_line, canonicalize, content_hash
from artifact.errors import InvalidPayload

from .conftest import random_payload, shuffle_keys

# SHA-256 of the two-byte canonical form of the empty map, b"{}",
# computed independently with hashlib over the literal bytes.
EMPTY_MAP_HASH = hashlib.sha256(b"{}").hexdigest()


def test_key_order_independence():
    assert canonicalize({"b": 1, "a": 2}) == canonicalize({"a": 2, "b": 1})


def test_empty_map_is_two_bytes():
    assert canonicalize({}) == b"{}"


def test_sequence_order_is_significant():
    assert canonicalize({"x": [1, 2]}) != canonicalize({"x": [2, 1]})


def test_nested_key_sorting():
    assert canonicalize({"a": {"z": 1, "y": 2}}) == b'{"a":{"y":2,"z":1}}'


def test_utf8_not_escaped():
    assert canonicalize({"k": "é"}) == '{"k":"é"}'.encode("utf-8")


def test_non_map_top_level_rejected():
    with pytest.raises(InvalidPayload):
        canonicalize([1, 2, 3])
    with pytest.raises(InvalidPayload):
        canonicalize("text")


def test_non_finite_rejected():
    with pytest.raises(InvalidPayload):
        canonicalize({"x": float("nan")})
    with pytest.raises(InvalidPayload):
        canonicalize({"x": float("inf")})


def test_non_string_key_rejected():
    with pytest.raises(InvalidPayload):
        canonicalize({1: "a"})


def test_unserializable_value_rejected():
    with pytest.raises(InvalidPayload):
        canonicalize({"x": object()})


@pytest.mark.parametrize("payload", [
    {"a": [{1: "x"}]},
    {"a": {None: 1}},
    {"a": {True: 1}},
    {"a": ({2.5: 1},)},
    {1: "a", "b": 2},   # keys that do not even sort together
    {(1, 2): "x"},      # a key json has no form for
])
def test_non_string_key_rejected_at_any_depth(payload):
    with pytest.raises(InvalidPayload):
        canonicalize(payload)


def test_self_containing_payload_rejected():
    payload = {"a": 1}
    payload["self"] = payload
    with pytest.raises(InvalidPayload):
        canonicalize(payload)
    loop = []
    loop.append(loop)
    with pytest.raises(InvalidPayload):
        content_hash({"x": [1, loop]})


def test_hash_shape_and_determinism():
    digest = content_hash({"a": 1})
    assert len(digest) == 64
    assert digest == digest.lower()
    assert int(digest, 16) >= 0
    assert content_hash({"a": 1}) == digest


def test_hash_distinguishes_values():
    assert content_hash({"a": 1}) != content_hash({"a": 2})


def test_empty_map_hash_matches_independent_digest():
    assert content_hash({}) == EMPTY_MAP_HASH


def test_hash_stability_under_key_reordering():
    # 1000 random payloads, each re-hashed after a random recursive
    # permutation of map-key insertion order.
    gen = random.Random(7)
    for _ in range(1000):
        payload = random_payload(gen)
        shuffled = shuffle_keys(gen, payload)
        assert content_hash(payload) == content_hash(shuffled)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() |
    st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) |
    st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@given(st.dictionaries(st.text(max_size=6), json_values, max_size=5))
def test_canonical_bytes_roundtrip_as_json(payload):
    data = json.loads(canonicalize(payload).decode("utf-8"))
    assert canonicalize(data) == canonicalize(payload)


@given(st.dictionaries(st.text(max_size=6), json_values, max_size=5))
def test_canonical_line_is_json_dumps_of_sorted_keys_plus_newline(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert canonicalize(payload) == text.encode("utf-8")
    assert canonical_line(payload) == text.encode("utf-8") + b"\n"
