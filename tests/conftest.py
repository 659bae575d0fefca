from __future__ import annotations

import random
from datetime import timedelta

import pytest
from hypothesis import settings

from artifact.clock import EPOCH, ManualClock
from artifact.ledger import AppendLog, Artifact, create_artifact, new_uuid, read_log
from artifact.memory import JournalEntry
from artifact.skills import default_registry

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def close_append_logs(monkeypatch):
    """Close every append log a test opened once the test ends.

    An ``AppendLog`` keeps its file open until it is closed, and ``run``
    closes all of a run's logs; a test that builds an index, a store or a
    ledger of its own leaves that to this fixture, so no file is left to the
    garbage collector (which warns under ``python -X dev``).
    """
    opened = []
    original = AppendLog._open

    def tracked_open(log):
        if log._handle is None:
            opened.append(log)
        return original(log)

    monkeypatch.setattr(AppendLog, "_open", tracked_open)
    yield
    for log in opened:
        log.close()


@pytest.fixture
def clock():
    return ManualClock(current=EPOCH, step=timedelta(seconds=1))


@pytest.fixture
def registry():
    return default_registry()


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def make_artifact(clock, rng):
    """Artifact factory with a deterministic clock and seeded ids."""

    def factory(payload=None, artifact_type="synthesis", producer="alice",
                skill="synthesize", parents=(), needs=None, investigation_id="",
                known_types=None):
        return create_artifact(
            artifact_type=artifact_type,
            producer_agent=producer,
            skill=skill,
            payload=payload if payload is not None else {"value": 1},
            parents=parents,
            investigation_id=investigation_id,
            needs=needs,
            clock=clock,
            known_types=known_types,
            id_factory=lambda: new_uuid(rng),
        )

    return factory


def stored_records(path) -> list:
    """The artifacts a store file holds, in line order."""
    return [artifact for _, artifact in read_log(path, Artifact.from_dict)]


def post_events(path) -> list[dict]:
    """The data of each ``post`` event of a governance log, in line order:
    a post's text is kept there alone."""
    return [event["data"] for _, event in read_log(path, lambda event: event)
            if event["op"] == "post"]


def started_topics(path) -> list[str]:
    """The topic of each investigation a journal file starts, in line order:
    the tracker keeps only their status."""
    return [entry.content for _, entry in read_log(path, JournalEntry.from_dict)
            if entry.kind == "observation" and entry.metadata.get("status") == "active"]


def nothing_stored(artifact_id: str):
    """The ``resolve`` of an index built on a new file: no id resolves."""
    return None


def random_payload(rng: random.Random, depth: int = 0) -> dict:
    """Nested JSON-style payload with deterministic structure for oracles."""
    payload = {}
    for i in range(rng.randint(1, 5)):
        key = f"k{rng.randint(0, 99)}_{i}"
        payload[key] = _random_value(rng, depth)
    return payload


def _random_value(rng: random.Random, depth: int):
    kinds = ["str", "int", "float", "bool", "null"]
    if depth < 3:
        kinds += ["map", "list"]
    kind = rng.choice(kinds)
    if kind == "str":
        return "".join(rng.choice("abcdefgh é中") for _ in range(rng.randint(0, 6)))
    if kind == "int":
        return rng.randint(-10**12, 10**12)
    if kind == "float":
        return rng.uniform(-1e6, 1e6)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "null":
        return None
    if kind == "map":
        return random_payload(rng, depth + 1)
    return [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]


def shuffle_keys(rng: random.Random, value):
    """Rebuild maps with randomly permuted key insertion order."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {k: shuffle_keys(rng, value[k]) for k in keys}
    if isinstance(value, list):
        return [shuffle_keys(rng, v) for v in value]
    return value
