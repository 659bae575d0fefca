"""Immutable artifact records, per-agent append-only stores, and addressing.

An artifact captures one skill invocation: who produced it, which skill ran,
the unchanged payload, the SHA-256 of the canonical payload, and the ordered
list of parent artifact ids it consumed. Records never change after creation;
stores only ever grow.

Every JSONL file of a run (store, index, reactions, journal, mutations and
governance log) has one format, kept here: one canonical JSON object per
newline-terminated UTF-8 line. ``AppendLog`` is its one writer: it keeps
its file open between appends, an append hands one whole line to the
operating system, and a later ``sync`` makes every append since the last one
durable with one fsync of that same handle, so a caller can commit a batch
of appends as a group. Only the files of the write-ahead chain (reactions,
store, index) are ever synced. ``read_log`` is its one reader, and holds the damage
rule: a line that breaks the format raises ``CorruptStore`` with the file's
path and the line's number.
"""

from __future__ import annotations

import json
import os
import random
import re
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Iterator

from .canonical import Payload, canonical_line, content_hash, known_fields
from .clock import Clock, format_timestamp
from .errors import (
    CorruptStore,
    CyclicLineage,
    InvalidAddress,
    InvalidPayload,
    UnknownArtifactType,
)
from .needs import NeedsSignal

ADDRESS_SCHEME = "artifact://"
_UUID_RE = re.compile(r"^[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}$")


@dataclass(frozen=True)
class Artifact:
    artifact_id: str
    artifact_type: str
    producer_agent: str
    skill: str
    schema_version: int
    payload: Payload
    investigation_id: str
    timestamp: str
    content_hash: str
    parent_artifact_ids: tuple
    needs: NeedsSignal | None

    def to_dict(self) -> dict:
        return {
            "artifact_id": self.artifact_id,
            "artifact_type": self.artifact_type,
            "producer_agent": self.producer_agent,
            "skill": self.skill,
            "schema_version": self.schema_version,
            "payload": self.payload,
            "investigation_id": self.investigation_id,
            "timestamp": self.timestamp,
            "content_hash": self.content_hash,
            "parent_artifact_ids": list(self.parent_artifact_ids),
            "needs": self.needs.to_dict() if self.needs is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Artifact":
        known_fields(data, cls.__dataclass_fields__.keys())
        needs = data["needs"]
        return cls(
            artifact_id=data["artifact_id"],
            artifact_type=data["artifact_type"],
            producer_agent=data["producer_agent"],
            skill=data["skill"],
            schema_version=data["schema_version"],
            payload=data["payload"],
            investigation_id=data["investigation_id"],
            timestamp=data["timestamp"],
            content_hash=data["content_hash"],
            parent_artifact_ids=tuple(data["parent_artifact_ids"]),
            needs=NeedsSignal.from_dict(needs) if needs is not None else None,
        )


def scan_order(artifact: Artifact) -> tuple:
    """The order of artifacts in time: timestamp, then id. Index scans,
    payload merges and the lineage graph's exports all follow it."""
    return (artifact.timestamp, artifact.artifact_id)


@dataclass(frozen=True)
class ArtifactAddress:
    agent: str
    id: str


def new_uuid(rng: random.Random) -> str:
    """A UUID4 in text form, drawn from ``rng``."""
    return str(uuid.UUID(bytes=rng.getrandbits(128).to_bytes(16, "big"), version=4))


def create_artifact(
    artifact_type: str,
    producer_agent: str,
    skill: str,
    payload: Payload,
    parents: Iterable[str],
    investigation_id: str,
    needs: NeedsSignal | None,
    *,
    clock: Clock,
    id_factory: Callable[[], str],
    known_types: Collection[str] | None = None,
) -> Artifact:
    """Assemble a fresh, hash-stamped artifact record.

    The id comes from ``id_factory`` and the timestamp from ``clock``.
    ``known_types``, when given, is the controlled vocabulary to validate
    ``artifact_type`` against.
    """
    if known_types is not None and artifact_type not in known_types:
        raise UnknownArtifactType(f"artifact type {artifact_type!r} is not registered")
    parent_ids = tuple(parents)
    artifact_id = id_factory()
    if artifact_id in parent_ids:
        raise CyclicLineage(f"artifact {artifact_id} cannot be its own parent")
    return Artifact(
        artifact_id=artifact_id,
        artifact_type=artifact_type,
        producer_agent=producer_agent,
        skill=skill,
        schema_version=1,
        payload=payload,
        investigation_id=investigation_id,
        timestamp=format_timestamp(clock.now()),
        content_hash=content_hash(payload),
        parent_artifact_ids=parent_ids,
        needs=needs,
    )


def verify_integrity(artifact: Artifact) -> bool:
    """True iff the stored hash matches a fresh hash of the payload, exactly."""
    try:
        return content_hash(artifact.payload) == artifact.content_hash
    except InvalidPayload:
        return False


def format_address(address: ArtifactAddress) -> str:
    return f"{ADDRESS_SCHEME}{address.agent}/{address.id}"


def parse_address(text: str) -> ArtifactAddress:
    if not text.startswith(ADDRESS_SCHEME):
        raise InvalidAddress(f"missing {ADDRESS_SCHEME!r} scheme: {text!r}")
    rest = text[len(ADDRESS_SCHEME):]
    agent, sep, artifact_id = rest.partition("/")
    if not agent or not sep:
        raise InvalidAddress(f"address must name an agent and an id: {text!r}")
    if not _UUID_RE.match(artifact_id):
        raise InvalidAddress(f"malformed artifact id in address: {text!r}")
    return ArtifactAddress(agent=agent, id=artifact_id)


class AppendLog:
    """A JSONL file that grows one whole line at a time and is synced apart.

    The file is opened, and its directory made, at the first append, and
    kept open until ``close``; an append after a close opens it again. The
    handle is unbuffered: ``append`` writes a record's whole canonical line
    to the operating system before it returns, so a process crash loses
    none of it and no part of a line waits in the process. Only ``sync``
    makes it survive a power loss. ``sync`` fsyncs the handle once, and only
    if something was appended since the last sync.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle = None
        self._unsynced = False

    def _open(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab", buffering=0)
        return self._handle

    def append(self, record: dict) -> None:
        line = memoryview(canonical_line(record))
        handle = self._open()
        while line:  # a raw write may take only part of the line
            line = line[handle.write(line):]
        self._unsynced = True

    def sync(self) -> None:
        # Cleared before the fsync: a line appended meanwhile by another
        # thread either is covered by it or sets the flag again.
        if not self._unsynced:
            return
        self._unsynced = False
        os.fsync(self._open().fileno())

    def close(self) -> None:
        """Close the file; what was appended stays as it is, synced or not."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def read_log(
    path: str | Path,
    parse: Callable[[dict], Any],
    damaged: Callable[[CorruptStore], None] | None = None,
) -> Iterator[tuple[int, Any]]:
    """Each line of a JSONL file as (1-based line number, record), where the
    record is what ``parse`` makes of the line's JSON object.

    A line is damaged when it is blank, unterminated, not UTF-8, not JSON,
    not an object, or when ``parse`` raises on it. A damaged line raises
    ``CorruptStore`` with the path and the line number; when ``damaged`` is
    given, it gets that error instead and reading goes on with the next
    line. A missing file has no lines.
    """
    path = Path(path)
    if not path.exists():
        return
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            try:
                if raw == b"\n":
                    raise ValueError("blank line")
                if not raw.endswith(b"\n"):
                    raise ValueError("unterminated line")
                record = json.loads(raw.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError(f"a JSON {type(record).__name__}, not an object")
                record = parse(record)
            except Exception as exc:  # a parse may raise anything on a malformed record
                error = CorruptStore(str(path), number, repr(exc))
                if damaged is None:
                    raise error from exc
                damaged(error)
                continue
            yield number, record


class ArtifactStore:
    """Append-only JSONL store for one agent's artifacts: a writer only.

    One canonical record per line. Appends are whole-line writes, so a crash
    leaves either zero or one complete new line. An append is not durable
    until the store's ``log`` is synced, which the simulator does once per
    heartbeat. ``World.emit`` refuses a repeated id before anything is
    written, and ``rundir.read_store`` reads a store back.
    """

    def __init__(self, path: str | Path):
        self.log = AppendLog(path)

    def append(self, artifact: Artifact) -> None:
        self.log.append(artifact.to_dict())
