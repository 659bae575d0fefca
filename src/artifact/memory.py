"""Per-agent persistent memory: a journal and the investigations folded from it.

The journal is an append-only log, one canonical JSON record per line, and
the only persisted record of an agent's investigations. The tracker is a
view of it: each change it makes is one journal line, folded in as it is
written, and a tracker built over an existing journal folds every line back
into the same state. The lines it writes all carry the investigation's slug
as ``investigation`` in their metadata:

- ``observation``, the topic, ``status: "active"``: the investigation starts;
- ``hypothesis``, the hypothesis;
- ``experiment``, ``ran <skill>``, with ``artifact`` and ``skill``: a result;
- ``observation``, ``investigation complete``, ``status: "complete"``.

``_atomic_write`` writes a whole file to a temporary file and renames it
into place, so a crash leaves no file, never half of one; a write or rename
that fails removes the temporary file.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from .canonical import known_fields
from .clock import Clock, format_timestamp
from .errors import AlreadyComplete, InvalidKind, UnknownInvestigation
from .ledger import AppendLog, read_log

JOURNAL_KINDS = ("observation", "hypothesis", "experiment", "conclusion")

_SLUG_RE = re.compile(r"[^a-z0-9]+")


def slugify(topic: str) -> str:
    """Investigation ids are topic slugs: lowercase, hyphen-separated."""
    return _SLUG_RE.sub("-", topic.lower()).strip("-")


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class JournalEntry:
    timestamp: str
    kind: str
    content: str
    metadata: dict

    def to_dict(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "kind": self.kind,
            "content": self.content,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JournalEntry":
        known_fields(data, cls.__dataclass_fields__.keys())
        metadata = data["metadata"]
        if not isinstance(metadata, dict):
            raise TypeError("metadata must be an object")
        return cls(
            timestamp=data["timestamp"],
            kind=data["kind"],
            content=data["content"],
            metadata=metadata,
        )


class AgentJournal:
    def __init__(self, path: str | Path, clock: Clock):
        self.path = Path(path)
        self.clock = clock
        self.file = AppendLog(self.path)

    def log(self, kind: str, content: str, metadata: dict | None = None) -> JournalEntry:
        if kind not in JOURNAL_KINDS:
            raise InvalidKind(f"journal kind must be one of {JOURNAL_KINDS}")
        entry = JournalEntry(
            timestamp=format_timestamp(self.clock.now()),
            kind=kind,
            content=content,
            metadata=metadata or {},
        )
        self.file.append(entry.to_dict())
        return entry

    def entries(self) -> list[JournalEntry]:
        """Every entry in the file, in order; a damaged line raises CorruptStore."""
        return [entry for _, entry in read_log(self.path, JournalEntry.from_dict)]


@dataclass
class Investigation:
    id: str
    topic: str
    status: str = "active"
    hypotheses: list = field(default_factory=list)
    results: list = field(default_factory=list)
    created: str = ""
    completed: str | None = None

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "topic": self.topic,
            "status": self.status,
            "hypotheses": self.hypotheses,
            "results": self.results,
            "created": self.created,
            "completed": self.completed,
        }


class InvestigationTracker:
    """An agent's investigations, folded from its journal (the module
    docstring lists the lines). The journal is read once, here; after that
    the tracker folds in only the lines it writes itself."""

    def __init__(self, journal: AgentJournal):
        self.journal = journal
        self._items: dict[str, Investigation] = {}
        for entry in journal.entries():
            self._fold(entry)

    def _fold(self, entry: JournalEntry) -> None:
        slug = entry.metadata.get("investigation")
        status = entry.metadata.get("status")
        investigation = self._items.get(slug)
        if investigation is None:
            if entry.kind == "observation" and status == "active":
                self._items[slug] = Investigation(
                    id=slug, topic=entry.content, created=entry.timestamp
                )
        elif entry.kind == "hypothesis":
            investigation.hypotheses.append(entry.content)
        elif entry.kind == "experiment" and "skill" in entry.metadata:
            investigation.results.append(
                {"artifact": entry.metadata["artifact"], "skill": entry.metadata["skill"]}
            )
        elif entry.kind == "observation" and status == "complete":
            investigation.status = "complete"
            investigation.completed = entry.timestamp

    def _record(self, kind: str, content: str, metadata: dict) -> None:
        self._fold(self.journal.log(kind, content, metadata))

    def create(self, topic: str) -> Investigation:
        """Idempotent: an existing investigation for the slug is returned as-is."""
        slug = slugify(topic)
        if slug not in self._items:
            self._record("observation", topic, {"investigation": slug, "status": "active"})
        return self._items[slug]

    def get(self, investigation_id: str) -> Investigation:
        try:
            return self._items[investigation_id]
        except KeyError:
            raise UnknownInvestigation(f"no investigation {investigation_id!r}")

    def __contains__(self, investigation_id: str) -> bool:
        return investigation_id in self._items

    def all(self) -> list[Investigation]:
        return list(self._items.values())

    def add_hypothesis(self, investigation_id: str, hypothesis: str) -> None:
        self.get(investigation_id)
        self._record("hypothesis", hypothesis, {"investigation": investigation_id})

    def add_result(self, investigation_id: str, artifact_id: str, skill: str) -> None:
        self.get(investigation_id)
        self._record("experiment", f"ran {skill}", {
            "investigation": investigation_id, "artifact": artifact_id, "skill": skill,
        })

    def mark_complete(self, investigation_id: str) -> None:
        if self.get(investigation_id).status == "complete":
            raise AlreadyComplete(f"investigation {investigation_id} already complete")
        self._record("observation", "investigation complete",
                     {"investigation": investigation_id, "status": "complete"})
