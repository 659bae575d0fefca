"""Per-agent persistent memory: a journal and an investigation tracker.

The journal is an append-only record-per-line log. The tracker is a single
document rewritten atomically (write to a temp file, rename), so a crash
never leaves a half-written document behind.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .canonical import canonical_line
from .clock import Clock, SystemClock, format_timestamp
from .errors import AlreadyComplete, CorruptStore, InvalidKind, UnknownInvestigation

JOURNAL_KINDS = ("observation", "hypothesis", "experiment", "conclusion")

_SLUG_RE = re.compile(r"[^a-z0-9]+")


def slugify(topic: str) -> str:
    """Investigation ids are topic slugs: lowercase, hyphen-separated."""
    return _SLUG_RE.sub("-", topic.lower()).strip("-")


def _atomic_write(path: Path, data: dict) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True, indent=2)
        handle.write("\n")
    os.replace(tmp, path)


@dataclass(frozen=True)
class JournalEntry:
    timestamp: str
    kind: str
    content: str
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "kind": self.kind,
            "content": self.content,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JournalEntry":
        return cls(
            timestamp=data["timestamp"],
            kind=data["kind"],
            content=data["content"],
            metadata=data.get("metadata", {}),
        )


class AgentJournal:
    FILENAME = "journal.jsonl"

    def __init__(self, path: str | Path, clock: Clock | None = None):
        self.path = Path(path)
        self.clock = clock or SystemClock()
        self._entries: list[JournalEntry] = []
        if self.path.exists():
            with open(self.path, "r", encoding="utf-8") as handle:
                for number, raw in enumerate(handle, start=1):
                    try:
                        self._entries.append(JournalEntry.from_dict(json.loads(raw)))
                    except Exception as exc:
                        raise CorruptStore(str(self.path), number, f"bad journal entry: {exc}")

    def log(self, kind: str, content: str, metadata: dict | None = None) -> JournalEntry:
        if kind not in JOURNAL_KINDS:
            raise InvalidKind(f"journal kind must be one of {JOURNAL_KINDS}")
        entry = JournalEntry(
            timestamp=format_timestamp(self.clock.now()),
            kind=kind,
            content=content,
            metadata=metadata or {},
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(canonical_line(entry.to_dict()))
        self._entries.append(entry)
        return entry

    def entries(self) -> list[JournalEntry]:
        return list(self._entries)


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

    @classmethod
    def from_dict(cls, data: dict) -> "Investigation":
        return cls(**data)


class InvestigationTracker:
    FILENAME = "investigations.json"

    def __init__(self, path: str | Path, clock: Clock | None = None):
        self.path = Path(path)
        self.clock = clock or SystemClock()
        self._items: dict[str, Investigation] = {}
        self._deferred = False  # inside batch(): saves wait for its end
        self._dirty = False
        if self.path.exists():
            with open(self.path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            for slug in sorted(data):
                self._items[slug] = Investigation.from_dict(data[slug])

    def _save(self) -> None:
        if self._deferred:
            self._dirty = True
            return
        self._dirty = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(self.path, {slug: inv.to_dict() for slug, inv in self._items.items()})

    @contextmanager
    def batch(self):
        """Hold back the saves of the changes made in the block and write the
        document once when it ends, also when it ends by an exception."""
        outer = self._deferred
        self._deferred = True
        try:
            yield
        finally:
            self._deferred = outer
            if self._dirty:
                self._save()

    def create(self, topic: str) -> Investigation:
        """Idempotent: an existing investigation for the slug is returned as-is."""
        slug = slugify(topic)
        existing = self._items.get(slug)
        if existing is not None:
            return existing
        investigation = Investigation(
            id=slug, topic=topic, created=format_timestamp(self.clock.now())
        )
        self._items[slug] = investigation
        self._save()
        return investigation

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
        self.get(investigation_id).hypotheses.append(hypothesis)
        self._save()

    def add_result(self, investigation_id: str, result: dict | str) -> None:
        self.get(investigation_id).results.append(result)
        self._save()

    def mark_complete(self, investigation_id: str) -> None:
        investigation = self.get(investigation_id)
        if investigation.status == "complete":
            raise AlreadyComplete(f"investigation {investigation_id} already complete")
        investigation.status = "complete"
        investigation.completed = format_timestamp(self.clock.now())
        self._save()
