"""Per-agent persistent memory: a journal and the investigations folded from it.

The journal is an append-only log, one canonical JSON record per line, and
the only persisted record of an agent's investigations. The tracker is a
view of it that keeps each investigation's status alone: each change it
makes is one journal line, folded in as it is written, and a tracker built
over an existing journal folds every line back into the same state. The
lines it writes all carry the investigation's slug as ``investigation`` in
their metadata:

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
from dataclasses import dataclass
from pathlib import Path

from .canonical import typed_fields
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


@dataclass(frozen=True, slots=True)
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
        typed_fields(data, {"timestamp": str, "kind": str, "content": str, "metadata": dict})
        return cls(**data)


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


class InvestigationTracker:
    """The status of each of an agent's investigations, folded from its
    journal (the module docstring lists the lines): ``active`` or
    ``complete``, by slug. Their topics, hypotheses and results are the
    journal's, and only the journal's. The journal is read once, here;
    after that the tracker folds in only the lines it writes itself."""

    def __init__(self, journal: AgentJournal):
        self.journal = journal
        self._status: dict[str, str] = {}
        for entry in journal.entries():
            self._fold(entry)

    def _fold(self, entry: JournalEntry) -> None:
        if entry.kind != "observation":
            return
        slug = entry.metadata.get("investigation")
        status = entry.metadata.get("status")
        if slug not in self._status:
            if status == "active":
                self._status[slug] = status
        elif status == "complete":
            self._status[slug] = status

    def _record(self, kind: str, content: str, metadata: dict) -> None:
        self._fold(self.journal.log(kind, content, metadata))

    def create(self, topic: str) -> str:
        """The status of the topic's investigation, started here if it is
        new; an existing one is left as it is."""
        slug = slugify(topic)
        if slug not in self._status:
            self._record("observation", topic, {"investigation": slug, "status": "active"})
        return self._status[slug]

    def status(self, investigation_id: str) -> str:
        try:
            return self._status[investigation_id]
        except KeyError:
            raise UnknownInvestigation(f"no investigation {investigation_id!r}")

    def __contains__(self, investigation_id: str) -> bool:
        return investigation_id in self._status

    def add_hypothesis(self, investigation_id: str, hypothesis: str) -> None:
        self.status(investigation_id)
        self._record("hypothesis", hypothesis, {"investigation": investigation_id})

    def add_result(self, investigation_id: str, artifact_id: str, skill: str) -> None:
        self.status(investigation_id)
        self._record("experiment", f"ran {skill}", {
            "investigation": investigation_id, "artifact": artifact_id, "skill": skill,
        })

    def mark_complete(self, investigation_id: str) -> None:
        if self.status(investigation_id) == "complete":
            raise AlreadyComplete(f"investigation {investigation_id} already complete")
        self._record("observation", "investigation complete",
                     {"investigation": investigation_id, "status": "complete"})
