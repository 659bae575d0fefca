"""The global index of published artifacts, plus the shared needs board.

The index holds each published ``Artifact`` itself, the one in-memory record
of it, with the need key it fulfilled, if any: that key is what closes a
need and what coverage counting reads. Scans read only an artifact's
metadata (type, producer, timestamp, parents, investigation and needs). In a
simulation an artifact is the last thing ``World.emit`` publishes, after its
store line and its lineage node, when it already resolves.

``index.jsonl`` is the publication log: one line per artifact, in
publication order, holding only what no store holds, the artifact's address
(``artifact_id``, ``producer_agent``) and its ``fulfills`` key. Every other
field is its store record's, so reloading the index joins each line with the
record that ``resolve`` finds for its id.

Publication order is time order, Lamport's total order from one clock
(CACM 1978): ``World.emit`` reads the shared clock and publishes under one
lock, and ``publish`` refuses with ``ClockSkew``, before it writes, an entry
that does not come strictly after the newest in ``(timestamp, id)`` order,
a repeated one included. So no list the index keeps is ever sorted.
``read_index`` holds the line rule that the reload and ``verify`` share: a
line whose id resolves to nothing or to another producer's record, or whose
record does not come after the last in-order record before it, is damaged.

The needs board is kept current as entries are admitted, never rebuilt: a
need-bearing artifact's unclaimed keys join the board in admission order, a
claim removes its key, and an artifact leaves the board once every key it
broadcast is claimed. ``open_needs`` walks only the board.

The board also keeps each open row's centrality (see ``pressure.centrality``)
with an inverted file (Zobel and Moffat, ACM Computing Surveys 2006): a
posting from each ``(artifact_type, token)`` to the open rows whose query has
that token. A row's query is tokenised once, when it is admitted; its count
starts at 1 plus the open rows its postings meet, and those rows count it
too. Closing a row takes it out of its postings and out of the counts of the
rows it met. Rows of one ``NeedItem`` object, the variants of one need,
never count each other.

The index also holds the claims, the consumed artifact ids and need keys,
read and written only under its one lock. A claimed key's row leaves the
needs board at the claim, before its answer is published; a published
fulfilment claims its key too, which is how a reload closes it.

The unclaimed compatible entries are kept on candidate boards, one per
profile (``candidates``): routing by content, as in Siena (Carzaniga,
Rosenblum and Wolf, ACM TOCS 2001), judges each artifact once per profile,
however many readers share it. A board catches up when it is read, not at
publish: it judges only the entries appended since its last read, skipping
claimed ones, and drops the rows claimed since (claims only grow).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from types import NoneType
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

from .canonical import typed_fields
from .errors import ClockSkew, CorruptStore
from .ledger import AppendLog, Artifact, read_log, scan_order
from .needs import NeedItem, tokenize

DEFAULT_VARIANT = "default"


@dataclass(frozen=True, slots=True)
class NeedKey:
    artifact_id: str
    need_index: int
    variant_id: str

    @property
    def text(self) -> str:
        return f"{self.artifact_id}:{self.need_index}:{self.variant_id}"

    @classmethod
    def parse(cls, text: str) -> "NeedKey":
        artifact_id, need_index, variant_id = text.split(":", 2)
        return cls(artifact_id=artifact_id, need_index=int(need_index), variant_id=variant_id)


def variant_ids(item: NeedItem) -> list[str]:
    """Stable variant ids: v0..vN in declaration order, or the default token."""
    if not item.parallel_variants:
        return [DEFAULT_VARIANT]
    return [f"v{i}" for i in range(len(item.parallel_variants))]


def variant_params(item: NeedItem, variant_id: str) -> dict:
    if variant_id == DEFAULT_VARIANT:
        return {}
    return dict(item.parallel_variants[int(variant_id[1:])])


def index_line(artifact: Artifact, fulfills: NeedKey | None) -> dict:
    """An artifact's line in ``index.jsonl``: its address and fulfilled key."""
    return {
        "artifact_id": artifact.artifact_id,
        "producer_agent": artifact.producer_agent,
        "fulfills": fulfills.text if fulfills is not None else None,
    }


def index_fields(record: dict) -> tuple[str, str, NeedKey | None]:
    """The artifact id, producer and fulfilled need key of one index.jsonl
    record.

    Raises ValueError for a record that is not an index line.
    """
    typed_fields(record, {"artifact_id": str, "producer_agent": str, "fulfills": (str, NoneType)})
    artifact_id, producer, fulfills = (record["artifact_id"], record["producer_agent"],
                                       record["fulfills"])
    return artifact_id, producer, NeedKey.parse(fulfills) if fulfills is not None else None


def read_index(path: str | Path, resolve: Callable[[str], Artifact | None],
               damaged: Callable[[CorruptStore], None] | None) -> Iterator[tuple]:
    """Each line of an ``index.jsonl`` as (line number, artifact id, record,
    fulfilled need key), with the record ``resolve`` gives for the id, or None.

    A line is damaged when ``read_log`` finds it so, or when its id resolves
    to no record or to another producer's, or when its record does not come
    after the last in-order record before it in ``(timestamp, id)`` order:
    so a repeated line and a misplaced line are each one damaged line.
    A damaged line raises ``CorruptStore``, as in ``read_log``; when
    ``damaged`` is given, it gets the error instead, and a line damaged by
    one of the last three rules is still yielded.
    """
    def fail(number: int, reason: str) -> None:
        error = CorruptStore(str(path), number, reason)
        if damaged is None:
            raise error
        damaged(error)

    latest = None  # the last record in order
    for number, (artifact_id, producer, fulfills) in read_log(
            path, index_fields,
            lambda error: fail(error.line_number, f"unparseable index entry: {error.reason}")):
        artifact = resolve(artifact_id)
        if artifact is None:
            fail(number, f"index entry {artifact_id} is in no store")
        elif artifact.producer_agent != producer:
            fail(number, f"index entry {artifact_id} names producer {producer}, "
                         f"its record {artifact.producer_agent}")
        elif latest is not None and scan_order(artifact) <= scan_order(latest):
            fail(number, f"index entry {artifact_id} is out of order: "
                         f"it does not come after {latest.artifact_id}")
        else:
            latest = artifact
        yield number, artifact_id, artifact, fulfills


class GlobalIndex:
    """Append-only shared index with the needs board and the claims; scans
    are deterministic snapshots, and the board keeps each open row's
    centrality count as rows open and close (see the module doc).

    ``resolve`` maps an id to its stored record, or to None for an id no
    store holds; it is read only while ``path``'s lines are reloaded, with
    ``read_index``.
    """

    def __init__(self, path: str | Path, resolve: Callable[[str], Artifact | None]):
        self.path = Path(path)
        self.log = AppendLog(self.path)
        self._entries: list[Artifact] = []
        # Each entry that fulfilled a need, with its key.
        self._fulfillments: list[tuple[Artifact, NeedKey]] = []
        # Consumption: the claimed artifact ids and need keys.
        self._claimed: set[str] = set()
        self._claimed_needs: set[NeedKey] = set()
        self._coverage: dict[tuple, int] = {}
        # The needs board: each carrier of an open need by id, in admission
        # order, with its open (key, item, artifact) rows in need-index and
        # variant order.
        self._open_rows: dict[str, list[tuple]] = {}
        # Centrality: each open row's count and query tokens, and the
        # postings from (artifact_type, token) to open rows and their items.
        self._centrality: dict[NeedKey, int] = {}
        self._row_tokens: dict[NeedKey, set[str]] = {}
        self._postings: dict[tuple[str, str], dict[NeedKey, NeedItem]] = {}
        # The candidate boards: (cursor, rows) by profile.
        self._boards: dict[tuple, tuple[int, list]] = {}
        self._lock = threading.Lock()
        for _, _, artifact, fulfills in read_index(self.path, resolve, None):
            self._admit(artifact, fulfills)

    def _admit(self, artifact: Artifact, fulfills: NeedKey | None) -> None:
        self._entries.append(artifact)
        if artifact.needs is not None:
            rows = []
            for need_index, item in enumerate(artifact.needs.items):
                tokens = tokenize(item.query)
                for vid in variant_ids(item):
                    key = NeedKey(artifact.artifact_id, need_index, vid)
                    if key not in self._claimed_needs:
                        rows.append((key, item, artifact))
                        self._count_in(key, item, tokens)
            if rows:
                self._open_rows[artifact.artifact_id] = rows
        if fulfills is not None:
            self._fulfillments.append((artifact, fulfills))
            pair = (fulfills.artifact_id, fulfills.need_index)
            self._coverage[pair] = self._coverage.get(pair, 0) + 1
            self._close(fulfills)

    def _met_rows(self, item: NeedItem, tokens: set[str]) -> dict[NeedKey, NeedItem]:
        """The open rows whose postings meet ``tokens`` in the item's type,
        other than rows of the item itself."""
        met: dict[NeedKey, NeedItem] = {}
        for token in tokens:
            posting = self._postings.get((item.artifact_type, token))
            if posting:
                met.update(posting)
        return {key: other for key, other in met.items() if other is not item}

    def _count_in(self, key: NeedKey, item: NeedItem, tokens: set[str]) -> None:
        """Open a row's count and postings, and count it in the rows it meets."""
        met = self._met_rows(item, tokens)
        for other in met:
            self._centrality[other] += 1
        self._centrality[key] = 1 + len(met)
        self._row_tokens[key] = tokens
        for token in tokens:
            self._postings.setdefault((item.artifact_type, token), {})[key] = item

    def _count_out(self, key: NeedKey, item: NeedItem) -> None:
        """Close a row's count and postings, and uncount it where it met."""
        del self._centrality[key]
        tokens = self._row_tokens.pop(key)
        for token in tokens:
            posting_key = (item.artifact_type, token)
            posting = self._postings[posting_key]
            del posting[key]
            if not posting:
                del self._postings[posting_key]
        for other in self._met_rows(item, tokens):
            self._centrality[other] -= 1

    def _close(self, key: NeedKey) -> None:
        """Claim a need key: drop its row, and its carrier once no row is left."""
        self._claimed_needs.add(key)
        rows = self._open_rows.get(key.artifact_id)
        if rows is None:
            return
        remaining = []
        for row in rows:
            if row[0] == key:
                self._count_out(key, row[1])
            else:
                remaining.append(row)
        if remaining:
            self._open_rows[key.artifact_id] = remaining
        else:
            del self._open_rows[key.artifact_id]

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[Artifact]:
        return list(self._entries)

    def fulfillments(self) -> list[tuple[Artifact, NeedKey]]:
        """Each published artifact that fulfilled a need, with its key."""
        return list(self._fulfillments)

    def publish(self, artifact: Artifact, fulfills: NeedKey | None) -> None:
        """Append one artifact, with the need key it fulfills; appends
        serialize so lines never interleave. An artifact that does not come
        strictly after the newest entry in (timestamp, id) order raises
        ClockSkew before anything is written."""
        with self._lock:
            if self._entries and scan_order(artifact) <= scan_order(self._entries[-1]):
                newest = self._entries[-1]
                raise ClockSkew(f"{artifact.artifact_id} of {artifact.timestamp} does not "
                                f"come after {newest.artifact_id} of {newest.timestamp}")
            self.log.append(index_line(artifact, fulfills))
            self._admit(artifact, fulfills)

    def seed_claims(self, ids: Iterable[str], need_keys: Iterable[NeedKey]) -> None:
        """Claim what a reactions log records as consumed."""
        with self._lock:
            self._claimed.update(ids)
            for key in need_keys:
                self._close(key)

    def claimed(self, artifact_id: str) -> bool:
        with self._lock:
            return artifact_id in self._claimed

    def claim_all(self, ids: Sequence[str]) -> bool:
        """Claim every id, or none when one of them is claimed already."""
        with self._lock:
            if any(i in self._claimed for i in ids):
                return False
            self._claimed.update(ids)
            return True

    def claim_need(self, key: NeedKey) -> bool:
        """Claim a need key and close its row, unless it is claimed already."""
        with self._lock:
            if key in self._claimed_needs:
                return False
            self._close(key)
            return True

    def candidates(self, profile: Hashable,
                   fits: Callable[[Artifact], Any]) -> list[tuple[Artifact, Any]]:
        """The unclaimed entries for which ``fits`` returns something other
        than None, each with what it returned, in publication order.
        ``fits`` must depend on ``profile`` alone: callers with the same
        profile read one board (see the module doc).
        """
        with self._lock:
            cursor, rows = self._boards.get(profile, (0, []))
            rows = [row for row in rows if row[0].artifact_id not in self._claimed]
            for artifact in self._entries[cursor:]:
                if artifact.artifact_id not in self._claimed:
                    fit = fits(artifact)
                    if fit is not None:
                        rows.append((artifact, fit))
            self._boards[profile] = (len(self._entries), rows)
            return list(rows)

    def scan(
        self,
        artifact_type: str | None = None,
        producer: str | None = None,
        exclude_producer: str | None = None,
    ) -> list[Artifact]:
        """Artifacts matching every present filter, in publication order."""
        found = []
        for artifact in self.entries():
            if artifact_type is not None and artifact.artifact_type != artifact_type:
                continue
            if producer is not None and artifact.producer_agent != producer:
                continue
            if exclude_producer is not None and artifact.producer_agent == exclude_producer:
                continue
            found.append(artifact)
        return found

    def open_needs(
        self, centrality: dict[NeedKey, int]
    ) -> list[tuple[NeedKey, NeedItem, Artifact]]:
        """Every unclaimed (key, item, carrying artifact) row, variant-expanded.

        Rows come in publication order of the carrying artifact, then need
        index, then variant. ``centrality`` gets each row's centrality count,
        read under the same lock as the rows.
        """
        rows = []
        with self._lock:
            for carrier_rows in self._open_rows.values():
                rows.extend(carrier_rows)
            centrality.update(self._centrality)
        return rows

    def coverage(self, artifact_id: str, need_index: int) -> int:
        """Fulfillment count for a need across all of its variants."""
        return self._coverage.get((artifact_id, need_index), 0)
