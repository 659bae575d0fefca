"""The crash contract of a run directory, tested without kernel tools.

Every fsync the program makes goes through ``artifact.ledger.os``; these
tests put a recorder there, in their own process, and mark where each
heartbeat starts. That gives, for each heartbeat, the files its commit
synced, in order, and the size of every file at each commit point. From
those sizes a test rebuilds the directory a crash at that point would leave,
in the manner of ALICE (Pillai et al., OSDI 2014).
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import pytest

import artifact.ledger as ledger
import artifact.sim as sim
from artifact.sim import demo_scenario, run, verify_output

WRITE_AHEAD = {"reactions.jsonl": 0, "store.jsonl": 1, "index.jsonl": 2}


class FsyncRecorder:
    """Stands in for ``os`` in ``artifact.ledger``; records every fsync."""

    def __init__(self, events: list):
        self.events = events

    def fsync(self, fd):
        st = os.fstat(fd)
        self.events.append(("fsync", (st.st_dev, st.st_ino), st.st_size))
        return os.fsync(fd)

    def __getattr__(self, name):
        return getattr(os, name)


def sizes(root: Path) -> dict[str, int]:
    return {str(p.relative_to(root)): p.stat().st_size
            for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A demo run with its fsyncs and, per commit point, every file's size.

    ``snapshots[k]`` holds the sizes after commit k: commit 0 is the set-up
    commit, and commit k > 0 ends heartbeat k. ``segments[k]`` holds the
    (path, size) fsyncs of commit k.
    """
    out = tmp_path_factory.mktemp("durability") / "demo"
    events: list = []
    original = sim.heartbeat

    def marked(world, agent_name, cycle):
        events.append(("heartbeat", agent_name, sizes(out)))
        return original(world, agent_name, cycle)

    patch = pytest.MonkeyPatch()
    patch.setattr(ledger, "os", FsyncRecorder(events))
    patch.setattr(sim, "heartbeat", marked)
    try:
        run(demo_scenario(), out)
    finally:
        patch.undo()
    final = sizes(out)
    del final["report.json"]
    paths = {}
    for rel in final:
        st = (out / rel).stat()
        paths[(st.st_dev, st.st_ino)] = rel

    segments: list[list] = [[]]
    snapshots: list[dict] = []
    agents: list[str | None] = [None]
    for event in events:
        if event[0] == "heartbeat":
            snapshots.append(event[2])
            segments.append([])
            agents.append(event[1])
        else:
            segments[-1].append((paths[event[1]], event[2]))
    snapshots.append(final)
    return out, segments, snapshots, agents


def test_each_heartbeat_syncs_each_touched_file_once_in_write_ahead_order(recorded):
    _, segments, snapshots, agents = recorded
    assert len(segments) == 1 + 15  # set-up, then 3 agents x 5 cycles
    before: dict[str, int] = {}
    for synced, after, agent in zip(segments, snapshots, agents):
        names = [path for path, _ in synced]
        assert len(names) == len(set(names))
        ranks = [WRITE_AHEAD[Path(path).name] for path in names]
        assert ranks == sorted(ranks)
        if agent is not None:
            assert {Path(p).parent.name for p in names if p != "index.jsonl"} <= {agent}
        touched = {path for path, size in after.items()
                   if Path(path).name in WRITE_AHEAD and size != before.get(path, 0)}
        # Every touched file of the chain is synced once, at its size then.
        assert dict(synced) == {path: after[path] for path in touched}
        before = after
    assert any(Path(path).name == "reactions.jsonl"
               for synced in segments for path, _ in synced)


def test_nothing_is_left_unsynced_when_run_returns(recorded):
    _, segments, snapshots, _ = recorded
    last_synced: dict[str, int] = {}
    for synced in segments:
        last_synced.update(synced)
    final = snapshots[-1]
    assert last_synced == {path: size for path, size in final.items()
                           if Path(path).name in WRITE_AHEAD}


def rebuild(out: Path, target: Path, snapshot: dict[str, int]) -> None:
    """The run directory as it stood at a commit point."""
    shutil.copytree(out, target)
    for path in [p for p in target.rglob("*") if p.is_file()]:
        size = snapshot.get(str(path.relative_to(target)))
        if size is None:
            path.unlink()
        else:
            with open(path, "r+b") as handle:
                handle.truncate(size)


def test_unsynced_reaction_without_its_product_is_reported(recorded, tmp_path):
    out, _, snapshots, _ = recorded
    final = snapshots[-1]
    logs = sorted(p for p in final if Path(p).name == "reactions.jsonl")
    checked = 0
    for k, snapshot in enumerate(snapshots[:-1]):
        prefix = tmp_path / f"commit{k}"
        rebuild(out, prefix, snapshot)
        assert verify_output(prefix)  # no report yet; never an exception
        path = next((p for p in logs if final[p] > snapshot.get(p, 0)), None)
        if path is None:
            continue
        # The next reaction line reached the file; its product did not.
        tail = (out / path).read_bytes()[snapshot.get(path, 0):]
        with open(prefix / path, "ab") as handle:
            handle.write(tail[:tail.index(b"\n") + 1])
        violations = verify_output(prefix)
        assert any("is in no store" in v for v in violations), violations
        checked += 1
    assert checked >= 3
