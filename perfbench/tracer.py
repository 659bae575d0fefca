"""Per-layer tracing of the simulator from outside its code.

The tracer replaces chosen functions and methods of the ``artifact``
package with wrappers, in every place a caller looks the name up (a
function imported into another module is replaced there too), and puts the
originals back on ``uninstall``. Nothing in the program changes.

Time is charged to buckets. Each wrapped function either names a bucket or
inherits its caller's; the clock is read at every entry and exit, and the
time since the last reading goes to the bucket on top of the stack, so a
bucket's time is its self time: its own work minus that of the wrapped
functions it calls. Coarse functions also record nested spans (name,
parent, start, end), kept in memory and written out by the caller.
"""

from __future__ import annotations

import builtins
import importlib
import os
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str
    name: str                  # "function" or "Class.method"
    bucket: str | None = None  # None: count only, time stays with the caller
    span: bool = False
    after: Callable | None = None  # after(tracer, args, result, seconds)


def _add(tracer, key, n):
    tracer.counts[key] = tracer.counts.get(key, 0) + n


def _after_heartbeat(tracer, args, result, seconds):
    world, _, cycle = args[:3]
    tracer.heartbeats.append((cycle, world.scenario.cycles, seconds))


def _after_react(tracer, args, result, seconds):
    _add(tracer, "reactor.reactions", len(result))


def _after_multi(tracer, args, result, seconds):
    _add(tracer, "reactor.multi_hits", result is not None)


def _after_open_needs(tracer, args, result, seconds):
    _add(tracer, "index.open_need_rows", len(result))


def _after_feed(tracer, args, result, seconds):
    _add(tracer, "governance.feed_posts_returned", len(result))


def _after_merge(tracer, args, result, seconds):
    _add(tracer, "mutator.merges", 1)
    tracer.merge_sets.add(frozenset(result.parent_artifact_ids))


def _after_fork(tracer, args, result, seconds):
    _add(tracer, "mutator.forks", 1)


def _after_graft(tracer, args, result, seconds):
    _add(tracer, "mutator.grafts", 1)


def _after_tracker_write(tracer, args, result, seconds):
    _add(tracer, "memory.tracker_bytes_written", os.path.getsize(args[0]))


TARGETS = (
    # sim: the run loop, the heartbeat and the pipeline
    Target("artifact.sim", "run", "sim.report", span=True),
    Target("artifact.sim", "need_latencies", "sim.report"),
    Target("artifact.sim", "heartbeat", "sim.heartbeat", span=True, after=_after_heartbeat),
    Target("artifact.sim", "run_pipeline", "sim.pipeline", span=True),
    Target("artifact.sim", "select_chain", "sim.pipeline"),
    Target("artifact.sim", "derive_needs", "sim.pipeline"),
    Target("artifact.sim", "World.resolve_id"),
    # skills
    Target("artifact.skills", "execute", "skills.execute"),
    # reactor, by phase
    Target("artifact.reactor", "ArtifactReactor.react", "reactor.react", span=True,
           after=_after_react),
    Target("artifact.reactor", "ArtifactReactor.react_to_needs", "reactor.needs", span=True),
    Target("artifact.reactor", "ArtifactReactor.scan_needs", "reactor.needs"),
    Target("artifact.reactor", "ArtifactReactor.react_multi", "reactor.multi", span=True,
           after=_after_multi),
    Target("artifact.reactor", "ArtifactReactor.react_single", "reactor.single", span=True),
    Target("artifact.reactor", "ArtifactReactor.scan_available"),
    Target("artifact.reactor", "ArtifactReactor.can_react"),
    # pressure
    Target("artifact.pressure", "rank", "pressure.rank"),
    Target("artifact.pressure", "pressure", "pressure.rank"),
    Target("artifact.pressure", "build_context", "pressure.rank"),
    Target("artifact.pressure", "centrality", "pressure.centrality"),
    # index
    Target("artifact.index", "GlobalIndex.publish", "index.publish"),
    Target("artifact.index", "GlobalIndex.scan", "index.scan"),
    Target("artifact.index", "GlobalIndex.open_needs", "index.open_needs",
           after=_after_open_needs),
    # lineage
    Target("artifact.lineage", "LineageGraph.insert", "lineage.insert"),
    Target("artifact.lineage", "LineageGraph.depth", "lineage.depth"),
    Target("artifact.lineage", "LineageGraph.leaves", "lineage.leaves"),
    Target("artifact.lineage", "LineageGraph.set_parents"),
    Target("artifact.lineage", "LineageGraph.metrics", "lineage.metrics", span=True),
    Target("artifact.lineage", "LineageGraph.is_acyclic", "verify.acyclic", span=True),
    # mutator: detection, application, and the cycle's own bookkeeping
    Target("artifact.mutator", "Mutator.mutate_cycle", "mutator.mutate_cycle", span=True),
    Target("artifact.mutator", "Mutator.drift_policy", "mutator.mutate_cycle"),
    Target("artifact.mutator", "Mutator.record_policy", "mutator.mutate_cycle"),
    Target("artifact.mutator", "Mutator.detect_conflict", "mutator.detect_conflict", span=True),
    Target("artifact.mutator", "Mutator.detect_redundancy", "mutator.detect_redundancy",
           span=True),
    Target("artifact.mutator", "Mutator.detect_stagnation", "mutator.detect_stagnation",
           span=True),
    Target("artifact.mutator", "Mutator.fork", "mutator.apply", after=_after_fork),
    Target("artifact.mutator", "Mutator.merge_siblings", "mutator.apply", after=_after_merge),
    Target("artifact.mutator", "Mutator.graft", "mutator.apply", after=_after_graft),
    # ledger and canonical form
    Target("artifact.ledger", "ArtifactStore.append", "ledger.append"),
    Target("artifact.ledger", "verify_integrity", "verify.integrity"),
    Target("artifact.canonical", "canonicalize", "canonical"),
    Target("artifact.canonical", "content_hash", "canonical"),
    Target("artifact.canonical", "canonical_line", "canonical"),
    # governance
    Target("artifact.governance", "GovernanceLedger.feed", "governance.feed",
           after=_after_feed),
    Target("artifact.governance", "GovernanceLedger._log", "governance.write"),
    # memory
    Target("artifact.memory", "AgentJournal.log"),
    Target("artifact.memory", "InvestigationTracker.create", "memory.tracker"),
    Target("artifact.memory", "InvestigationTracker.add_hypothesis", "memory.tracker"),
    Target("artifact.memory", "InvestigationTracker.add_result", "memory.tracker"),
    Target("artifact.memory", "InvestigationTracker.mark_complete", "memory.tracker"),
    Target("artifact.memory", "_atomic_write", after=_after_tracker_write),
    # the audit path
    Target("artifact.sim", "verify_output", "verify.integrity", span=True),
    Target("artifact.sim", "load_world_dag", "verify.load_dag", span=True),
)


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "artifact" or name.startswith("artifact."))]


def replace_everywhere(original, replacement, undo: list) -> None:
    """Rebind every module-level name in the package that holds ``original``."""
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


class _OsWithCountedFsync:
    """Stands in for ``os`` in one module, counting fsync calls."""

    def __init__(self, tracer):
        self._tracer = tracer

    def fsync(self, fd):
        _add(self._tracer, "ledger.fsync_calls", 1)
        return os.fsync(fd)

    def __getattr__(self, name):
        return getattr(os, name)


class Tracer:
    def __init__(self):
        self.time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.merge_sets: set = set()
        self.heartbeats: list[tuple] = []
        self.spans: list[list] = []
        self._buckets = ["untraced"]
        self._open_spans = [-1]
        self._last = perf_counter()
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, label: str, fn, target: Target):
        tracer = self
        calls = self.calls
        bucket, span, after = target.bucket, target.span, target.after
        if bucket is None and after is None:
            def counted(*args, **kwargs):
                calls[label] = calls.get(label, 0) + 1
                return fn(*args, **kwargs)
            return counted
        if bucket is None:
            def counted_after(*args, **kwargs):
                calls[label] = calls.get(label, 0) + 1
                result = fn(*args, **kwargs)
                hook = perf_counter()
                after(tracer, args, result, 0.0)
                tracer._last += perf_counter() - hook  # the hook's time is nobody's
                return result
            return counted_after

        times = self.time
        stack = self._buckets
        spans = self.spans
        open_spans = self._open_spans

        def timed(*args, **kwargs):
            calls[label] = calls.get(label, 0) + 1
            start = perf_counter()
            top = stack[-1]
            times[top] = times.get(top, 0.0) + (start - tracer._last)
            tracer._last = start
            stack.append(bucket)
            if span:
                spans.append([label, open_spans[-1], start, None])
                open_spans.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                done = stack.pop()
                times[done] = times.get(done, 0.0) + (end - tracer._last)
                tracer._last = end
                if span:
                    spans[open_spans.pop()][3] = end
            if after is not None:
                after(tracer, args, result, end - start)
                tracer._last = perf_counter()  # the hook's time is nobody's
            return result
        return timed

    def _counted_open(self):
        calls = self.calls

        def counted_open(*args, **kwargs):
            calls["io.opens"] = calls.get("io.opens", 0) + 1
            return builtins.open(*args, **kwargs)
        return counted_open

    # -- install / uninstall ------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            module = importlib.import_module(target.module)
            label = f"{target.module.rsplit('.', 1)[-1]}.{target.name}"
            if "." in target.name:
                cls_name, method = target.name.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(label, original, target))
                self._undo.append((cls, method, original))
            else:
                original = getattr(module, target.name)
                replace_everywhere(original, self._wrap(label, original, target), self._undo)
        counted_open = self._counted_open()
        for module in package_modules():
            if "open" not in vars(module):
                module.open = counted_open
                self._undo.append((module, "open", None))
        ledger = importlib.import_module("artifact.ledger")
        self._undo.append((ledger, "os", ledger.os))
        ledger.os = _OsWithCountedFsync(self)
        self._last = perf_counter()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def spans_as_records(self) -> list[dict]:
        return [{"name": name, "parent": parent, "start": start, "end": end}
                for name, parent, start, end in self.spans]


def _quantile(values: list[float], q: int) -> float:
    """The q-th decile (q in 1..9) as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[q - 1]


def layer_counts(tracer: Tracer, store_bytes: int) -> dict[str, float]:
    """Per-round counts and ratios; they repeat exactly for one seed."""
    calls, counts = tracer.calls, tracer.counts
    multi_calls = calls.get("reactor.ArtifactReactor.react_multi", 0)
    merges = counts.get("mutator.merges", 0)
    return {
        "skills.execute_calls": calls.get("skills.execute", 0),
        "reactor.scan_available_calls": calls.get("reactor.ArtifactReactor.scan_available", 0),
        "reactor.can_react_calls": calls.get("reactor.ArtifactReactor.can_react", 0),
        "reactor.reactions": counts.get("reactor.reactions", 0),
        "reactor.multi_hit_ratio": (counts.get("reactor.multi_hits", 0) / multi_calls
                                    if multi_calls else 1.0),
        "pressure.centrality_calls": calls.get("pressure.centrality", 0),
        "index.publish_calls": calls.get("index.GlobalIndex.publish", 0),
        "index.scan_calls": calls.get("index.GlobalIndex.scan", 0),
        "index.open_needs_calls": calls.get("index.GlobalIndex.open_needs", 0),
        "index.open_need_rows": counts.get("index.open_need_rows", 0),
        "lineage.depth_calls": calls.get("lineage.LineageGraph.depth", 0),
        "lineage.set_parents_calls": calls.get("lineage.LineageGraph.set_parents", 0),
        "mutator.resolve_calls": calls.get("sim.World.resolve_id", 0),
        "mutator.merges": merges,
        "mutator.grafts": counts.get("mutator.grafts", 0),
        "mutator.forks": counts.get("mutator.forks", 0),
        "mutator.merge_distinct_ratio": len(tracer.merge_sets) / merges if merges else 1.0,
        "ledger.append_calls": calls.get("ledger.ArtifactStore.append", 0),
        "ledger.fsync_calls": counts.get("ledger.fsync_calls", 0),
        "ledger.bytes_appended": store_bytes,
        "canonical.canonicalize_calls": calls.get("canonical.canonicalize", 0),
        "governance.feed_calls": calls.get("governance.GovernanceLedger.feed", 0),
        "governance.feed_posts_returned": counts.get("governance.feed_posts_returned", 0),
        "memory.journal_lines": calls.get("memory.AgentJournal.log", 0),
        "memory.tracker_writes": calls.get("memory._atomic_write", 0),
        "memory.tracker_bytes_written": counts.get("memory.tracker_bytes_written", 0),
        "io.opens": calls.get("io.opens", 0),
    }


# Reported self time per bucket, by metric name.
TIME_METRICS = {
    "sim.heartbeat_self_s": "sim.heartbeat",
    "sim.pipeline_s": "sim.pipeline",
    "sim.report_s": "sim.report",
    "skills.execute_s": "skills.execute",
    "reactor.react_s": "reactor.react",
    "reactor.needs_s": "reactor.needs",
    "reactor.multi_s": "reactor.multi",
    "reactor.single_s": "reactor.single",
    "pressure.rank_s": "pressure.rank",
    "pressure.centrality_s": "pressure.centrality",
    "index.publish_s": "index.publish",
    "index.scan_s": "index.scan",
    "index.open_needs_s": "index.open_needs",
    "lineage.insert_s": "lineage.insert",
    "lineage.depth_s": "lineage.depth",
    "lineage.leaves_s": "lineage.leaves",
    "lineage.metrics_s": "lineage.metrics",
    "mutator.mutate_cycle_s": "mutator.mutate_cycle",
    "mutator.detect_conflict_s": "mutator.detect_conflict",
    "mutator.detect_redundancy_s": "mutator.detect_redundancy",
    "mutator.detect_stagnation_s": "mutator.detect_stagnation",
    "mutator.apply_s": "mutator.apply",
    "ledger.append_s": "ledger.append",
    "canonical.canonicalize_s": "canonical",
    "governance.feed_s": "governance.feed",
    "governance.write_s": "governance.write",
    "memory.tracker_s": "memory.tracker",
    "verify.load_dag_s": "verify.load_dag",
    "verify.acyclic_s": "verify.acyclic",
    "verify.integrity_s": "verify.integrity",
}


def layer_times(tracer: Tracer) -> dict[str, float]:
    return {metric: tracer.time.get(bucket, 0.0) for metric, bucket in TIME_METRICS.items()}


def heartbeat_quantiles(heartbeats: list[tuple]) -> dict[str, float]:
    """Inclusive heartbeat times in ms; 'late' is the last quarter of cycles."""
    all_ms = [seconds * 1000.0 for _, _, seconds in heartbeats]
    late_ms = [seconds * 1000.0 for cycle, cycles, seconds in heartbeats
               if cycle >= 0.75 * cycles]
    return {
        "sim.heartbeat_ms_p50": statistics.median(all_ms),
        "sim.heartbeat_ms_p90": _quantile(all_ms, 9),
        "sim.heartbeat_late_ms_p50": statistics.median(late_ms),
    }
