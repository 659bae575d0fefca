#!/usr/bin/env python3
"""Benchmark of the artifact simulator: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload grid-mutate --seed 1 --seconds 38 --trace 0

Runs whole rounds of the workload's scenarios through ``artifact.sim.run``
and ``verify_output`` for at most ``--seconds`` (at least one round, two
when tracing), checks the outputs
against computations made apart from the program, and prints as its last
line ``{"correct", "attempted", "failed", "metrics"}``. Operations are agent
heartbeats; a heartbeat fails when the program logs an exception it
swallowed during it. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` untraced and traced rounds alternate and the metrics are
the per-layer ones from the traced rounds, plus the tracing overhead.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result. Run
directories and the span file go under ``.perfbench_out/`` there.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
# One verify pass of a grid takes about 0.1 s, short enough for a burst of
# load on a shared machine to double it; untraced rounds take the median of
# three passes. Traced rounds verify once, so their counts are one pass.
VERIFY_PASSES = 3

sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import workloads  # noqa: E402


def program_present() -> bool:
    return (SRC / "artifact" / "__init__.py").is_file()


def setup(workload: workloads.Workload, seed: int, out_root: Path):
    """Import, registry, scenario generation and output root: the set-up a user pays."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from artifact.sim import Scenario, demo_scenario
    from artifact.skills import default_registry

    tool_names = [m.name for m in default_registry().skills()]
    dicts = workloads.scenario_dicts(workload, seed, tool_names, demo_scenario().to_dict())
    scenarios = [Scenario.from_dict(d) for d in dicts]
    out_root.mkdir(parents=True, exist_ok=True)
    return scenarios


def setup_probe(workload: workloads.Workload, seed: int, out_root: Path) -> float:
    start = perf_counter()
    setup(workload, seed, out_root)
    return perf_counter() - start


def measure_setup(workload_name: str, seed: int, work: Path) -> list[float]:
    """Set-up time of fresh processes, since ``import artifact`` happens once per process."""
    samples = []
    for i in range(SETUP_SAMPLES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
             "--seed", str(seed), "--setup-probe", str(work / f"probe-{i}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return samples


class Operations(logging.Handler):
    """Counts heartbeats and marks one failed when the program logs a swallowed error."""

    def __init__(self, workload: str, seed: int):
        super().__init__(level=logging.WARNING)
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.current: tuple | None = None
        self.current_failed = False
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        where = "outside a heartbeat" if self.current is None else \
            "scenario seed {} agent {} cycle {}".format(*self.current)
        self.messages.append(f"swallowed exception [{self.workload} seed {self.seed}, "
                             f"{where}] {record.name}: {record.getMessage()}")
        if self.current is not None and not self.current_failed:
            self.current_failed = True
            self.failed += 1

    def wrap_heartbeat(self, heartbeat):
        ops = self

        def counted_heartbeat(world, agent_name, cycle):
            ops.attempted += 1
            ops.current = (world.scenario.seed, agent_name, cycle)
            ops.current_failed = False
            try:
                return heartbeat(world, agent_name, cycle)
            finally:
                ops.current = None
        return counted_heartbeat


class Bench:
    def __init__(self, args, scenarios, work: Path):
        from artifact import sim

        self.sim = sim
        self.args = args
        self.scenarios = scenarios
        self.work = work
        self.problems: list[str] = []
        self.first_digests: list[str] | None = None

    def problem(self, scenario_seed, name: str, detail: str) -> None:
        self.problems.append(f"check failed [{self.args.workload} seed {self.args.seed}, "
                             f"scenario seed {scenario_seed}] {name}: {detail}")

    def round(self, index: int, tracer=None) -> dict:
        sim = self.sim
        round_dir = self.work / f"round-{index}"
        run_s = verify_s = 0.0
        dirs = []
        if tracer is not None:
            tracer.install()
        try:
            for i, scenario in enumerate(self.scenarios):
                out = round_dir / f"{i:02d}"
                start = perf_counter()
                sim.run(scenario, out)
                run_s += perf_counter() - start
                passes = []
                for _ in range(VERIFY_PASSES if tracer is None else 1):
                    start = perf_counter()
                    violations = sim.verify_output(out)
                    passes.append(perf_counter() - start)
                verify_s += statistics.median(passes)
                for violation in violations:
                    self.problem(scenario.seed, "verify_output", violation)
                dirs.append(out)
        finally:
            if tracer is not None:
                tracer.uninstall()
        digests = [checker.tree_digest(d) for d in dirs]
        result = {
            "run_s": run_s,
            "verify_s": verify_s,
            "output_bytes": sum(checker.tree_bytes(d) for d in dirs),
            "store_bytes": sum(p.stat().st_size for d in dirs
                               for p in d.glob("agents/*/store.jsonl")),
        }
        if self.first_digests is None:
            self.first_digests = digests
            self.check_outputs(dirs, digests)
        elif digests != self.first_digests:
            changed = [self.scenarios[i].seed for i, (a, b)
                       in enumerate(zip(digests, self.first_digests)) if a != b]
            self.problem(changed, "rerun_digest", f"round {index} wrote other bytes "
                                                  f"than round 0")
        shutil.rmtree(round_dir)
        return result

    def check_outputs(self, dirs, digests) -> None:
        for scenario, out in zip(self.scenarios, dirs):
            try:
                found = checker.check_run_dir(out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                found = [("checker_error", repr(exc))]
            for name, detail in found:
                self.problem(scenario.seed, name, detail)
        if self.args.workload == "demo-sweep" and digests[-1] != digests[0]:
            self.problem(self.scenarios[0].seed, "rerun_digest",
                         "the demo's second run of one seed wrote other bytes")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="OUT_ROOT", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def end_to_end(rounds: list[dict], setup_samples: list[float]) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "run_s": {"value": statistics.median(r["run_s"] for r in rounds), "unit": "s"},
        "verify_s": {"value": statistics.median(r["verify_s"] for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "output_bytes": {"value": rounds[0]["output_bytes"], "unit": "B"},
    }


def per_layer(untraced: list[dict], traced: list[tuple], bench: Bench) -> dict:
    import tracer as tracing

    counts = [tracing.layer_counts(t, r["store_bytes"]) for r, t in traced]
    for other in counts[1:]:
        if other != counts[0]:
            bench.problem("all", "trace_counts",
                          "two traced rounds of one seed counted differently")
    values = dict(counts[0])
    times = [tracing.layer_times(t) for _, t in traced]
    for name in tracing.TIME_METRICS:
        values[name] = statistics.median(t[name] for t in times)
    values.update(tracing.heartbeat_quantiles(
        [hb for _, t in traced for hb in t.heartbeats]))
    values["trace.overhead_s"] = (statistics.median(r["run_s"] for r, _ in traced)
                                  - statistics.median(r["run_s"] for r in untraced))
    units = {"_s": "s", "_ms_p50": "ms", "_ms_p90": "ms", "_ratio": "ratio",
             "bytes_appended": "B", "bytes_written": "B"}
    metrics = {}
    for name, value in values.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def write_spans(path: Path, tracer_obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer_obj.spans_as_records()}, handle)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if not program_present():
        print(f"no program to measure: {SRC / 'artifact'} is missing", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_probe(workload, args.seed, Path(args.setup_probe))))
        return 0

    work = OUT / f"run-{os.getpid()}"
    try:
        scenarios = setup(workload, args.seed, work)
        ops = Operations(args.workload, args.seed)
        logging.getLogger("artifact").addHandler(ops)
        from artifact import sim
        from tracer import Tracer, replace_everywhere
        replace_everywhere(sim.heartbeat, ops.wrap_heartbeat(sim.heartbeat), [])

        bench = Bench(args, scenarios, work)
        untraced: list[dict] = []
        traced: list[tuple] = []
        start = perf_counter()
        index = 0
        while True:
            began = perf_counter()
            if args.trace and index % 2 == 1:
                tracer_obj = Tracer()
                traced.append((bench.round(index, tracer_obj), tracer_obj))
            else:
                untraced.append(bench.round(index))
            index += 1
            # Start no round that would end past --seconds, judged by the last.
            now = perf_counter()
            if now - start + (now - began) > args.seconds and (traced or not args.trace):
                break

        if args.trace:
            metrics = per_layer(untraced, traced, bench)
            write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json", traced[0][1])
        else:
            metrics = end_to_end(untraced, measure_setup(args.workload, args.seed, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in ops.messages + bench.problems:
        print(line, file=sys.stderr)
    result = {
        "correct": not bench.problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
