"""Command-line front end: run scenarios, export DAGs, inspect artifacts."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ArtifactError
from .governance import GovernanceLedger
from .ledger import parse_address
from .rundir import RunDir, load_world_dag, read_store, verify_output
from .sim import Scenario, demo_scenario, export_dag, run


def _cmd_run(args: argparse.Namespace) -> int:
    if args.scenario == "demo":
        scenario = demo_scenario()
    else:
        scenario = Scenario.load(args.scenario)
    if args.seed is not None:
        data = scenario.to_dict()
        data["seed"] = args.seed
        scenario = Scenario.from_dict(data)
    world, report = run(scenario, args.out)
    print(f"completed {scenario.cycles} cycles over {len(world.agents)} agents")
    print(f"artifacts: {report.dag_metrics['artifact_count']}  "
          f"synthesis: {report.dag_metrics['synthesis_count']}  "
          f"avg dag depth: {report.dag_metrics['avg_dag_depth']:.3f}")
    print(f"posts: {report.posts}  reactions: {report.reactions}  "
          f"mutations: {report.mutations}")
    latency = report.mean_need_latency_seconds
    print(f"needs fulfilled: {len(report.need_latencies)}  mean need latency: "
          + (f"{latency / 3600:.2f} simulated hours" if latency is not None else "none"))
    print(f"report written to {RunDir(args.out).report}")
    return _cmd_verify(args) if args.verify else 0


def _cmd_export_dag(args: argparse.Namespace) -> int:
    graph, _, _ = load_world_dag(args.out)
    text = export_dag(graph, args.format)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    graph, _, _ = load_world_dag(args.out)
    print(json.dumps(graph.metrics().to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    address = parse_address(args.address)
    run_dir = RunDir(args.out)
    if not run_dir.agent(address.agent).store.exists():
        print(f"no store for agent {address.agent!r} under {args.out}", file=sys.stderr)
        return 1
    artifact = None
    for record in read_store(run_dir, address.agent, {}):
        if record.artifact_id == address.id:
            artifact = record
    if artifact is None:
        print(f"artifact {address.id} not found in {address.agent}'s store", file=sys.stderr)
        return 1
    print(json.dumps(artifact.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    violations = verify_output(args.out)
    if violations:
        for violation in violations:
            print(f"INVARIANT VIOLATION: {violation}", file=sys.stderr)
        return 1
    print("all invariant checks passed")
    return 0


def _cmd_accounts(args: argparse.Namespace) -> int:
    path = RunDir(args.out).governance
    if not path.exists():
        print(f"no governance ledger under {args.out}", file=sys.stderr)
        return 1
    ledger = GovernanceLedger(path)
    rows = sorted(ledger.accounts.values(), key=lambda a: a.name)
    if args.agent:
        rows = [a for a in rows if a.name == args.agent]
        if not rows:
            print(f"no account named {args.agent!r}", file=sys.stderr)
            return 1
    print(f"{'agent':<16} {'karma':>6} {'reputation':>11} {'tier':<10} "
          f"{'posts':>5} {'comments':>8}")
    for account in rows:
        print(f"{account.name:<16} {account.karma:>6} {account.reputation:>11} "
              f"{account.tier.value:<10} {account.post_count:>5} "
              f"{account.comment_count:>8}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact-sim",
        description="Plannerless multi-agent coordination simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file (or 'demo')")
    p_run.add_argument("scenario", help="path to a scenario JSON file, or 'demo'")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--verify", action="store_true",
                       help="re-check invariants after the run; nonzero exit on violation")
    p_run.set_defaults(func=_cmd_run)

    p_export = sub.add_parser("export-dag", help="export the lineage DAG from a run directory")
    p_export.add_argument("--out", required=True, help="run output directory")
    p_export.add_argument("--format", default="graph-text",
                          choices=["graph-text", "structured-dump"])
    p_export.add_argument("--output", default=None, help="write to a file instead of stdout")
    p_export.set_defaults(func=_cmd_export_dag)

    p_metrics = sub.add_parser("metrics", help="recompute DAG metrics from a run directory")
    p_metrics.add_argument("--out", required=True, help="run output directory")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_inspect = sub.add_parser("inspect", help="pretty-print one artifact by address")
    p_inspect.add_argument("address", help="artifact://{agent}/{uuid}")
    p_inspect.add_argument("--out", required=True, help="run output directory")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_verify = sub.add_parser("verify", help="re-check invariants over a run directory")
    p_verify.add_argument("--out", required=True, help="run output directory")
    p_verify.set_defaults(func=_cmd_verify)

    p_accounts = sub.add_parser("accounts", help="karma/tier table from the governance log")
    p_accounts.add_argument("--out", required=True, help="run output directory")
    p_accounts.add_argument("--agent", default=None, help="show only this agent")
    p_accounts.set_defaults(func=_cmd_accounts)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
