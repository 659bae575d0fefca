"""Output checks computed apart from the program.

Nothing here imports the simulator: every check re-reads the files a run
left behind with ``json`` and ``hashlib`` and recomputes what it needs. A
check returns ``(name, detail)`` problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

PRESSURE_WEIGHTS = (2.0, 1.0, 0.5, 0.2)   # novelty, centrality, depth, age
DEFAULT_MAX_MUTATIONS = 2
TOLERANCE = 1e-9


def tree_digest(root: str | Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def tree_bytes(root: str | Path) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def _lines(path: Path) -> list[str]:
    if not path.exists():
        return []
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read().splitlines()


def _records(path: Path) -> list[dict]:
    return [json.loads(line) for line in _lines(path)]


def payload_hash(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_hashes(out: Path) -> tuple[list, int]:
    """Every stored content_hash against a fresh hash; also counts store lines."""
    problems = []
    count = 0
    for store in sorted(out.glob("agents/*/store.jsonl")):
        for number, line in enumerate(_lines(store), start=1):
            count += 1
            try:
                record = json.loads(line)
                ok = payload_hash(record["payload"]) == record["content_hash"]
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(("hash", f"{store.relative_to(out)}:{number} unreadable: {exc}"))
                continue
            if not ok:
                problems.append(("hash", f"{store.relative_to(out)}:{number} "
                                         f"content_hash does not match the payload"))
    return problems, count


def check_counts(out: Path, store_lines: int) -> list:
    report = json.loads((out / "report.json").read_text("utf-8"))
    reported = report["dag_metrics"]["artifact_count"]
    index_lines = len(_lines(out / "index.jsonl"))
    if reported == store_lines == index_lines:
        return []
    return [("artifact_count", f"report {reported}, store lines {store_lines}, "
                               f"index lines {index_lines}")]


def check_single_consumption(out: Path) -> list:
    """No artifact consumed twice, no need key fulfilled twice."""
    problems = []
    consumed: Counter = Counter()
    fulfilled: Counter = Counter()
    for reactions in sorted(out.glob("agents/*/reactions.jsonl")):
        for record in _records(reactions):
            consumed.update(record["consumed_ids"])
            if record["fulfilled_need"] is not None:
                fulfilled[record["fulfilled_need"]] += 1
    indexed: Counter = Counter(
        entry["fulfills"] for entry in _records(out / "index.jsonl")
        if entry["fulfills"] is not None
    )
    for artifact_id, n in sorted(consumed.items()):
        if n > 1:
            problems.append(("consumed_twice", f"{artifact_id} consumed {n} times"))
    for source, counts in (("reactions", fulfilled), ("index", indexed)):
        for key, n in sorted(counts.items()):
            if n > 1:
                problems.append(("need_fulfilled_twice", f"{key} fulfilled {n} times in {source}"))
    return problems


def check_mutation_budget(out: Path, limit: int) -> list:
    problems = []
    for log in sorted(out.glob("agents/*/mutations.jsonl")):
        per_cycle = Counter(event["cycle"] for event in _records(log))
        for cycle, n in sorted(per_cycle.items()):
            if n > limit:
                problems.append(("mutation_budget", f"{log.parent.name} made {n} mutations "
                                                    f"in cycle {cycle}, limit {limit}"))
    return problems


def check_pressure(out: Path) -> list:
    """Each logged score from its own logged terms; novelty is 1/(1+k)."""
    w_nov, w_cen, w_dep, w_age = PRESSURE_WEIGHTS
    problems = []
    for reactions in sorted(out.glob("agents/*/reactions.jsonl")):
        for record in _records(reactions):
            p = record["pressure"]
            if p is None:
                continue
            expected = (w_nov * p["novelty"] + w_cen * p["centrality"]
                        + w_dep * p["depth_term"] + w_age * p["age_term"])
            if abs(expected - p["score"]) > TOLERANCE:
                problems.append(("pressure_score", f"{record['produced_id']}: logged "
                                                   f"{p['score']}, terms give {expected}"))
            k = 1.0 / p["novelty"] - 1.0 if p["novelty"] > 0 else -1.0
            if round(k) < 0 or abs(k - round(k)) > TOLERANCE:
                problems.append(("pressure_novelty", f"{record['produced_id']}: novelty "
                                                     f"{p['novelty']} is not 1/(1+k)"))
    return problems


def mutation_limit(out: Path) -> int:
    report = json.loads((out / "report.json").read_text("utf-8"))
    policy = report["scenario"].get("mutation_policy") or {}
    return policy.get("max_mutations_per_cycle", DEFAULT_MAX_MUTATIONS)


def check_run_dir(out: str | Path) -> list:
    """All file-level checks of one run directory."""
    out = Path(out)
    problems, store_lines = check_hashes(out)
    problems += check_counts(out, store_lines)
    problems += check_single_consumption(out)
    problems += check_mutation_budget(out, mutation_limit(out))
    problems += check_pressure(out)
    return problems
