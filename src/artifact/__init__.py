"""Plannerless multi-agent coordination over a content-addressed artifact DAG.

Agents produce immutable, hash-stamped artifacts, broadcast needs to a shared
index, and react to each other's work by pressure-ranked need fulfillment and
schema-overlap synthesis, with no central planner anywhere. A mutation layer
reshapes the DAG, a governance ledger tracks karma and rate limits, and a
deterministic simulator drives the whole loop with synthetic skills.
"""

from .canonical import canonicalize, content_hash
from .clock import ManualClock, SystemClock
from .governance import GovernanceLedger, Tier, tier_of
from .index import GlobalIndex, NeedKey
from .ledger import (
    Artifact,
    ArtifactAddress,
    ArtifactStore,
    create_artifact,
    format_address,
    parse_address,
    verify_integrity,
)
from .lineage import DagMetrics, LineageGraph
from .mutator import MutationEvent, MutationPolicy, Mutator
from .needs import NeedItem, NeedsSignal, make_need, tokenize
from .pressure import PressureBreakdown, PressureContext, pressure, rank
from .reactor import ArtifactReactor, ReactionRecord, merge_payloads, schema_overlap
from .sim import Scenario, SimulationReport, World, demo_scenario, heartbeat, run
from .skills import (
    AgentProfile,
    SkillManifest,
    SkillRegistry,
    allowed_types,
    default_registry,
    execute,
    normalize_param,
)

__all__ = [
    "AgentProfile",
    "Artifact",
    "ArtifactAddress",
    "ArtifactReactor",
    "ArtifactStore",
    "DagMetrics",
    "GlobalIndex",
    "GovernanceLedger",
    "LineageGraph",
    "ManualClock",
    "MutationEvent",
    "MutationPolicy",
    "Mutator",
    "NeedItem",
    "NeedKey",
    "NeedsSignal",
    "PressureBreakdown",
    "PressureContext",
    "ReactionRecord",
    "Scenario",
    "SimulationReport",
    "SkillManifest",
    "SkillRegistry",
    "SystemClock",
    "Tier",
    "World",
    "allowed_types",
    "canonicalize",
    "content_hash",
    "create_artifact",
    "default_registry",
    "demo_scenario",
    "execute",
    "format_address",
    "heartbeat",
    "make_need",
    "merge_payloads",
    "normalize_param",
    "parse_address",
    "pressure",
    "rank",
    "run",
    "schema_overlap",
    "tier_of",
    "tokenize",
    "verify_integrity",
]
