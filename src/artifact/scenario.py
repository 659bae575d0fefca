"""Scenario files: the seed, agent profiles, seeded topics and scripted
interventions a run is given, and the skill registry and profiles they name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InvalidScenario
from .mutator import MutationPolicy
from .skills import AgentProfile, SkillRegistry, default_registry, load_profile, load_registry


@dataclass(frozen=True)
class SeededTopic:
    cycle: int
    agent: str
    topic: str


@dataclass(frozen=True)
class Intervention:
    cycle: int
    agent: str  # the post author whose newest post receives the comment
    comment_type: str
    body: str


@dataclass
class Scenario:
    seed: int
    cycles: int
    agents: list
    registry: str = "default"
    seeded_topics: list = field(default_factory=list)
    interventions: list = field(default_factory=list)
    mutation_policy: dict = field(default_factory=dict)
    mutation_enabled: bool = True
    concurrent: bool = False
    community: str = "main"

    def validate(self) -> None:
        if self.cycles < 1:
            raise InvalidScenario("cycles must be >= 1")
        if not isinstance(self.seed, int):
            raise InvalidScenario("seed must be an integer")
        if not self.agents:
            raise InvalidScenario("at least one agent profile is required")
        names = [a["name"] for a in self.agents]
        if len(names) != len(set(names)):
            raise InvalidScenario("agent names must be unique")
        for topic in self.seeded_topics:
            if topic.agent not in names:
                raise InvalidScenario(f"seeded topic names unknown agent {topic.agent!r}")
            if not 0 <= topic.cycle < self.cycles:
                raise InvalidScenario(f"seeded topic cycle {topic.cycle} out of range")
        for act in self.interventions:
            if act.agent not in names:
                raise InvalidScenario(f"intervention names unknown agent {act.agent!r}")
            if act.comment_type not in ("chat", "redirect"):
                raise InvalidScenario("interventions must be chat or redirect")
            if not 0 <= act.cycle < self.cycles:
                raise InvalidScenario(f"intervention cycle {act.cycle} out of range")
        try:
            MutationPolicy(**self.mutation_policy)
        except (TypeError, ValueError) as exc:
            raise InvalidScenario(f"mutation_policy: {exc}") from None

    def load_profiles(self) -> tuple[SkillRegistry, dict[str, AgentProfile]]:
        """The skill registry the scenario names and its agents' profiles by
        name; UnknownSkill for an agent that prefers a skill the registry
        lacks."""
        registry = default_registry() if self.registry == "default" \
            else load_registry(self.registry)
        profiles = (load_profile(raw, registry) for raw in self.agents)
        return registry, {profile.name: profile for profile in profiles}

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "cycles": self.cycles,
            "agents": [dict(a) for a in self.agents],
            "registry": self.registry,
            "seeded_topics": [
                {"cycle": t.cycle, "agent": t.agent, "topic": t.topic}
                for t in self.seeded_topics
            ],
            "interventions": [
                {"cycle": i.cycle, "agent": i.agent,
                 "comment_type": i.comment_type, "body": i.body}
                for i in self.interventions
            ],
            "mutation_policy": dict(self.mutation_policy),
            "mutation_enabled": self.mutation_enabled,
            "concurrent": self.concurrent,
            "community": self.community,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """A validated scenario from its scenario-file form. A field that is
        missing without a default, of the wrong JSON type or unknown raises
        InvalidScenario."""
        fields = _fields(data, "scenario", {"seed": int, "cycles": int, "agents": list}, {
            "registry": "default", "seeded_topics": [], "interventions": [],
            "mutation_policy": {}, "mutation_enabled": True, "concurrent": False,
            "community": "main"})
        for agent in fields["agents"]:
            profile = _fields(agent, "agent", {"name": str},
                              {"preferred_tools": [], "research_interests": []})
            if any(not isinstance(v, str)
                   for v in profile["preferred_tools"] + profile["research_interests"]):
                raise InvalidScenario(f"agent {profile['name']!r}: preferred_tools and "
                                      f"research_interests must be lists of strings")
        topic = {"cycle": int, "agent": str, "topic": str}
        act = {"cycle": int, "agent": str, "comment_type": str, "body": str}
        fields.update(
            agents=list(fields["agents"]),
            seeded_topics=[SeededTopic(**_fields(t, "seeded topic", topic, {}))
                           for t in fields["seeded_topics"]],
            interventions=[Intervention(**_fields(i, "intervention", act, {}))
                           for i in fields["interventions"]],
            mutation_policy=dict(fields["mutation_policy"]),
        )
        scenario = cls(**fields)
        scenario.validate()
        return scenario

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except ValueError as exc:  # not UTF-8, or not JSON
                raise InvalidScenario(f"{path} is not a JSON file: {exc}") from None
        return cls.from_dict(data)


_JSON_TYPES = {int: "integer", str: "string", bool: "boolean", list: "array", dict: "object"}


def _fields(data, where: str, required: dict[str, type], optional: dict) -> dict:
    """The required and optional fields of a scenario-file object, each of
    its JSON type (an optional field's default gives its type), a missing
    optional one as its default; InvalidScenario for a missing required
    field, a field of another type, a field of no other name (a misspelt
    optional field would go unnoticed), or ``data`` not an object."""
    if not isinstance(data, dict):
        raise InvalidScenario(f"{where} must be a JSON object, not {type(data).__name__}")
    kinds = {**required, **{name: type(default) for name, default in optional.items()}}
    unknown = sorted(set(data) - set(kinds))
    if unknown:
        raise InvalidScenario(f"{where} has unknown field(s) {unknown}")
    fields = {}
    for name, kind in kinds.items():
        if name not in data and name not in optional:
            raise InvalidScenario(f"{where} has no {name!r}")
        value = fields[name] = data.get(name, optional.get(name))
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise InvalidScenario(f"{where} {name!r} must be a JSON {_JSON_TYPES[kind]}, "
                                  f"not {type(value).__name__} {value!r}")
    return fields


def demo_scenario() -> Scenario:
    """The bundled three-agent, five-cycle demo."""
    from importlib import resources

    text = resources.files("artifact.data").joinpath("demo_scenario.json").read_text("utf-8")
    return Scenario.from_dict(json.loads(text))

