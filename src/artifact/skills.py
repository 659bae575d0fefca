"""Synthetic skill manifests, parameter normalization, and domain gating.

Skills here are in-process deterministic transforms, not subprocesses: each
manifest names a behavior id and a salt, and ``execute`` derives every output
value from SHA-256 over (salt, seed, consumed params). That keeps the whole
chaining/typing contract of real tool skills (typed JSON out, payload keys
that downstream skills can match on) while making every run reproducible.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping

from .canonical import Payload, canonicalize
from .errors import InvalidParam, MissingParam, UnknownSkill

CROSS_CUTTING_TYPES = ("synthesis", "peer_validation", "mutation_policy")
ALWAYS_ALLOWED_TYPES = ("synthesis", "peer_validation")

_DASH_SPACE = re.compile(r"[-\s]")


def normalize_param(raw: str) -> str:
    """snake_case a raw CLI-style parameter name (``--input-json`` -> ``input_json``)."""
    stripped = raw.strip().lstrip("-")
    if not stripped:
        raise InvalidParam(f"parameter name empty after stripping: {raw!r}")
    return _DASH_SPACE.sub("_", stripped).lower()


@dataclass(frozen=True)
class SkillManifest:
    name: str
    input_params: tuple
    output_artifact_type: str
    domain: str
    behavior: str
    salt: str
    json_fields: tuple = ()

    def __post_init__(self):
        if not self.input_params:
            raise InvalidParam(f"skill {self.name} declares no input params")


@dataclass(frozen=True)
class AgentProfile:
    name: str
    research_interests: tuple = ()
    preferred_tools: tuple = ()
    domains: frozenset = frozenset()

    @property
    def unrestricted(self) -> bool:
        return not self.preferred_tools


class SkillRegistry:
    """Immutable after construction; registry order is declaration order."""

    def __init__(self, manifests: Iterable[SkillManifest]):
        self._manifests: dict[str, SkillManifest] = {}
        for manifest in manifests:
            if manifest.name in self._manifests:
                raise UnknownSkill(f"duplicate skill name {manifest.name}")
            if manifest.behavior not in BEHAVIORS:
                raise UnknownSkill(
                    f"skill {manifest.name} names unknown behavior {manifest.behavior!r}"
                )
            self._manifests[manifest.name] = manifest

    def __contains__(self, name: str) -> bool:
        return name in self._manifests

    def __len__(self) -> int:
        return len(self._manifests)

    def get(self, name: str) -> SkillManifest:
        try:
            return self._manifests[name]
        except KeyError:
            raise UnknownSkill(f"no skill named {name!r}")

    def skills(self) -> list[SkillManifest]:
        return list(self._manifests.values())

    def artifact_types(self) -> set[str]:
        """Controlled vocabulary: every skill output plus the cross-cutting types."""
        types = {m.output_artifact_type for m in self._manifests.values()}
        types.update(CROSS_CUTTING_TYPES)
        return types

    def domains(self) -> list[str]:
        seen: dict[str, None] = {}
        for manifest in self._manifests.values():
            seen.setdefault(manifest.domain, None)
        return list(seen)

    def skills_for(self, profile: AgentProfile) -> list[SkillManifest]:
        """The agent's runnable skills: preferred order, or all when unrestricted."""
        if profile.unrestricted:
            return self.skills()
        return [self.get(name) for name in profile.preferred_tools]


def load_profile(data: Mapping, registry: SkillRegistry) -> AgentProfile:
    """Build a profile from its declarative form, deriving the domain set."""
    preferred = tuple(data.get("preferred_tools", ()))
    for name in preferred:
        if name not in registry:
            raise UnknownSkill(f"profile {data.get('name')!r} prefers unknown skill {name!r}")
    if preferred:
        domains = frozenset(registry.get(name).domain for name in preferred)
    else:
        domains = frozenset(registry.domains())
    return AgentProfile(
        name=data["name"],
        research_interests=tuple(data.get("research_interests", ())),
        preferred_tools=preferred,
        domains=domains,
    )


def allowed_types(profile: AgentProfile, registry: SkillRegistry) -> set[str]:
    """Artifact types the agent may consume.

    Unrestricted agents see every registered type; otherwise the union of the
    preferred skills' output types. synthesis and peer_validation are always
    permitted so coordination results cross domain boundaries.
    """
    if profile.unrestricted:
        return registry.artifact_types()
    types = {registry.get(name).output_artifact_type for name in profile.preferred_tools}
    types.update(ALWAYS_ALLOWED_TYPES)
    return types


# ---------------------------------------------------------------------------
# Deterministic behaviors
# ---------------------------------------------------------------------------

_AMINO = "ACDEFGHIKLMNPQRSTVWY"
_ELEMENTS = ("B", "C", "N", "O", "Mg", "Al", "Si", "Ti")


def _digest(manifest: SkillManifest, echo: dict, seed: int) -> str:
    material = f"{manifest.salt}|{seed}|".encode("utf-8") + canonicalize(echo)
    return hashlib.sha256(material).hexdigest()


def _frac(digest: str, slot: int) -> float:
    chunk = digest[slot * 8 : slot * 8 + 8]
    return round(int(chunk, 16) / 0xFFFFFFFF, 6)


def _small(digest: str, slot: int, modulus: int) -> int:
    return int(digest[slot * 2 : slot * 2 + 2], 16) % modulus


def _behavior_paper_hits(d: str) -> dict:
    count = 2 + _small(d, 0, 3)
    return {"papers": [f"paper-{d[i * 6 : i * 6 + 6]}" for i in range(count)],
            "hit_count": count}


def _behavior_concept_links(d: str) -> dict:
    count = 2 + _small(d, 1, 3)
    return {"concepts": [f"concept-{d[8 + i * 4 : 12 + i * 4]}" for i in range(count)],
            "link_count": count}


def _behavior_summary_text(d: str) -> dict:
    return {"summary": f"summary-{d[:12]}",
            "keywords": [f"kw-{d[12:16]}", f"kw-{d[16:20]}"]}


def _behavior_protein_record(d: str) -> dict:
    length = 10 + _small(d, 2, 6)
    sequence = "".join(_AMINO[int(c, 16)] for c in d[:length])
    return {"sequence": sequence, "organism": f"org-{d[40:46]}", "residue_count": length}


def _behavior_alignment(d: str) -> dict:
    return {"alignment_score": _frac(d, 0),
            "conserved_regions": [f"region-{d[8:12]}", f"region-{d[12:16]}"]}


def _behavior_motif_hits(d: str) -> dict:
    count = 1 + _small(d, 3, 3)
    return {"motifs": [f"motif-{d[20 + i * 4 : 24 + i * 4]}" for i in range(count)],
            "motif_count": count}


def _behavior_compound_record(d: str) -> dict:
    return {"smiles": f"C{d[:6].upper()}", "molecular_weight": round(100 + 400 * _frac(d, 1), 3)}


def _behavior_admet_scores(d: str) -> dict:
    return {"admet": {"absorption": _frac(d, 0), "toxicity": _frac(d, 1)},
            "pass_fraction": _frac(d, 2)}


def _behavior_route_plan(d: str) -> dict:
    count = 2 + _small(d, 4, 3)
    return {"route_steps": [f"step-{d[i * 5 : i * 5 + 5]}" for i in range(count)],
            "feasibility": _frac(d, 3)}


def _behavior_material_record(d: str) -> dict:
    formula = "".join(_ELEMENTS[int(c, 16) % len(_ELEMENTS)] for c in d[:3])
    return {"formula": formula,
            "density": round(1 + 9 * _frac(d, 0), 3),
            "bulk_modulus": round(50 + 350 * _frac(d, 1), 3)}


def _behavior_stability(d: str) -> dict:
    return {"stable": _small(d, 5, 2) == 0, "hull_distance": _frac(d, 2)}


def _behavior_ranking(d: str) -> dict:
    count = 2 + _small(d, 6, 3)
    return {"ranked": [f"candidate-{d[i * 4 : i * 4 + 4]}" for i in range(count)],
            "top_score": _frac(d, 4)}


BEHAVIORS = {
    "paper_hits": _behavior_paper_hits,
    "concept_links": _behavior_concept_links,
    "summary_text": _behavior_summary_text,
    "protein_record": _behavior_protein_record,
    "alignment": _behavior_alignment,
    "motif_hits": _behavior_motif_hits,
    "compound_record": _behavior_compound_record,
    "admet_scores": _behavior_admet_scores,
    "route_plan": _behavior_route_plan,
    "material_record": _behavior_material_record,
    "stability": _behavior_stability,
    "ranking": _behavior_ranking,
}


def execute(manifest: SkillManifest, params: Mapping, seed: int) -> Payload:
    """Run a synthetic skill: deterministic payload for (manifest, params, seed).

    Every declared input param must be present; extra keys are ignored. The
    payload always carries ``skill``, ``echo`` (the consumed params) and the
    behavior's derived fields.
    """
    echo = {}
    for name in manifest.input_params:
        if name not in params:
            raise MissingParam(name)
        echo[name] = params[name]
    digest = _digest(manifest, echo, seed)
    payload: Payload = {"skill": manifest.name, "echo": echo}
    payload.update(BEHAVIORS[manifest.behavior](digest))
    return payload


# ---------------------------------------------------------------------------
# Declarative registry files
# ---------------------------------------------------------------------------

def load_registry(path: str | Path) -> SkillRegistry:
    """Read a registry config: {"skills": [one manifest object per entry]}."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return registry_from_dict(data)


def registry_from_dict(data: Mapping) -> SkillRegistry:
    manifests = []
    for item in data["skills"]:
        manifests.append(SkillManifest(
            name=item["name"],
            input_params=tuple(normalize_param(p) for p in item["input_params"]),
            output_artifact_type=item["output_artifact_type"],
            domain=item["domain"],
            behavior=item["behavior"],
            salt=item.get("salt", item["name"]),
            json_fields=tuple(normalize_param(p) for p in item.get("json_fields", ())),
        ))
    return SkillRegistry(manifests)


def default_registry() -> SkillRegistry:
    """The bundled 12-skill registry spanning four domain families."""
    text = resources.files("artifact.data").joinpath("default_skills.json").read_text("utf-8")
    return registry_from_dict(json.loads(text))
