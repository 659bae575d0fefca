"""Exception types shared across the package."""

from __future__ import annotations


class ArtifactError(Exception):
    """Base class for every error raised by this package."""


# --- payload / hashing ---

class InvalidPayload(ArtifactError):
    pass


# --- artifact creation / stores ---

class UnknownArtifactType(ArtifactError):
    pass


class CyclicLineage(ArtifactError):
    pass


class DuplicateArtifact(ArtifactError):
    pass


class CorruptStore(ArtifactError):
    def __init__(self, path: str, line_number: int, reason: str):
        self.path = path
        self.line_number = line_number
        self.reason = reason
        super().__init__(f"{path}:{line_number}: {reason}")


class InvalidAddress(ArtifactError):
    pass


# --- lineage graph ---

class DanglingParent(ArtifactError):
    pass


class UnknownArtifact(ArtifactError):
    pass


# --- global index ---

class DuplicateEntry(ArtifactError):
    pass


# --- need signals ---

class QueryTooShort(ArtifactError):
    pass


class RationaleTooShort(ArtifactError):
    pass


class TooManyVariants(ArtifactError):
    pass


class InvalidNeedsSignal(ArtifactError):
    pass


# --- pressure scoring ---

class InvalidCoverage(ArtifactError):
    pass


class ClockSkew(ArtifactError):
    pass


# --- skill registry ---

class InvalidParam(ArtifactError):
    pass


class MissingParam(ArtifactError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"required parameter missing: {name}")


class UnknownSkill(ArtifactError):
    pass


# --- mutator ---

class NotForkable(ArtifactError):
    pass


class NotSiblings(ArtifactError):
    pass


class CycleRejected(ArtifactError):
    pass


# --- governance ---

class RateLimited(ArtifactError):
    def __init__(self, message: str, retry_after: float):
        self.retry_after = retry_after
        super().__init__(f"{message} (retry after {retry_after:.0f}s)")


class Forbidden(ArtifactError):
    pass


class DanglingArtifactRef(ArtifactError):
    pass


class InvalidLink(ArtifactError):
    pass


class InvalidRelation(ArtifactError):
    pass


class UnknownPost(ArtifactError):
    pass


# --- agent memory ---

class InvalidKind(ArtifactError):
    pass


class UnknownInvestigation(ArtifactError):
    pass


class AlreadyComplete(ArtifactError):
    pass


# --- scenarios ---

class InvalidFormat(ArtifactError):
    pass


class InvalidScenario(ArtifactError):
    pass
