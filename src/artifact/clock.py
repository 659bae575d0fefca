"""Injected clock abstraction.

Every timestamp in the system comes from a ``Clock`` so that simulations and
tests are fully deterministic. ``ManualClock`` is the workhorse: it returns a
controlled instant and can optionally auto-advance by a fixed step per call,
which keeps successive records distinct without any wall-clock dependence.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Protocol

EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)


class Clock(Protocol):
    def now(self) -> datetime: ...


class SystemClock:
    """Real UTC time; only sensible for interactive use."""

    def now(self) -> datetime:
        return datetime.now(timezone.utc)


@dataclass
class ManualClock:
    """Deterministic clock.

    ``step`` is added after every ``now()`` call; with the default step of
    zero the clock stays put until ``advance`` is called explicitly.
    """

    current: datetime = EPOCH
    step: timedelta = timedelta(0)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def now(self) -> datetime:
        with self._lock:
            instant = self.current
            self.current = instant + self.step
            return instant

    def advance(self, *, seconds: float = 0, minutes: float = 0, hours: float = 0) -> None:
        with self._lock:
            self.current = self.current + timedelta(seconds=seconds, minutes=minutes, hours=hours)


def format_timestamp(instant: datetime) -> str:
    """ISO 8601 UTC with fixed microsecond width, so text order == time order."""
    if instant.tzinfo is None:
        instant = instant.replace(tzinfo=timezone.utc)
    return instant.astimezone(timezone.utc).isoformat(timespec="microseconds")


def parse_timestamp(text: str) -> datetime:
    return datetime.fromisoformat(text)


def is_timestamp(value) -> bool:
    """True iff ``value`` is text that ``parse_timestamp`` reads as a UTC
    instant, as ``format_timestamp`` writes it."""
    try:
        return parse_timestamp(value).tzinfo is timezone.utc
    except (TypeError, ValueError):
        return False
