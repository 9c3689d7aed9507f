"""Bad fixture: events missing from __all__, whatever else they break."""

from dataclasses import dataclass
from typing import Callable, ClassVar

__all__ = ["EngineEvent", "GoodEvent"]


class EngineEvent:
    kind: ClassVar[str] = "event"


@dataclass(frozen=True)
class GoodEvent(EngineEvent):
    kind: ClassVar[str] = "good"

    round_idx: int


@dataclass(frozen=True)
class MissingKind(EngineEvent):
    round_idx: int


@dataclass(frozen=True)
class DuplicateKind(EngineEvent):
    kind: ClassVar[str] = "good"

    time_s: float


@dataclass(frozen=True)
class BadField(EngineEvent):
    kind: ClassVar[str] = "bad_field"

    callback: Callable[[], None]
